#!/usr/bin/env python3
"""Run `hamshoot full` from two checkouts and compare what they write.

    python3 tools/compare_outputs.py --parent ../parent --change . --seeds 0 1

Per config and seed, each checkout runs ``hamshoot full --dump-trajectories``
from its own ``src/`` on its own copy of the config: by default the demo
config and every ``bench/configs/*.yaml`` of the change.  Reports, per run,
whether every CSV (the dumped ``trajectories/class_*.csv`` included) and
stdout are byte-identical and the exit codes equal, and lists every
``results.json`` difference outside the metadata fields ``wall_time_s``,
``timestamp_utc`` and ``config_path``.  Exits 1 on any difference.  Outputs
go to a temporary directory and no bytecode is written, so neither checkout
changes.  Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
DEMO_CONFIG = "demos/configs/pendulum_oscillator.yaml"
RUN_METADATA = ("wall_time_s", "timestamp_utc", "config_path")


def run(checkout, config, seed, out_dir):
    """Exit code and stdout of one ``hamshoot full`` run into ``out_dir``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "hamshoot.cli", "full", "--config", str(checkout / config),
           "--out", str(out_dir), "--seed", str(seed), "--dump-trajectories"]
    proc = subprocess.run(cmd, cwd=out_dir.parent, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def json_diffs(a, b, path=""):
    """Every place where the JSON values ``a`` and ``b`` differ, as text."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in sorted(a.keys() | b.keys())
                for d in (json_diffs(a[k], b[k], f"{path}.{k}") if k in a and k in b
                          else [f"{path}.{k}: only in {'parent' if k in a else 'change'}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diffs(x, y, f"{path}[{i}]")]
    return [] if a == b and type(a) is type(b) else [f"{path}: {a!r} -> {b!r}"]


def compare(outs):
    """Differences between the parent's and the change's output directories."""
    diffs = []
    names = {s: {str(p.relative_to(outs[s])) for p in outs[s].rglob("*") if p.is_file()}
             - {"results.json"} for s in SIDES}
    for name in sorted(names["parent"] ^ names["change"]):
        diffs.append(f"{name}: only in {'parent' if name in names['parent'] else 'change'}")
    for name in sorted(names["parent"] & names["change"]):
        if (outs["parent"] / name).read_bytes() != (outs["change"] / name).read_bytes():
            diffs.append(f"{name}: bytes differ")
    results = {}
    for s in SIDES:
        path = outs[s] / "results.json"
        results[s] = json.loads(path.read_text()) if path.exists() else {}
        for key in RUN_METADATA:
            results[s].get("metadata", {}).pop(key, None)
    return diffs + [f"results.json{d}" for d in json_diffs(results["parent"], results["change"])]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--configs", nargs="*", help="paths relative to each checkout; default: "
                   f"{DEMO_CONFIG} and the change's bench/configs/*.yaml")
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = args.configs or [DEMO_CONFIG] + sorted(
        str(c.relative_to(checkouts["change"]))
        for c in (checkouts["change"] / "bench" / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        work = Path(tmp)
        different = 0
        for i, config in enumerate(configs):
            for seed in args.seeds:
                outs = {s: work / f"{i}_{Path(config).stem}_seed{seed}" / s for s in SIDES}
                ran = {}
                for s in SIDES:
                    outs[s].mkdir(parents=True, exist_ok=True)
                    ran[s] = run(checkouts[s], config, seed, outs[s])
                diffs = compare(outs)
                if ran["parent"][0] != ran["change"][0]:
                    diffs.insert(0, f"exit code {ran['parent'][0]} -> {ran['change'][0]}")
                if ran["parent"][1] != ran["change"][1]:
                    diffs.insert(0, "stdout differs")
                different += bool(diffs)
                print(f"{config} seed {seed} (exit {ran['change'][0]}): "
                      + ("identical" if not diffs else f"{len(diffs)} differences"), flush=True)
                for d in diffs:
                    print(f"  {d}")
        print(f"{different} of {len(configs) * len(args.seeds)} runs differ")
    return 1 if different else 0


if __name__ == "__main__":
    raise SystemExit(main())
