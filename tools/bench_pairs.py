#!/usr/bin/env python3
"""Run bench/run.py from two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_18.json

Per workload of the change's BENCHMARK.json and per seed: ``--pairs`` pairs of
untraced runs of its ``run_seconds``, the parent first in odd pairs.  Adds to
``--out`` every run and, per end-to-end metric, each side's median and
quartiles and the number of pairs the change won.  A run that exits non-zero
is recorded in ``--out`` (side, pair, exit code, last line of its standard
error) with the runs finished before it, and the script exits 1.  Standard
library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout, bench, workload, seed):
    """The result of one run, or (exit code, last line of standard error)."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        return proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs, metric):
    """Per-side values, quartiles and in-pair wins of one end-to-end metric."""
    values = {s: [r["metrics"][metric["name"]]["value"] for r in runs[s]] for s in SIDES}
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    out = {**values, **{f"{s}_stats": stats(values[s]) for s in SIDES}}
    median = out["parent_stats"]["median"]
    out["ratio_of_medians"] = out["change_stats"]["median"] / median if median else None
    return {**out, "change_better_in_pairs": wins}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {"command": bench["command"], "seconds": bench["run_seconds"],
              "order": "alternating: the parent runs first in odd pairs", "workloads": {}}
    if args.out.exists():   # add to the workloads and seeds measured before
        result["workloads"] = json.loads(args.out.read_text())["workloads"]
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            runs = {s: [] for s in SIDES}
            key = f"{workload} seed {seed}"
            for i in range(args.pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    out = run(checkouts[side], bench, workload, seed)
                    if isinstance(out, tuple):
                        result["workloads"][key] = {"runs": runs, "failed_run": {
                            "side": side, "pair": i + 1, "exit_code": out[0],
                            "stderr": out[1]}}
                        args.out.write_text(json.dumps(result, indent=1) + "\n")
                        print(workload, seed, i + 1, side, "exit", *out, file=sys.stderr)
                        return 1
                    runs[side].append(out)
                    values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']}"
                                      for m in bench["end_to_end"])
                    print(workload, seed, i + 1, side, values, file=sys.stderr, flush=True)
            result["workloads"][key] = {
                "pairs": args.pairs, "runs": runs,
                "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
                "metrics": {m["name"]: compare(runs, m) for m in bench["end_to_end"]}}
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
