#!/usr/bin/env python3
"""hamshoot benchmark: multistart shooting end to end and per module.

    python3 bench/run.py --workload periodic-demo --seed 1 --seconds 30 --trace 0

Runs whole passes of one workload (see workloads.py) until another pass
would exceed ``--seconds`` (at least one), checks every pass against the
independent references in checks.py, and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (spans go to
``.bench_out/<workload>/spans_pass<k>.jsonl``).  Figures are medians over
passes.  ``setup_s`` is the median of SETUP_PROBES fresh child processes that
each import hamshoot, load the config and build the system.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# workload -> config under configs/ (periodic-numpy builds its system in code)
CONFIG_FILES = {"periodic-demo": "pendulum_oscillator.yaml", "periodic-numpy": None,
                "neumann-expr-ll": "neumann_expr_ll.yaml"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s",
                    "distinct_solutions": "count", "peak_rss_mb": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CONFIG_FILES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="CONFIG", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _write_config(name, seed, out_dir):
    """The workload's config with its seed line set to ``seed``."""
    if CONFIG_FILES[name] is None:
        return None
    text = (BENCH / "configs" / CONFIG_FILES[name]).read_text(encoding="utf-8")
    text, n = re.subn(r"(?m)^seed: *\d+ *$", f"seed: {seed}", text)
    if n != 1:
        raise RuntimeError(f"{CONFIG_FILES[name]}: expected one seed line")
    path = out_dir / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def _probe_setup(name, cfg_path):
    t0 = time.perf_counter()
    import hamshoot  # noqa: F401
    import workloads
    workloads.setup(name, cfg_path)
    print(repr(time.perf_counter() - t0))
    return 0


def _measure_setup(args, cfg_path):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--probe-setup", str(cfg_path or "")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "hamshoot" / "__init__.py").is_file():
        print(f"hamshoot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup is not None:
        return _probe_setup(args.workload, args.probe_setup or None)

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = _write_config(args.workload, args.seed, out_dir)
    setups = _measure_setup(args, cfg_path)

    # the first pass pays the import; later passes are charged the same
    c0, t0 = time.process_time(), time.perf_counter()
    import hamshoot
    import_wall, import_cpu = time.perf_counter() - t0, time.process_time() - c0
    if Path(hamshoot.__file__).resolve().parent != SRC / "hamshoot":
        print(f"imported hamshoot from {hamshoot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer, "full" if args.trace else "coarse")
    passes, problems = [], []
    attempted = failed = 0
    used = longest = 0.0
    while True:
        tracer.reset()
        c0, t0 = time.process_time(), time.perf_counter()
        collect = workloads.run_pass(args.workload, cfg_path, out_dir, args.seed, tracer)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        used += wall
        longest = max(longest, wall)

        outcome = collect()
        problems += workloads.check(outcome, tracing.converged_states(tracer))
        outcomes = tracing.start_outcomes(tracer)
        stalls, other = checks.classify_failures(outcomes)
        problems += other
        attempted += len(outcomes)
        failed += stalls

        figures = {"wall_s": wall + import_wall,
                   "distinct_solutions": len(outcome["classes"]),
                   **tracing.end_to_end_spans(tracer)}
        if args.trace:
            figures.update(tracing.layer_metrics(tracer))
            figures["run.cpu_s"] = cpu + import_cpu
            figures["run.wait_s"] = figures["wall_s"] - figures["run.cpu_s"]
            tracer.write(out_dir / f"spans_pass{len(passes)}.jsonl")
        passes.append(figures)
        if used + longest > args.seconds:
            break

    def median(key):
        return statistics.median(p[key] for p in passes)

    if args.trace:
        metrics = {k: {"value": median(k), "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        values.update({k: median(k) for k in ("wall_s", "solve_s", "distinct_solutions")})
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
               "setup_probes_s": setups, "pass_wall_s": [p["wall_s"] for p in passes]}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for k, m in metrics.items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
