#!/usr/bin/env python3
"""Print deterministic Newton counts per multistart start.

    python3 tools/flow_counts.py demos/configs/pendulum_oscillator.yaml
    python3 tools/flow_counts.py --grid baseline
    python3 tools/flow_counts.py --grid numpy

Runs the multistart of a config (at its seed), of the 48-start Baseline grid
(ROADMAP: the demo system, seed 1) or of the ``periodic-numpy`` bench workload
(seed 1), from ``src/`` next to this directory.  Per start it prints the
outcome, the Newton iterations, the variational flows at the coarse and at the
fine tolerance, the plain flows (the winding flow of a periodic record), the
RHS evaluations of all of them, the record's ``revalidate`` residual, which
is computed outside the counts, and what ended the start's coarse phase:
``floor`` (a coarse residual at its noise floor) or ``stall`` (no step from a
coarse Jacobian decreased |R|).  Totals, per-start means and the class count follow.
Counts do not depend on timing, so one run is enough.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hamshoot import config, solvers  # noqa: E402

DEMO_CONFIG = ROOT / "demos" / "configs" / "pendulum_oscillator.yaml"
BASELINE = solvers.MultistartSpec(x_points=6, y_ranges=((-0.6, 0.6),), y_points=2,
                                  w_radii=(0.25, 0.6), w_angles=2)
COLUMNS = ("iterations", "coarse", "fine", "plain", "nfev")


def problem(args):
    """(system, spec, newton_tol, max_iter, seed) of the starts to run."""
    if args.grid == "numpy":
        import workloads   # bench/workloads.py, read only
        return workloads.corollary_system(), workloads.SPEC, workloads.checks.NEWTON_TOL, 40, 1
    cfg = config.load_config(DEMO_CONFIG if args.grid else args.config)
    if args.grid:
        return cfg.system, BASELINE, cfg.newton_tol, cfg.max_iter, 1
    spec = cfg.multistart if cfg.mode == "periodic" else cfg.neumann_multistart
    return cfg.system, spec, cfg.newton_tol, cfg.max_iter, cfg.seed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("config", nargs="?", type=Path)
    p.add_argument("--grid", choices=("baseline", "numpy"))
    args = p.parse_args(argv)
    if (args.config is None) == (args.grid is None):
        p.error("give a config or --grid")
    sys_, spec, newton_tol, max_iter, seed = problem(args)
    periodic = sys_.mode == "periodic"
    multistart = solvers.multistart_periodic if periodic else solvers.multistart_neumann
    name = "shoot_periodic" if periodic else "shoot_neumann"
    shoot, integrate = getattr(solvers, name), solvers.integrate
    n = sys_.dim
    fine = solvers._FLOW_TOL_RATIO * newton_tol
    floor = solvers._NOISE_RATIO * max(fine, solvers._COARSE_FLOW_TOL)
    rows = []

    def counted_integrate(f, z0, t0, t1, tol, *a, **kw):
        traj = integrate(f, z0, t0, t1, tol, *a, **kw)
        row = rows[-1]
        row["plain" if len(z0) == n else "fine" if tol == fine else "coarse"] += 1
        row["nfev"] += traj.stats.nfev
        if len(z0) > n:
            z = np.array(z0[:n])
            flow = (tol, z, float(np.linalg.norm(solvers._defect(sys_, z, traj.ys[-1][:n]))))
            last = row.get("last")
            if tol == fine and last is not None and last[0] != fine:
                # the first fine flow: at the last coarse state if that is at its floor
                same = np.array_equal(last[1], z) and last[2] <= floor
                row["switch"] = "floor" if same else "stall"
            row["last"] = flow
        return traj

    def counted_shoot(system, guess, **kw):
        rows.append(dict.fromkeys(COLUMNS, 0) | {"outcome": "converged", "switch": "-"})
        try:
            rec = shoot(system, guess, **kw)
        except Exception as exc:
            rows[-1]["outcome"] = type(exc).__name__
            raise
        rows[-1].update(iterations=rec.iterations, record=rec)
        return rec

    setattr(solvers, name, counted_shoot)
    solvers.integrate = counted_integrate
    try:
        result = multistart(sys_, spec, newton_tol=newton_tol, max_iter=max_iter, seed=seed)
    finally:
        setattr(solvers, name, shoot)
        solvers.integrate = integrate

    print(f"{'start':>5} {'outcome':<22}" + "".join(f"{c:>11}" for c in COLUMNS)
          + f"{'revalidate':>12}{'switch':>8}")
    above = 0
    for i, row in enumerate(rows):
        rec = row.get("record")
        check = solvers.revalidate(sys_, rec) if rec is not None else None
        above += check is not None and check > newton_tol
        print(f"{i:>5} {row['outcome']:<22}" + "".join(f"{row[c]:>11}" for c in COLUMNS)
              + (f"{check:>12.3e}" if check is not None else f"{'-':>12}")
              + f"{row['switch']:>8}")
    totals = {c: sum(row[c] for row in rows) for c in COLUMNS}
    print(f"{'total':>5} {'':<22}" + "".join(f"{totals[c]:>11}" for c in COLUMNS))
    print(f"{'mean':>5} {'':<22}" + "".join(f"{totals[c] / len(rows):>11.2f}"
                                              for c in COLUMNS))
    print(f"{result.stats['converged']} of {len(rows)} converge into "
          f"{result.partition.n_classes} classes; {above} records revalidate above "
          f"newton_tol {newton_tol:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
