"""Command-line orchestration: configs in, results.json + CSV tables out.

Subcommands::

    hamshoot periods          --config c.yaml --out DIR     period table
    hamshoot classify         --config c.yaml --out DIR     resonance regime
    hamshoot check-conditions --config c.yaml --out DIR     mbar + twist checks
    hamshoot ll               --config c.yaml --out DIR     Landesman-Lazer margins
    hamshoot solve-periodic   --config c.yaml --out DIR     multistart shooting
    hamshoot solve-neumann    --config c.yaml --out DIR
    hamshoot full             --config c.yaml --out DIR     the whole chain

Common flags: ``--seed N`` (overrides the config seed) and
``--dump-trajectories``.  Exit codes: 0 ok, 2 config error (also an
expression that a stage evaluates outside its domain, or a planar H1 that is
not positive on the unit circle), 3 integration failure (also a field that
overflows in the LL margins), 4 solver found no solutions.  After a stage
fails, results.json still holds the stages that finished.

Identical config + seed give identical CSV bytes; results.json is identical
up to the metadata timestamp/wall-time fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (Ball, avoiding_rays_check, classify_resonance,
                         constant_path, estimate_mbar, fourier_paths,
                         indefinite_twist_check, ll_margin, twist_check, SampleBox)
from .config import load_config, read_top_key
from .errors import ConfigError, DomainError, IntegrationError, NonpositiveHamiltonianError
from .homogeneous import asym_period, half_periods, minimal_period, reference_orbit
from .solvers import multistart_neumann, multistart_periodic, solution_flow
from .systems import validate_periodicity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_NO_SOLUTIONS = 4


def _fmt(x):
    """17 significant digits: round-trip exact for doubles."""
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) if isinstance(c, (int, float, np.floating))
                              and not isinstance(c, bool) else str(c)
                              for c in row) + "\n")


def _numpy_to_json(obj):
    """A numpy array or scalar as the list or Python scalar json writes for it
    (np.float64 is a float already)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

def _periods_stage(cfg, out_dir):
    sys_ = cfg.system
    dec = sys_.decomposition
    rows = []
    section = {}
    if dec is None:
        section["note"] = "no decomposition data; no homogeneous periods to report"
    else:
        for name, H in (("H1", dec.H1), ("H2", dec.H2)):
            tau = minimal_period(H)
            hp = half_periods(H)
            rows.append((name, H.label, tau, hp.tau_plus, hp.tau_minus))
            section[name] = {"label": H.label, "tau": tau,
                             "tau_plus": hp.tau_plus, "tau_minus": hp.tau_minus}
        if cfg._stiffness is not None:   # (mu1, nu1, mu2, nu2)
            section["closed_form"] = {"tau1": asym_period(cfg._stiffness[:2]),
                                      "tau2": asym_period(cfg._stiffness[2:])}
    _write_csv(out_dir / "periods.csv",
               ["block", "label", "tau", "tau_plus", "tau_minus"], rows)
    return section


def _classify_stage(cfg, periods_section):
    if "H1" not in periods_section:
        return {"note": "no decomposition; classification skipped"}
    if cfg.mode == "periodic":
        tau1 = periods_section["H1"]["tau"]
        tau2 = periods_section["H2"]["tau"]
        basis = "full periods vs T"
    else:
        tau1 = periods_section["H1"]["tau_plus"]
        tau2 = periods_section["H2"]["tau_plus"]
        basis = "half periods vs b - a"
    span = cfg.system.span
    rc = classify_resonance(tau1, tau2, span, tol=cfg.conditions["resonance_tol"])
    return {"tag": rc.tag.value, "N": rc.N, "tau1": tau1, "tau2": tau2,
            "span": span, "basis": basis, "text": str(rc)}


def _estimate_mbar(cfg, seed):
    """Estimated sup |grad_w P| over the configured box; 0 without a coupling."""
    sys_, M = cfg.system, cfg.M
    if sys_.grad_P is None:
        return 0.0
    mc = cfg.conditions["mbar"]
    box = SampleBox(t_range=(sys_.t0, sys_.t0 + sys_.span), x_ranges=((0.0, 2 * np.pi),) * M,
                    y_ranges=mc["y_box"], w_ranges=mc["w_box"])
    return estimate_mbar(lambda t, x, y, w: sys_.grad_P(t, x, y, w)[2], box,
                         n_samples=mc["n_samples"], seed=seed)


def _conditions_stage(cfg, out_dir, seed):
    sys_ = cfg.system
    cond = cfg.conditions
    rows = []
    section = {}

    if cfg.mode == "periodic":
        per = validate_periodicity(sys_, seed=seed)
        section["periodicity"] = {"max_t_residual": per.max_t_residual,
                                  "max_x_residual": per.max_x_residual,
                                  "passed": per.passed}
        rows.append(("periodicity", "t and x shifts", per.max_t_residual,
                     per.tol, "pass" if per.passed else "FAIL"))

    mbar = _estimate_mbar(cfg, seed)
    section["mbar"] = {"estimate": mbar,
                       "note": "empirical max over Halton samples; lower bound of sup"}
    rows.append(("mbar", "sup |grad_w P| estimate", mbar, "", ""))

    def ensemble(block):
        ens = [constant_path(c) for c in block["constants"]]
        fr = block["fourier"]
        if fr:
            ens += fourier_paths(fr["count"], fr["amplitude"], fr["modes"], sys_.T, seed=seed)
        return ens

    # (key, check, its arguments before the ensemble and its keywords besides x_points)
    twist_checks = (
        ("twist", twist_check, lambda b: ([b["D"], b["sigma"]], {"y_points": b["y_points"]})),
        ("avoiding_rays", avoiding_rays_check, lambda b: (
            [Ball(b["center"], b["radius"]), b["sigma"]], {"boundary_grid": b["boundary_points"]})),
        ("indefinite_twist", indefinite_twist_check, lambda b: (
            [Ball(b["center"], b["radius"]), b["A"]], {"boundary_grid": b["boundary_points"]})),
    )
    for key, check, arguments in twist_checks:
        block = cond[key]
        if not (block["enabled"] and cfg.mode == "periodic"):
            continue
        args, kwargs = arguments(block)
        rep = check(sys_, *args, ensemble(block["ensemble"]), x_points=block["x_points"], **kwargs)
        section[key] = {"passed": rep.passed, "n_samples": len(rep.samples),
                        "violations": list(rep.violations)}
        rows.append((key.replace("_", "-"), f"{len(rep.samples)} samples",
                     len(rep.violations), 0, "pass" if rep.passed else "FAIL"))

    _write_csv(out_dir / "conditions.csv",
               ["check", "detail", "value", "threshold", "verdict"], rows)
    return section


def _ll_stage(cfg, out_dir, seed, mbar_hint=None):
    sys_ = cfg.system
    if sys_.decomposition is None:
        return {"note": "no decomposition; Landesman-Lazer margins skipped"}
    ll = cfg.conditions["ll"]
    lam = np.logspace(np.log10(ll["lambda_min"]), np.log10(ll["lambda_max"]), ll["lambda_points"])
    mbar = ll["mbar"]
    if mbar is None:
        mbar = mbar_hint if mbar_hint is not None else _estimate_mbar(cfg, seed)
    grid = sys_.t0 + np.linspace(0.0, sys_.span, ll["theta_points"], endpoint=False)
    section = {}
    rows = []
    for which, H in (("lower", sys_.decomposition.H1), ("upper", sys_.decomposition.H2)):
        orbit = reference_orbit(H, tol=1e-10)
        rep = ll_margin(sys_, which, orbit, theta_grid=grid, lambda_schedule=lam,
                        s_points=ll["s_points"], mbar=float(mbar), t_nodes=ll["t_nodes"])
        section[which] = {"passed": rep.passed, "min_margin": rep.min_margin,
                          "mbar": float(mbar)}
        for theta, lhs, rhs, margin, disp in rep.rows:
            rows.append((which, theta, lhs, rhs, margin, disp))
    _write_csv(out_dir / "ll_margins.csv",
               ["which", "theta", "lhs", "rhs", "margin", "tail_dispersion"], rows)
    return section


def _solutions_csv_rows(cfg, records):
    M = cfg.M
    if cfg.mode == "periodic":
        header = ([f"x0_{i + 1}" for i in range(M)] + [f"y0_{i + 1}" for i in range(M)]
                  + ["u0", "v0", "residual", "iterations", "turns"])

        def cells(rec):
            return [*rec.x0_normalized, *rec.y0, rec.w0[0], rec.w0[1], rec.residual,
                    rec.iterations, "" if rec.turns is None else rec.turns]
    else:
        header = [f"xa_{i + 1}" for i in range(M)] + ["u_a", "residual", "iterations"]

        def cells(rec):
            return [*rec.x0_normalized, rec.w0[0], rec.residual, rec.iterations]
    return (["mode", "class"] + header,
            [[cfg.mode, cls] + cells(rec) for cls, rec in enumerate(records)])


def _solve_stage(cfg, out_dir, seed, dump_trajectories=False):
    sys_ = cfg.system
    if cfg.mode == "periodic":
        result = multistart_periodic(sys_, cfg.multistart, newton_tol=cfg.newton_tol,
                                     max_iter=cfg.max_iter, seed=seed)
    else:
        result = multistart_neumann(sys_, cfg.neumann_multistart, newton_tol=cfg.newton_tol,
                                    max_iter=cfg.max_iter, seed=seed)
    header, rows = _solutions_csv_rows(cfg, result.records)
    _write_csv(out_dir / "solutions.csv", header, rows)

    if dump_trajectories and result.records:
        traj_dir = out_dir / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        stride = cfg.trajectory_stride
        for cls, rec in enumerate(result.records):
            traj = solution_flow(sys_, rec.z0, cfg.newton_tol)
            ts = np.minimum(np.arange(traj.ts[0], traj.ts[-1] + 0.5 * stride, stride), traj.ts[-1])
            _write_csv(traj_dir / f"class_{cls}.csv",
                       ["t"] + [f"z_{i + 1}" for i in range(sys_.dim)],
                       [[t, *z] for t, z in zip(ts, traj.query_many(ts))])

    section = {
        "n_classes": result.partition.n_classes,
        "stats": result.stats,
        "records": [
            {"class": cls,
             **({"x0": list(r.x0_normalized), "y0": list(r.y0),
                 "w0": list(r.w0), "turns": r.turns}
                if cfg.mode == "periodic" else
                {"x_a": list(r.x0_normalized), "u_a": r.w0[0]}),
             "residual": r.residual, "iterations": r.iterations}
            for cls, r in enumerate(result.records)],
    }
    return section, result


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def _seed(text):
    """``--seed``: an integer, read by the config's rule for ``seed``."""
    problems = []
    seed = read_top_key("seed", int(text), problems)
    if problems:
        raise argparse.ArgumentTypeError(problems[0])
    return seed


def _build_parser():
    p = argparse.ArgumentParser(prog="hamshoot", description=__doc__.split("\n")[0])
    p.add_argument("subcommand",
                   choices=["periods", "classify", "check-conditions", "ll",
                            "solve-periodic", "solve-neumann", "full"])
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p.add_argument("--dump-trajectories", action="store_true")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t_start = time.time()
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    want = {"solve-periodic": "periodic", "solve-neumann": "neumann"}.get(args.subcommand)
    if want not in (None, cfg.mode):
        print(f"config error: config is {cfg.mode} mode but {args.subcommand} was requested",
              file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg.seed if args.seed is None else args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {"metadata": {
        "tool": "hamshoot", "version": __version__,
        "subcommand": args.subcommand, "config_path": cfg.path,
        "config_hash": cfg.config_hash, "seed": seed, "mode": cfg.mode,
        "M": cfg.M,
    }}

    code = EXIT_OK
    try:
        if args.subcommand in ("periods", "classify", "full"):
            results["periods"] = _periods_stage(cfg, out_dir)
        if args.subcommand in ("classify", "full"):
            results["resonance"] = _classify_stage(cfg, results["periods"])
            print(f"resonance: {results['resonance'].get('text', 'n/a')}")
        if args.subcommand in ("check-conditions", "full"):
            results["conditions"] = _conditions_stage(cfg, out_dir, seed)
        if args.subcommand == "ll" or (args.subcommand == "full"
                                       and cfg.conditions["ll"]["enabled"]):
            mbar_hint = (results.get("conditions", {}) or {}).get("mbar", {}).get("estimate")
            results["ll"] = _ll_stage(cfg, out_dir, seed, mbar_hint=mbar_hint)
        if args.subcommand in ("solve-periodic", "solve-neumann", "full"):
            section, result = _solve_stage(cfg, out_dir, seed,
                                           dump_trajectories=args.dump_trajectories)
            results["solutions"] = section
            n = section["n_classes"]
            bound = cfg.M + 1
            verdict = "PASS" if n >= bound else "FAIL"
            results["summary"] = {"distinct_classes": n, "bound": bound,
                                  "meets_bound": n >= bound}
            print(f"distinct_classes >= {bound}: {verdict} (found {n})")
            if not result.all_records:
                code = EXIT_NO_SOLUTIONS
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        code = EXIT_INTEGRATION
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except NonpositiveHamiltonianError as exc:
        print(f"nonpositive Hamiltonian: {exc}", file=sys.stderr)
        code = EXIT_CONFIG

    results["metadata"]["wall_time_s"] = time.time() - t_start
    results["metadata"]["timestamp_utc"] = datetime.now(timezone.utc).isoformat()
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True, default=_numpy_to_json)
        fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
