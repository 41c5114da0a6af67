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
``--dump-trajectories``.  Exit codes: 0 ok, 2 config error, 3 integration
failure, 4 solver found no solutions.

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
from .config import load_config
from .errors import (ConfigError, IntegrationError, SingularMatrixError,
                     ValidationError)
from .homogeneous import asym_period, half_periods, minimal_period, reference_orbit
from .solvers import multistart_neumann, multistart_periodic
from .systems import assemble_field, field_switches, validate_periodicity
from .dynamics import integrate

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


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


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
        planar = cfg.raw.get("planar", {}) or {}
        if planar.get("preset", "asymmetric") == "asymmetric":
            mu1 = float(planar.get("mu1", 1.0))
            nu1 = float(planar.get("nu1", 1.0))
            mu2 = float(planar.get("mu2", mu1))
            nu2 = float(planar.get("nu2", nu1))
            section["closed_form"] = {"tau1": asym_period((mu1, nu1)),
                                      "tau2": asym_period((mu2, nu2))}
    _write_csv(out_dir / "periods.csv",
               ["block", "label", "tau", "tau_plus", "tau_minus"], rows)
    return section


def _classify_stage(cfg, periods_section):
    if "H1" not in periods_section:
        return {"note": "no decomposition; classification skipped"}
    tol = float((cfg.conditions or {}).get("resonance_tol", 1e-9))
    if cfg.mode == "periodic":
        tau1 = periods_section["H1"]["tau"]
        tau2 = periods_section["H2"]["tau"]
        span = cfg.T
        basis = "full periods vs T"
    else:
        tau1 = periods_section["H1"]["tau_plus"]
        tau2 = periods_section["H2"]["tau_plus"]
        span = cfg.interval[1] - cfg.interval[0]
        basis = "half periods vs b - a"
    rc = classify_resonance(tau1, tau2, span, tol=tol)
    return {"tag": rc.tag.value, "N": rc.N, "tau1": tau1, "tau2": tau2,
            "span": span, "basis": basis, "text": str(rc)}


def _default_mbar_box(cfg):
    mc = (cfg.conditions or {}).get("mbar", {}) or {}
    sys_ = cfg.system
    M = cfg.M
    y_box = mc.get("y_box") or [[-1.0, 1.0]] * M
    w_box = mc.get("w_box") or [[-2.0, 2.0], [-2.0, 2.0]]
    return SampleBox(t_range=(sys_.t0, sys_.t0 + sys_.span),
                     x_ranges=tuple((0.0, 2 * np.pi) for _ in range(M)),
                     y_ranges=tuple(tuple(map(float, r)) for r in y_box),
                     w_ranges=tuple(tuple(map(float, r)) for r in w_box))


def _estimate_mbar(cfg, seed):
    """Estimated sup |grad_w P| over the configured box; 0 without a coupling."""
    grad_P = cfg.system.grad_P
    if grad_P is None:
        return 0.0
    mc = (cfg.conditions or {}).get("mbar", {}) or {}
    return estimate_mbar(lambda t, x, y, w: grad_P(t, x, y, w)[2], _default_mbar_box(cfg),
                         n_samples=int(mc.get("n_samples", 10000)), seed=seed)


def _conditions_stage(cfg, out_dir, seed):
    sys_ = cfg.system
    cond = cfg.conditions or {}
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

    def _ensemble(block):
        ens_cfg = block.get("ensemble", {}) or {}
        ens = [constant_path(c) for c in ens_cfg.get("constants", [[0.0, 0.0]])]
        fr = ens_cfg.get("fourier")
        if fr:
            ens += fourier_paths(int(fr.get("count", 2)),
                                 float(fr.get("amplitude", 1.0)),
                                 int(fr.get("modes", 3)), sys_.T, seed=seed)
        return ens

    twist_cfg = cond.get("twist", {}) or {}
    if twist_cfg.get("enabled", False) and cfg.mode == "periodic":
        rep = twist_check(sys_, twist_cfg["D"], twist_cfg["sigma"], _ensemble(twist_cfg),
                          x_points=int(twist_cfg.get("x_points", 3)),
                          y_points=int(twist_cfg.get("y_points", 3)))
        section["twist"] = {"passed": rep.passed, "n_samples": len(rep.samples),
                            "violations": list(rep.violations)}
        rows.append(("twist", f"{len(rep.samples)} samples", len(rep.violations),
                     0, "pass" if rep.passed else "FAIL"))

    ar_cfg = cond.get("avoiding_rays", {}) or {}
    if ar_cfg.get("enabled", False) and cfg.mode == "periodic":
        body = Ball(np.asarray(ar_cfg.get("center", [0.0] * cfg.M), dtype=float),
                    float(ar_cfg.get("radius", 1.0)))
        rep = avoiding_rays_check(sys_, body, int(ar_cfg.get("sigma", 1)),
                                  _ensemble(ar_cfg),
                                  boundary_grid=int(ar_cfg.get("boundary_points", 16)),
                                  x_points=int(ar_cfg.get("x_points", 3)))
        section["avoiding_rays"] = {"passed": rep.passed, "n_samples": len(rep.samples),
                                    "violations": list(rep.violations)}
        rows.append(("avoiding-rays", f"{len(rep.samples)} samples",
                     len(rep.violations), 0, "pass" if rep.passed else "FAIL"))

    it_cfg = cond.get("indefinite_twist", {}) or {}
    if it_cfg.get("enabled", False) and cfg.mode == "periodic":
        body = Ball(np.asarray(it_cfg.get("center", [0.0] * cfg.M), dtype=float),
                    float(it_cfg.get("radius", 1.0)))
        A = np.asarray(it_cfg.get("A", np.eye(cfg.M).tolist()), dtype=float)
        rep = indefinite_twist_check(sys_, body, A, _ensemble(it_cfg),
                                     boundary_grid=int(it_cfg.get("boundary_points", 16)),
                                     x_points=int(it_cfg.get("x_points", 3)))
        section["indefinite_twist"] = {"passed": rep.passed,
                                       "n_samples": len(rep.samples),
                                       "violations": list(rep.violations)}
        rows.append(("indefinite-twist", f"{len(rep.samples)} samples",
                     len(rep.violations), 0, "pass" if rep.passed else "FAIL"))

    _write_csv(out_dir / "conditions.csv",
               ["check", "detail", "value", "threshold", "verdict"], rows)
    return section


def _ll_stage(cfg, out_dir, seed, mbar_hint=None):
    sys_ = cfg.system
    if sys_.decomposition is None:
        return {"note": "no decomposition; Landesman-Lazer margins skipped"}
    ll_cfg = (cfg.conditions or {}).get("ll", {}) or {}
    mbar = ll_cfg.get("mbar")
    if mbar is None:
        mbar = mbar_hint if mbar_hint is not None else _estimate_mbar(cfg, seed)
    lam = np.logspace(np.log10(float(ll_cfg.get("lambda_min", 1e2))),
                      np.log10(float(ll_cfg.get("lambda_max", 1e6))),
                      int(ll_cfg.get("lambda_points", 9)))
    theta_n = int(ll_cfg.get("theta_points", 64))
    grid = sys_.t0 + np.linspace(0.0, sys_.span, theta_n, endpoint=False)
    section = {}
    rows = []
    for which, H in (("lower", sys_.decomposition.H1), ("upper", sys_.decomposition.H2)):
        orbit = reference_orbit(H, tol=1e-10)
        rep = ll_margin(sys_, which, orbit, theta_grid=grid, lambda_schedule=lam,
                        s_points=int(ll_cfg.get("s_points", 5)), mbar=float(mbar),
                        t_nodes=int(ll_cfg.get("t_nodes", 512)))
        section[which] = {"passed": rep.passed, "min_margin": rep.min_margin,
                          "mbar": float(mbar)}
        for theta, lhs, rhs, margin, disp in rep.rows:
            rows.append((which, theta, lhs, rhs, margin, disp))
    _write_csv(out_dir / "ll_margins.csv",
               ["which", "theta", "lhs", "rhs", "margin", "tail_dispersion"], rows)
    return section


def _solutions_csv_rows(cfg, records, partition):
    M = cfg.M
    rows = []
    if cfg.mode == "periodic":
        for cls, rec in enumerate(records):
            row = ["periodic", cls]
            row += [rec.x0_normalized[i] for i in range(M)]
            row += [rec.y0[i] for i in range(M)]
            row += [rec.w0[0], rec.w0[1], rec.residual, rec.iterations,
                    "" if rec.turns is None else rec.turns]
            rows.append(row)
        header = (["mode", "class"] + [f"x0_{i + 1}" for i in range(M)]
                  + [f"y0_{i + 1}" for i in range(M)]
                  + ["u0", "v0", "residual", "iterations", "turns"])
    else:
        for cls, rec in enumerate(records):
            row = ["neumann", cls]
            row += [rec.x_a_normalized[i] for i in range(M)]
            row += [rec.u_a, rec.residual, rec.iterations]
            rows.append(row)
        header = (["mode", "class"] + [f"xa_{i + 1}" for i in range(M)]
                  + ["u_a", "residual", "iterations"])
    return header, rows


def _solve_stage(cfg, out_dir, seed, dump_trajectories=False):
    sys_ = cfg.system
    solver = cfg.solver or {}
    newton_tol = float(solver.get("newton_tol", 1e-9))
    max_iter = int(solver.get("max_iter", 40))
    if cfg.mode == "periodic":
        result = multistart_periodic(sys_, cfg.multistart_spec(),
                                     newton_tol=newton_tol, max_iter=max_iter, seed=seed)
    else:
        result = multistart_neumann(sys_, cfg.neumann_spec(),
                                    newton_tol=newton_tol, max_iter=max_iter, seed=seed)
    header, rows = _solutions_csv_rows(cfg, result.records, result.partition)
    _write_csv(out_dir / "solutions.csv", header, rows)

    if dump_trajectories and result.records:
        traj_dir = out_dir / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        field = assemble_field(sys_)
        switches = field_switches(sys_)
        stride = float((cfg.output or {}).get("trajectory_stride",
                                              sys_.span / 1000.0))
        for cls, rec in enumerate(result.records):
            traj = integrate(field, rec.z0, sys_.t0, sys_.t0 + sys_.span,
                             newton_tol, switches=switches)
            ts = np.arange(sys_.t0, sys_.t0 + sys_.span + 0.5 * stride, stride)
            ts[-1] = min(ts[-1], sys_.t0 + sys_.span)
            _write_csv(traj_dir / f"class_{cls}.csv",
                       ["t"] + [f"z_{i + 1}" for i in range(sys_.dim)],
                       [[t] + list(traj.query(t)) for t in ts])

    section = {
        "n_classes": result.partition.n_classes,
        "stats": result.stats,
        "records": [
            {"class": cls,
             **({"x0": list(r.x0_normalized), "y0": list(r.y0),
                 "w0": list(r.w0), "turns": r.turns}
                if cfg.mode == "periodic" else
                {"x_a": list(r.x_a_normalized), "u_a": r.u_a}),
             "residual": r.residual, "iterations": r.iterations}
            for cls, r in enumerate(result.records)],
    }
    return section, result


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="hamshoot", description=__doc__.split("\n")[0])
    p.add_argument("subcommand",
                   choices=["periods", "classify", "check-conditions", "ll",
                            "solve-periodic", "solve-neumann", "full"])
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
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
        ll_enabled = ((cfg.conditions or {}).get("ll", {}) or {}).get("enabled", False)
        if args.subcommand == "ll" or (args.subcommand == "full" and ll_enabled):
            mbar_hint = (results.get("conditions", {}) or {}).get("mbar", {}).get("estimate")
            results["ll"] = _ll_stage(cfg, out_dir, seed, mbar_hint=mbar_hint)
        if args.subcommand in ("solve-periodic", "solve-neumann", "full"):
            want = "periodic" if args.subcommand == "solve-periodic" else \
                "neumann" if args.subcommand == "solve-neumann" else cfg.mode
            if want != cfg.mode:
                print(f"config error: config is {cfg.mode} mode but "
                      f"{args.subcommand} was requested", file=sys.stderr)
                return EXIT_CONFIG
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
    except (ValidationError, SingularMatrixError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG

    results["metadata"]["wall_time_s"] = time.time() - t_start
    results["metadata"]["timestamp_utc"] = datetime.now(timezone.utc).isoformat()
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonify(results), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
