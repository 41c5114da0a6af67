"""The three workloads: one pass each, and the outputs their checks read.

* ``periodic-demo``: ``hamshoot full`` in-process on a copy of the demo
  config (periodic problem, twist check on, expression coupling);
* ``periodic-numpy``: the same system as hand-written numpy callables,
  driven through the library without ``expr``, ``config`` or ``cli``;
* ``neumann-expr-ll``: ``hamshoot full`` on a Neumann config whose blocks
  are all expressions, with the Landesman-Lazer (LL) stage on.

Module attributes are looked up at call time (``solvers.multistart_periodic``
rather than an imported name) so the tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

import numpy as np
from hamshoot import cli, conditions, config, homogeneous, solvers, systems

import checks

# periodic-numpy mirrors the demo config and the cli's defaults
T = 2 * np.pi
SPEC = solvers.MultistartSpec(x_points=4, y_ranges=((-0.6, 0.6),), y_points=1,
                              w_radii=(0.25,), w_angles=2, budget=2000)
LAMBDAS = np.logspace(2.0, 6.0, 9)


def corollary_system(eps=checks.EPS):
    """Pendulum (A=1, no forcing) + asymmetric oscillator (4,1), P = eps sin x sin u.

    A copy of ``_corollary_system`` in tests/test_acceptance.py.
    """
    H41 = homogeneous.asymmetric(4.0, 1.0)

    def grad_H(t, x, y):
        return (np.array([np.sin(x[0])]), np.array([y[0]]))

    def F(t, w):
        return np.asarray(H41.grad(w), dtype=float)

    def grad_P(t, x, y, w):
        return (np.array([eps * np.cos(x[0]) * np.sin(w[0])]),
                np.zeros(1),
                np.array([eps * np.sin(x[0]) * np.cos(w[0]), 0.0]))

    return systems.CoupledSystem(M=1, F=F, grad_H=grad_H, grad_P=grad_P, T=T,
                                 w_kink=True,
                                 decomposition=systems.DecompositionData(
                                     H41, H41, lambda t, w: np.zeros(2)))


def setup(name, cfg_path):
    """Load the config and build the system (hamshoot already imported)."""
    if name == "periodic-numpy":
        return corollary_system()
    return config.load_config(cfg_path).system


def run_pass(name, cfg_path, out_dir, seed, tracer):
    """Run one pass; returns a function that gathers the outputs to check."""
    if name == "periodic-numpy":
        return _numpy_pass(seed, tracer)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["full", "--config", str(cfg_path), "--out", str(out_dir)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"hamshoot full exited with {code}: {stdout.getvalue()}")
    return lambda: _cli_outcome(out_dir)


def _numpy_pass(seed, tracer):
    sys_ = corollary_system()
    result = solvers.multistart_periodic(sys_, SPEC, newton_tol=checks.NEWTON_TOL,
                                         max_iter=40, seed=seed)
    H = sys_.decomposition.H1
    with tracer.span("diagnostics.periods"):
        tau = homogeneous.minimal_period(H)
        hp = homogeneous.half_periods(H)
    with tracer.span("diagnostics.classify"):
        rc = conditions.classify_resonance(tau, tau, T, tol=1e-9)
    with tracer.span("diagnostics.mbar"):
        box = conditions.SampleBox(t_range=(0.0, T), x_ranges=((0.0, 2 * np.pi),),
                                   y_ranges=((-1.0, 1.0),),
                                   w_ranges=((-2.0, 2.0), (-2.0, 2.0)))
        mbar = conditions.estimate_mbar(lambda t, x, y, w: sys_.grad_P(t, x, y, w)[2],
                                        box, n_samples=4000, seed=seed)
    with tracer.span("diagnostics.twist"):
        ensemble = [conditions.constant_path([0.0, 0.0])]
        ensemble += conditions.fourier_paths(2, 1.0, 3, T, seed=seed)
        twist = conditions.twist_check(sys_, [[-8.0, 8.0]], [1], ensemble,
                                       x_points=4, y_points=1)
    ll = {}
    with tracer.span("diagnostics.ll"):
        grid = np.linspace(0.0, T, 64, endpoint=False)
        for which, Hw in (("lower", sys_.decomposition.H1), ("upper", sys_.decomposition.H2)):
            orbit = homogeneous.reference_orbit(Hw, tol=1e-10)
            rep = conditions.ll_margin(sys_, which, orbit, theta_grid=grid,
                                       lambda_schedule=LAMBDAS, s_points=5, mbar=mbar,
                                       t_nodes=512)
            ll[which] = [row[:4] for row in rep.rows]

    def outcome():
        return {"mode": "periodic", "span": T,
                "classes": [r.z0 for r in result.records],
                "tau1": tau, "tau2": tau, "tau_plus": hp.tau_plus,
                "tau_minus": hp.tau_minus, "tag": rc.tag.value, "N": rc.N,
                "mbar": mbar, "twist_passed": twist.passed, "ll": ll, "c": 0.0}
    return outcome


def _cli_outcome(out_dir):
    res = json.loads((out_dir / "results.json").read_text())
    periodic = res["metadata"]["mode"] == "periodic"
    classes = []
    for r in res["solutions"]["records"]:
        if periodic:
            classes.append(np.array(r["x0"] + r["y0"] + r["w0"], dtype=float))
        else:
            classes.append(np.array(r["x_a"] + [0.0, r["u_a"], 0.0], dtype=float))
    ll = None
    if "ll" in res:
        ll = {"lower": [], "upper": []}
        with open(out_dir / "ll_margins.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                ll[row["which"]].append(tuple(float(row[k]) for k in
                                              ("theta", "lhs", "rhs", "margin")))
    per = res["periods"]
    twist = res["conditions"].get("twist")
    return {"mode": "periodic" if periodic else "neumann",
            "span": res["resonance"]["span"],   # T, or b - a with a = 0
            "classes": classes,
            "tau1": per["H1"]["tau"], "tau2": per["H2"]["tau"],
            "tau_plus": per["H1"]["tau_plus"], "tau_minus": per["H1"]["tau_minus"],
            "tag": res["resonance"]["tag"], "N": res["resonance"]["N"],
            "mbar": res["conditions"]["mbar"]["estimate"],
            "twist_passed": None if twist is None else twist["passed"],
            "ll": ll, "c": 0.0 if periodic else checks.C_ATAN}


def check(out, converged):
    """All output checks of one pass; returns the list of failures."""
    span_ = out["span"]
    if out["mode"] == "periodic":
        def residual(z0):
            return checks.periodic_residual(z0, span_)
    else:
        def residual(z0):
            return checks.neumann_residual(z0, 0.0, span_)
    bad = checks.check_records(converged, residual)
    bad += checks.self_test(converged[0], residual) if converged else ["no converged record"]
    bad += checks.check_distinct(out["classes"])
    bad += checks.check_periods(out, span_)
    bad += checks.check_mbar(out["mbar"])
    if out["mode"] == "periodic" and out["twist_passed"] is not True:
        bad.append(f"twist check passed = {out['twist_passed']}")
    if out["mode"] == "neumann" and not out["ll"]:
        bad.append("no LL margins")
    if out["ll"]:   # the demo config leaves the LL stage off
        bad += checks.check_ll(out["ll"], out["mbar"], 0.0, span_, out["c"])
    return bad
