"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (the PASS lines below also print with ``-s``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hamshoot
from hamshoot.conditions import ResonanceTag, classify_resonance, scalar_ll
from hamshoot.dynamics import integrate
from hamshoot.expr import eval_expr, grad_expr, parse_expr
from hamshoot.homogeneous import (AsymmetricParams, asym_period, asymmetric,
                                  check_homogeneous, half_periods, isotropic,
                                  minimal_period)
from hamshoot.presets import planar_field_from_expr
from hamshoot.solvers import (MultistartSpec, NeumannStartSpec, multistart_neumann,
                              multistart_periodic, revalidate, shoot_neumann)
from hamshoot.systems import (CoupledSystem, DecompositionData, assemble_field,
                              build_cutoff, modify_system, validate_decomposition,
                              variational)

GRID = (0.25, 1.0, 4.0, 9.0)


def _ok(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


# ---------------------------------------------------------------------------

def test_criterion_01_period_formula():
    """tau = pi/sqrt(mu) + pi/sqrt(nu) vs quadrature, 16 pairs, < 1e-10 rel, < 1 s."""
    t0 = time.time()
    worst = 0.0
    for mu in GRID:
        for nu in GRID:
            tau_q = minimal_period(asymmetric(mu, nu))
            tau_cf = asym_period(AsymmetricParams(mu, nu))
            worst = max(worst, abs(tau_q - tau_cf) / tau_cf)
    elapsed = time.time() - t0
    assert worst < 1e-10, f"worst relative error {worst:.2e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _ok(1, f"16 period pairs, worst rel err {worst:.1e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_half_period_identity():
    """tau+ + tau- = tau within 1e-10; v-even Hamiltonians have tau+ = tau-."""
    worst_sum = worst_sym = 0.0
    for mu in GRID:
        for nu in GRID:
            H = asymmetric(mu, nu)
            hp = half_periods(H)
            tau = minimal_period(H)
            worst_sum = max(worst_sum, abs(hp.total - tau))
            worst_sym = max(worst_sym, abs(hp.tau_plus - hp.tau_minus))
    assert worst_sum < 1e-10
    assert worst_sym < 1e-10  # H is even in v
    _ok(2, f"half-period sum gap {worst_sum:.1e}, symmetry gap {worst_sym:.1e}")


def test_criterion_03_structural_suite():
    """Euler/homogeneity residuals < 1e-8 on 1000 samples; grad vs FD < 1e-6."""
    families = [isotropic(), asymmetric(4, 1), asymmetric(9, 4),
                asymmetric(1, 1), asymmetric(0.25, 9)]
    for H in families:
        rep = check_homogeneous(H, 1000, 1e-8)
        assert rep.passed, (H.label, rep)
        assert rep.max_euler_residual < 1e-8
        assert rep.max_homogeneity_residual < 1e-8

    rng = np.random.default_rng(7)
    smooth = ["sin", "cos", "exp", "atan"]

    def rand_expr(depth=0):
        r = rng.random()
        if depth >= 3 or r < 0.3:
            return f"{rng.uniform(0.2, 2.0):.6f}" if rng.random() < 0.5 \
                else rng.choice(["a", "b", "c"])
        if r < 0.55:
            return f"{rng.choice(smooth)}({rand_expr(depth + 1)})"
        if r < 0.65:
            return f"({rand_expr(depth + 1)})^{rng.integers(1, 4)}"
        return f"({rand_expr(depth + 1)} {rng.choice(['+', '-', '*'])} {rand_expr(depth + 1)})"

    names = ("a", "b", "c")
    worst = 0.0
    for _ in range(100):
        e = parse_expr(rand_expr())
        b = dict(zip(names, rng.uniform(-1.5, 1.5, 3)))
        g = grad_expr(e, names, b)
        fd = np.empty(3)
        h = 1e-6
        for i, nm in enumerate(names):
            bp, bm = dict(b), dict(b)
            bp[nm] += h
            bm[nm] -= h
            fd[i] = (eval_expr(e, bp) - eval_expr(e, bm)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))))
    assert worst < 1e-6
    _ok(3, f"5 families x 1000 samples clean; 100 gradients, worst rel gap {worst:.1e}")


def test_criterion_04_resonance_classifier_table():
    """12 hand-made cases (3 per regime, exact boundaries, tol 1e-12) + scaling."""
    table = [
        ((2.5, 2.1, 6.0), ResonanceTag.NONRESONANT, 2),
        ((1.5 * np.pi, 1.5 * np.pi, 2 * np.pi), ResonanceTag.NONRESONANT, 1),
        ((5.9, 3.1, 6.0), ResonanceTag.NONRESONANT, 1),
        ((3.0, 2.5, 6.0), ResonanceTag.SIMPLE_BELOW, 2),
        ((2 * np.pi, 5.0, 4 * np.pi), ResonanceTag.SIMPLE_BELOW, 2),
        ((1.0, 0.9, 3.0), ResonanceTag.SIMPLE_BELOW, 3),
        ((2.5, 2.0, 6.0), ResonanceTag.SIMPLE_ABOVE, 2),
        ((2.0, 2.0, 6.0), ResonanceTag.SIMPLE_ABOVE, 2),
        ((0.6 * np.pi, 0.5 * np.pi, 2 * np.pi), ResonanceTag.SIMPLE_ABOVE, 3),
        ((3.0, 2.0, 6.0), ResonanceTag.DOUBLE, 2),
        ((2 * np.pi, np.pi, 2 * np.pi), ResonanceTag.DOUBLE, 1),
        ((1.0, 0.75, 3.0), ResonanceTag.DOUBLE, 3),
    ]
    for (t1, t2, T), tag, N in table:
        for c in (1.0, 0.1, 10.0):
            rc = classify_resonance(c * t1, c * t2, c * T, tol=1e-12)
            assert rc.tag is tag and rc.N == N, ((t1, t2, T), c, rc)
    _ok(4, "12 cases classified correctly, scale-invariant under c in {0.1, 10}")


def test_criterion_05_landesman_lazer_benchmark():
    """scalar atan margin = 4c within 2% numerically, within 1e-4 with asymptotes."""
    for c in (0.5, 1.0, 2.0):
        g = lambda ts, u, c=c: u + c * (2 / np.pi) * np.arctan(u)
        rep = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0)
        assert abs(rep.min_margin - 4 * c) / (4 * c) < 0.02, (c, rep.min_margin)
        rep_a = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0,
                          asymptotes=(lambda ts: np.full_like(ts, c),
                                      lambda ts: np.full_like(ts, c)))
        assert abs(rep_a.min_margin - 4 * c) < 1e-4, (c, rep_a.min_margin)
    _ok(5, "margins 4c reproduced for c in {0.5, 1, 2}")


def _zero_grad_Q(t, w):
    """grad Q = 0, taking and returning points (2,) or stacked (2, k) as F does."""
    return np.zeros_like(w, dtype=float)


def _corollary_system(eps=0.1):
    """Pendulum (A=1, no forcing) + asymmetric oscillator (4,1), P = eps sin x sin u."""
    H41 = asymmetric(4.0, 1.0)

    def grad_H(t, x, y):
        return (np.array([np.sin(x[0])]), np.array([y[0]]))

    def F(t, w):
        return np.asarray(H41.grad(w), dtype=float)

    def grad_P(t, x, y, w):
        return (np.array([eps * np.cos(x[0]) * np.sin(w[0])]),
                np.zeros(1),
                np.array([eps * np.sin(x[0]) * np.cos(w[0]), 0.0]))

    return CoupledSystem(M=1, F=F, grad_H=grad_H, grad_P=grad_P, T=2 * np.pi,
                         w_kink=True,
                         decomposition=DecompositionData(
                             H41, H41, _zero_grad_Q))


def test_corollary_decomposition_takes_points_as_F_does():
    # H1 = H2 = H41 and grad Q = 0: F is its own decomposition and its own cutoff
    # modification, on one point and on stacked points inside, across and
    # beyond the cutoff annulus [rho, rho^3]
    sys_ = _corollary_system()
    assert validate_decomposition(sys_).passed
    w = np.array([[0.5, -5.0, 0.0], [0.0, 0.0, 40.0]])
    F_rho = modify_system(sys_, 3.0).F
    stacked = F_rho(0.0, w)
    assert stacked.shape == w.shape
    for k in range(w.shape[1]):
        assert np.array_equal(stacked[:, k], F_rho(0.0, w[:, k]))
    assert np.allclose(stacked, sys_.F(0.0, w), rtol=1e-12, atol=0.0)


def test_criterion_06_multiplicity_desk_scale():
    """M=1 coupled instance: >= 2 distinct classes, residuals < 1e-9, < 120 s."""
    sys_ = _corollary_system()
    # nonresonant window check: pi < 3 pi/2 < 2 pi with N = 1
    rc = classify_resonance(1.5 * np.pi, 1.5 * np.pi, 2 * np.pi)
    assert rc.tag is ResonanceTag.NONRESONANT and rc.N == 1
    t0 = time.time()
    spec = MultistartSpec(x_points=4, y_ranges=((-0.6, 0.6),), y_points=1,
                          w_radii=(0.25,), w_angles=2, budget=2000)
    result = multistart_periodic(sys_, spec, newton_tol=1e-9)
    elapsed = time.time() - t0
    assert result.stats["attempted"] <= 2000
    assert result.partition.n_classes >= 2, result.stats
    assert result.all_records, "no converged records"
    worst = max(r.residual for r in result.all_records)
    assert worst < 1e-9
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    for r in result.all_records:
        assert revalidate(sys_, r) <= 1e-9
    _ok(6, f"{result.partition.n_classes} distinct classes from "
           f"{result.stats['attempted']} starts, worst residual {worst:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_07_cutoff_construction():
    """Cutoff boundary values exact, derivative bound with margin >= 0,
    modified field identical inside rho and averaged outside rho^3."""
    for rho in (3.0, 10.0, 100.0):
        prof = build_cutoff(rho)
        assert prof.eta(rho) == 1.0
        assert prof.eta(rho ** 3) == 0.0
        xi = np.exp(np.linspace(np.log(rho), np.log(rho ** 3), 1000))
        d = prof.eta_prime(xi)
        margin = d - (-1.0 / (xi * np.log(xi)))
        assert np.all(d <= 0.0)
        assert np.all(margin >= 0.0), margin.min()

    H1, H2 = asymmetric(4, 1), asymmetric(9, 4)
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.asarray(H1.grad(w), dtype=float),
                         T=2 * np.pi,
                         decomposition=DecompositionData(H1, H2, _zero_grad_Q))
    rho = 5.0
    mod_sys = modify_system(sys_, rho)
    rng = np.random.default_rng(11)
    for _ in range(100):
        ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.01, rho)
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        assert np.array_equal(mod_sys.F(0.2, w), np.asarray(sys_.F(0.2, w), dtype=float))
    worst = 0.0
    for _ in range(100):
        ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(rho ** 3, 10 * rho ** 3)
        w = np.array([r * np.cos(ang), r * np.sin(ang)])
        avg = 0.5 * (np.asarray(H1.grad(w), dtype=float) + np.asarray(H2.grad(w), dtype=float))
        worst = max(worst, float(np.max(np.abs(mod_sys.F(0.0, w) - avg))
                                 / max(1.0, np.max(np.abs(avg)))))
    assert worst <= 1e-12
    _ok(7, f"rho in {{3, 10, 100}} bound margins >= 0; field identity/average exact "
           f"(outer rel gap {worst:.1e})")


def test_criterion_08_flow_jacobian_cross_validation():
    """Variational time-T monodromy vs a central-difference oracle on the pendulum < 1e-5."""
    F, _, _ = planar_field_from_expr(K_src="0.5*v^2 - cos(u)")
    pend = CoupledSystem(M=0, F=F, T=2 * np.pi)   # u' = v, v' = -sin u
    field = assemble_field(pend)
    aug = variational(pend, [0, 1])   # the fused compiled function that shooting integrates

    def flow(z):
        return integrate(field, z, 0.0, 2 * np.pi, 1e-12, dense=False).ys[-1]

    worst = 0.0
    for z0 in (np.array([0.7, 0.3]), np.array([2.5, -0.4]), np.array([0.0, 1.1])):
        monodromy = integrate(aug, np.r_[z0, np.eye(2).ravel()], 0.0, 2 * np.pi, 1e-12,
                              dense=False).ys[-1][2:].reshape(2, 2)
        oracle = np.empty((2, 2))
        for j in range(2):
            d = np.zeros(2)
            d[j] = 1e-6 * (1.0 + abs(z0[j]))
            oracle[:, j] = (flow(z0 + d) - flow(z0 - d)) / (2 * d[j])
        worst = max(worst, float(np.max(np.abs(monodromy - oracle))))
    assert worst < 1e-5
    _ok(8, f"worst variational-vs-FD entry gap {worst:.1e}")


def test_criterion_09_neumann_modes():
    """Half-period interval: singular family without crash; nonresonant
    interval: only the zero oscillator solution from 50 starts."""
    iso = isotropic()

    def osc(interval):
        return CoupledSystem(M=1, F=lambda t, w: np.asarray(iso.grad(w), dtype=float),
                             grad_H=lambda t, x, y: (np.zeros(1), y.copy()),
                             interval=interval)

    fam = osc((0.0, np.pi))
    for ua in (0.7, -0.4, 1.5):
        rec = shoot_neumann(fam, (np.array([0.3]), ua), newton_tol=1e-9)
        assert rec.residual < 1e-9
        assert rec.w0[0] == pytest.approx(ua)  # the family member is kept

    iso_sys = osc((0.0, 1.0))
    result = multistart_neumann(iso_sys, NeumannStartSpec(x_points=10, u_points=5),
                                newton_tol=1e-9)
    assert result.stats["attempted"] == 50
    assert result.stats["converged"] == 50
    worst_u = max(abs(r.w0[0]) for r in result.all_records)
    worst_res = max(r.residual for r in result.all_records)
    assert worst_u < 1e-9
    assert worst_res < 1e-9
    assert any(r.iterations > 0 for r in result.all_records)  # Newton actually moved
    _ok(9, f"singular family kept; 50/50 nonresonant starts -> u = 0 "
           f"(worst |u| {worst_u:.1e}, worst residual {worst_res:.1e})")


DETERMINISM_CONFIG = """
mode: periodic
M: 1
T: 6.283185307179586
seed: 0
hamiltonian: {preset: pendulum, A: 1.0}
planar: {preset: asymmetric, mu1: 4.0, nu1: 1.0}
coupling: {expr: "0.1*sin(x)*sin(u)"}
solver:
  newton_tol: 1.0e-9
  multistart:
    x_points: 2
    y_ranges: [[-0.5, 0.5]]
    y_points: 1
    w_radii: [0.2]
    w_angles: 2
"""


def test_criterion_10_determinism(tmp_path):
    """Two `full` runs with identical config + seed: solutions.csv byte-identical."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(DETERMINISM_CONFIG)
    # the CLI subprocesses import the hamshoot this test process imported
    src = str(Path(hamshoot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "hamshoot.cli", "full",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    b0 = (outs[0] / "solutions.csv").read_bytes()
    b1 = (outs[1] / "solutions.csv").read_bytes()
    assert b0 == b1
    data = json.loads((outs[0] / "results.json").read_text())
    assert data["summary"]["meets_bound"] is True
    _ok(10, f"solutions.csv byte-identical across runs ({len(b0)} bytes)")
