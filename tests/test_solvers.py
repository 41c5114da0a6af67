from pathlib import Path

import numpy as np
import pytest

from hamshoot import solvers
from hamshoot.config import load_config
from hamshoot.homogeneous import asymmetric, isotropic
from hamshoot.presets import planar_field_from_expr
from hamshoot.solvers import (MultistartSpec, NeumannSolutionRecord, NeumannStartSpec,
                              PeriodicSolutionRecord, classify_distinct,
                              classify_distinct_neumann, multistart_neumann,
                              multistart_periodic, revalidate, shoot_neumann,
                              shoot_periodic, wrap_angle_diff)
from hamshoot.systems import CoupledSystem


def _grad_pendulum(A=1.0):
    return lambda t, x, y: (np.array([A * np.sin(x[0])]), np.array([y[0]]))


def _iso_field():
    iso = isotropic()
    return lambda t, w: np.asarray(iso.grad(w), dtype=float)


def _zero_field():
    return lambda t, w: np.zeros(2)


PEND = CoupledSystem(M=1, F=_zero_field(), grad_H=_grad_pendulum(), T=2 * np.pi)


def test_wrap_angle_diff():
    assert wrap_angle_diff(np.pi) == pytest.approx(np.pi)
    assert wrap_angle_diff(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle_diff(-0.1) == pytest.approx(-0.1)
    assert wrap_angle_diff(4 * np.pi + 0.3) == pytest.approx(0.3)


def test_shoot_converges_to_stable_equilibrium():
    # A = 2 keeps the linearization at (0,0) nonresonant with T = 2 pi, so the
    # equilibrium is a nondegenerate root of the shooting map
    sys_ = CoupledSystem(M=1, F=_zero_field(), grad_H=_grad_pendulum(2.0), T=2 * np.pi)
    rec = shoot_periodic(sys_, np.array([0.25, 0.1, 0.0, 0.0]))
    assert rec.residual < 1e-9
    assert np.max(np.abs(rec.z0[2:])) < 1e-12  # w block untouched
    assert abs(wrap_angle_diff(rec.z0[0])) < 1e-8
    assert abs(rec.z0[1]) < 1e-8


def test_shoot_converges_to_saddle():
    rec = shoot_periodic(PEND, np.array([np.pi - 0.01, 0.0, 0.0, 0.0]))
    assert rec.residual < 1e-9
    assert abs(rec.z0[0] - np.pi) < 1e-6
    assert abs(rec.z0[1]) < 1e-6


def test_shoot_finds_running_solution_outside_saddle_basin():
    # farther starts converge to rotating orbits: x advances by 2 pi over T,
    # periodic on the cylinder thanks to the angular wrap
    rec = shoot_periodic(PEND, np.array([np.pi + 0.05, 0.0, 0.0, 0.0]))
    assert rec.residual < 1e-9
    assert abs(rec.z0[1]) > 0.1


def test_identity_poincare_map_zero_iterations():
    # linear center with tau = T: every point is periodic, Jacobian singular
    cont = CoupledSystem(M=0, F=_iso_field(), T=2 * np.pi)
    rec = shoot_periodic(cont, np.array([0.37, -0.2]))
    assert rec.iterations == 0
    assert rec.residual < 1e-9


def test_lm_fallback_on_singular_jacobian_with_nonzero_residual():
    # pendulum block off-solution + identity w-block: J singular, LM converges
    mix = CoupledSystem(M=1, F=_iso_field(), grad_H=_grad_pendulum(), T=2 * np.pi)
    rec = shoot_periodic(mix, np.array([0.4, 0.25, 0.3, -0.1]))
    assert rec.residual < 1e-9
    assert rec.iterations > 0


@pytest.mark.parametrize("mode", ["periodic", "neumann"])
def test_record_revalidates_at_tighter_tolerance(mode):
    newton_tol = 1e-9
    if mode == "periodic":
        sys_ = PEND
        rec = shoot_periodic(sys_, np.array([np.pi - 0.08, 0.0, 0.0, 0.0]),
                             newton_tol=newton_tol)
    else:
        sys_ = CoupledSystem(M=1, F=_iso_field(), grad_H=_grad_pendulum(),
                             interval=(0.0, 1.0))
        rec = shoot_neumann(sys_, (np.array([np.pi - 0.08]), 0.3), newton_tol=newton_tol)
    assert rec.iterations > 0
    res_tight = revalidate(sys_, rec)
    assert abs(res_tight - rec.residual) < 10 * newton_tol


def test_winding_recorded_only_away_from_origin():
    # equilibrium solution has w = 0: turns must be absent
    rec = shoot_periodic(PEND, np.array([0.1, 0.0, 0.0, 0.0]))
    assert rec.turns is None
    # nontrivial w on the nonresonant oscillator block
    osc = CoupledSystem(M=0, F=lambda t, w: np.asarray(asymmetric(4, 1).grad(w), dtype=float),
                        T=1.5 * np.pi, w_kink=True)
    rec2 = shoot_periodic(osc, np.array([0.4, 0.0]))
    assert rec2.turns == 1


# ---------------------------------------------------------------------------
# distinctness
# ---------------------------------------------------------------------------

def _record(x, y, w, residual=1e-12):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z0 = np.concatenate([x, np.atleast_1d(y), np.asarray(w, dtype=float)])
    return PeriodicSolutionRecord(z0=z0, residual=residual, iterations=1,
                                  turns=None, x0_normalized=np.mod(x, 2 * np.pi),
                                  M=x.size)


def test_classify_2pi_shift_same_class():
    a = _record(0.3, 0.5, [0.1, 0.2])
    b = _record(0.3 + 2 * np.pi, 0.5, [0.1, 0.2])
    assert classify_distinct([a, b]).n_classes == 1


def test_classify_x_difference_distinct():
    a = _record(0.0, 0.5, [0.1, 0.2])
    b = _record(np.pi, 0.5, [0.1, 0.2])
    assert classify_distinct([a, b]).n_classes == 2


def test_classify_pendulum_equilibria_distinct():
    r0 = shoot_periodic(PEND, np.array([0.05, 0.0, 0.0, 0.0]), newton_tol=1e-8)
    r1 = shoot_periodic(PEND, np.array([np.pi - 0.01, 0.0, 0.0, 0.0]), newton_tol=1e-8)
    part = classify_distinct([r0, r1, r0])
    assert part.n_classes == 2
    assert part.labels[0] == part.labels[2]


def _neumann_record(x, u, residual=1e-12):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z0 = np.concatenate([x, np.zeros(x.size), [u, 0.0]])
    return NeumannSolutionRecord(x_a=x, u_a=u, residual=residual, iterations=1, z0=z0,
                                 x_a_normalized=np.mod(x, 2 * np.pi))


def test_classify_is_equivalence_and_permutation_invariant():
    xs = (0.1, 0.1 - 2 * np.pi, 2.0, 2.0, 0.1 + 4 * np.pi)
    ss = (0.0, 0.0, 0.0, 1.0, 0.0)
    residuals = (3e-12, 1e-12, 2e-12, 1e-12, 2e-12)
    periodic = [_record(x, s, [0, 0], r) for x, s, r in zip(xs, ss, residuals)]
    neumann = [_neumann_record(x, s, r) for x, s, r in zip(xs, ss, residuals)]
    for recs in (periodic, neumann):
        a = classify_distinct(recs)
        assert a.n_classes == 3
        # chained 2pi shifts land in one class (transitivity via union-find)
        assert a.labels[0] == a.labels[1] == a.labels[4]
        assert a.representatives[a.labels[0]] is recs[1]  # smallest residual
        b = classify_distinct(recs[::-1])
        assert b.n_classes == 3
    a, b = classify_distinct(neumann), classify_distinct_neumann(neumann)
    assert np.array_equal(a.labels, b.labels) and a.classes == b.classes
    assert all(r is s for r, s in zip(a.representatives, b.representatives))


def test_multistart_decoupled_product_structure():
    # pendulum x oscillator with tau != T: w-block only returns w = 0
    osc = asymmetric(4, 1)
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.asarray(osc.grad(w), dtype=float),
                         grad_H=_grad_pendulum(), T=2 * np.pi, w_kink=True)
    spec = MultistartSpec(x_points=2, y_ranges=((-0.4, 0.4),), y_points=1,
                          w_radii=(0.2,), w_angles=2)
    result = multistart_periodic(sys_, spec)
    assert result.partition.n_classes >= 2
    assert all(r.residual < 1e-9 for r in result.all_records)
    assert result.stats["attempted"] == 4


def test_multistart_zero_field_every_start_fixed():
    sys_ = CoupledSystem(M=1, F=_zero_field(),
                         grad_H=lambda t, x, y: (np.zeros(1), np.zeros(1)), T=1.0)
    spec = MultistartSpec(x_points=3, y_ranges=((-1.0, 1.0),), y_points=3,
                          w_radii=(0.5,), w_angles=4)
    result = multistart_periodic(sys_, spec)
    assert result.stats["converged"] == result.stats["attempted"] == 36
    assert all(r.iterations == 0 for r in result.all_records)
    assert result.partition.n_classes == 36


def test_multistart_budget_cap():
    spec = MultistartSpec(x_points=10, y_ranges=((-1, 1),), y_points=10,
                          w_radii=(0.5,), w_angles=10, budget=17)
    starts = list(spec.starts(1))
    assert len(starts) == 17


# ---------------------------------------------------------------------------
# Neumann mode
# ---------------------------------------------------------------------------

def _neumann_oscillator(interval):
    return CoupledSystem(M=1, F=_iso_field(),
                         grad_H=lambda t, x, y: (np.zeros(1), y.copy()),
                         interval=interval)


def test_neumann_singular_family_on_half_period_interval():
    # u(t) = c cos t has v(0) = v(pi) = 0 for every c: whole family solves
    sys_ = _neumann_oscillator((0.0, np.pi))
    for ua in (0.7, -0.3, 2.0):
        rec = shoot_neumann(sys_, (np.array([1.0]), ua))
        assert rec.residual < 1e-9
        assert rec.u_a == pytest.approx(ua)  # family member preserved


def test_neumann_zero_planar_field_singular_in_x():
    sys_ = CoupledSystem(M=1, F=_zero_field(),
                         grad_H=lambda t, x, y: (np.zeros(1), y.copy()),
                         interval=(0.0, 1.0))
    rec = shoot_neumann(sys_, (np.array([2.0]), 0.0))
    assert rec.residual < 1e-12
    assert rec.x_a[0] == pytest.approx(2.0)


def test_neumann_nonresonant_interval_forces_zero_oscillator():
    sys_ = _neumann_oscillator((0.0, 1.0))
    result = multistart_neumann(sys_, NeumannStartSpec(x_points=10, u_points=5),
                                newton_tol=1e-9)
    assert result.stats["attempted"] == 50
    assert result.stats["converged"] == 50
    assert all(abs(r.u_a) < 1e-9 for r in result.all_records)
    assert all(r.residual < 1e-9 for r in result.all_records)


def test_neumann_distinctness_x_mod_2pi():
    sys_ = _neumann_oscillator((0.0, 1.0))
    r1 = shoot_neumann(sys_, (np.array([0.5]), 0.0))
    r2 = shoot_neumann(sys_, (np.array([0.5 + 2 * np.pi]), 0.0))
    r3 = shoot_neumann(sys_, (np.array([1.5]), 0.0))
    part = classify_distinct_neumann([r1, r2, r3])
    assert part.n_classes == 2


def test_neumann_pendulum_type_isolated_solutions():
    # pendulum-like x-block with Neumann data: y(a)=0=y(b) picks equilibria
    sys_ = CoupledSystem(M=1, F=_iso_field(), grad_H=_grad_pendulum(),
                         interval=(0.0, 1.0))
    result = multistart_neumann(sys_, NeumannStartSpec(x_points=6, u_points=3),
                                newton_tol=1e-9)
    assert result.partition.n_classes >= 2
    xs = sorted(r.x_a_normalized[0] for r in result.records)
    assert any(abs(x) < 1e-6 or abs(x - 2 * np.pi) < 1e-6 for x in xs)
    assert any(abs(x - np.pi) < 1e-6 for x in xs)


def test_multistart_calls_public_hooks(monkeypatch):
    """Each start and the one classification go through the module attributes
    that instrumentation rebinds."""
    names = ("shoot_periodic", "shoot_neumann", "multistart_periodic",
             "multistart_neumann", "classify_distinct", "classify_distinct_neumann")
    assert len({id(getattr(solvers, n)) for n in names}) == len(names)
    calls = {}
    for name in ("shoot_periodic", "shoot_neumann", "classify_distinct"):
        def counted(*args, _orig=getattr(solvers, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)
    flat = CoupledSystem(M=1, F=_zero_field(),
                         grad_H=lambda t, x, y: (np.zeros(1), np.zeros(1)), T=1.0)
    result = solvers.multistart_periodic(flat, MultistartSpec(
        x_points=2, y_ranges=((-1.0, 1.0),), y_points=1, w_radii=(0.5,), w_angles=2))
    assert result.stats["attempted"] == 4
    assert calls == {"shoot_periodic": 4, "classify_distinct": 1}
    calls.clear()
    result = solvers.multistart_neumann(_neumann_oscillator((0.0, 1.0)),
                                        NeumannStartSpec(x_points=2, u_points=2))
    assert result.stats["attempted"] == 4
    assert calls == {"shoot_neumann": 4, "classify_distinct": 1}


def test_demo_multistart_converges_with_exact_monodromy():
    """The demo config's 8 starts: at least 7 converge, and (pi, 0, 0, 0) is found.

    Each Newton evaluation is one variational flow, which gives the exact
    one-sided monodromy across the u = 0 kink of the asymmetric oscillator.
    """
    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs"
                      / "pendulum_oscillator.yaml")
    res = multistart_periodic(cfg.system, cfg.multistart, newton_tol=cfg.newton_tol,
                              max_iter=cfg.max_iter, seed=cfg.seed)
    assert res.stats["converged"] >= 7
    assert any(np.max(np.abs(wrap_angle_diff(r.z0 - [np.pi, 0.0, 0.0, 0.0]))) < 1e-6
               for r in res.records)
    for r in res.records:
        assert revalidate(cfg.system, r) <= cfg.newton_tol


# ---------------------------------------------------------------------------
# failed starts: each is counted by the reason it failed
# ---------------------------------------------------------------------------

def _failed_starts(sys_, spec, **kw):
    """The nonzero counters of a multistart in which no start converges."""
    result = multistart_periodic(sys_, spec, **kw)
    assert not result.all_records and result.partition.n_classes == 0
    return {k: v for k, v in result.stats.items() if v}


def test_multistart_counts_singular_stalls():
    # a constant F = (1, 0) moves w by (0, -T) from every start, and Phi - I = 0:
    # the LM step is 0, so the line search stalls
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.array([1.0, 0.0]), T=1.0)
    assert _failed_starts(sys_, MultistartSpec(w_radii=(0.5,), w_angles=2)) == \
        {"attempted": 2, "singular_stall": 2}


def test_multistart_counts_integration_failures():
    # u'' = u^3 from u = 3 blows up long before T
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.array([-w[0] ** 3, w[1]]), T=2 * np.pi)
    assert _failed_starts(sys_, MultistartSpec(w_radii=(3.0,), w_angles=1)) == \
        {"attempted": 1, "integration_failure": 1}


def test_multistart_counts_domain_errors():
    # grad_u of (u + 2)^1.5 leaves its domain once u < -2, which the circle of
    # radius 3 about the origin reaches from every start
    F = planar_field_from_expr(K_src="0.5*(u^2 + v^2) + 0.1*(u + 2)^1.5")[0]
    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    assert _failed_starts(sys_, MultistartSpec(w_radii=(3.0,), w_angles=2)) == \
        {"attempted": 2, "domain_error": 2}


def test_multistart_counts_max_iterations():
    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs"
                      / "pendulum_oscillator.yaml")
    assert _failed_starts(cfg.system, cfg.multistart, newton_tol=cfg.newton_tol,
                          max_iter=1, seed=cfg.seed) == {"attempted": 8, "max_iterations": 8}
