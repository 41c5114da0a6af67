import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from hamshoot import solvers
from hamshoot.config import load_config
from hamshoot.errors import SingularJacobianError
from hamshoot.homogeneous import asymmetric, isotropic
from hamshoot.presets import planar_field_from_expr
from hamshoot.solvers import (MultistartSpec, NeumannStartSpec, SolutionRecord,
                              classify_distinct, classify_distinct_neumann, multistart_neumann,
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


@pytest.mark.parametrize("A, T, offset", [(2.0, 2 * np.pi, 1e-4), (1.0, 2.4 * np.pi, 1e-3),
                                          (4.0, 1.2 * np.pi, 1e-3)])
def test_shoot_converges_to_strongly_hyperbolic_saddle(A, T, offset):
    # at x = pi, Phi - I has singular values ~ e^{sqrt(A) T} > 1e3 and ~ 1, so
    # the stable direction is weak; the full Newton step must still remove the
    # residual along it.  The w block turns 1.5 times over T: nonresonant.
    # (From pi - 0.01 the start is drawn to the orbits of period T instead.)
    sys_ = CoupledSystem(M=1, F=lambda t, w: 1.5 * np.asarray(w, dtype=float),
                         grad_H=_grad_pendulum(A), T=T)
    rec = shoot_periodic(sys_, np.array([np.pi - offset, 0.0, 0.1, 0.05]))
    assert rec.residual < 1e-9
    assert abs(rec.z0[0] - np.pi) < 1e-8
    assert np.max(np.abs(rec.z0[1:])) < 1e-8


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


def test_min_norm_step_on_singular_jacobian_with_nonzero_residual():
    # pendulum block off-solution + identity w-block: J singular; the step
    # drops the w block's null directions and the pendulum block converges
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


def test_both_problems_return_one_record_read_from_z0():
    # a free rotator at rest beside an oscillator whose every orbit has period T
    osc = asymmetric(4, 1)
    rest = CoupledSystem(M=1, F=lambda t, w: np.asarray(osc.grad(w), dtype=float),
                         grad_H=lambda t, x, y: (np.zeros(1), y.copy()), T=1.5 * np.pi,
                         w_kink=True)
    periodic = shoot_periodic(rest, np.array([0.25 + 2 * np.pi, 0.0, 0.4, 0.0]))
    neumann = shoot_neumann(_neumann_oscillator((0.0, np.pi)), (np.array([0.2 - 2 * np.pi]), 0.7))
    for rec in (periodic, neumann):
        assert type(rec) is SolutionRecord and rec.M == 1
        assert np.array_equal(rec.x0_normalized, np.mod(rec.z0[:1], 2 * np.pi))
        assert 0.0 <= rec.x0_normalized[0] < 1.0 < abs(rec.z0[0])
        assert np.shares_memory(rec.y0, rec.z0) and np.array_equal(rec.y0, rec.z0[1:2])
        assert np.shares_memory(rec.w0, rec.z0) and np.array_equal(rec.w0, rec.z0[2:])
    assert periodic.turns == 1
    assert neumann.turns is None
    assert neumann.y0[0] == neumann.w0[1] == 0.0 and neumann.w0[0] == pytest.approx(0.7)
    assert not hasattr(solvers, "PeriodicSolutionRecord")
    assert not hasattr(solvers, "NeumannSolutionRecord")


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
    return SolutionRecord(z0=z0, residual=residual, iterations=1, M=x.size)


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
    return SolutionRecord(z0=z0, residual=residual, iterations=1, M=x.size)


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


def test_one_point_on_an_axis_is_its_centre():
    spec = MultistartSpec(x_points=1, y_ranges=((-1.0, 3.0),), y_points=1,
                          w_radii=(0.0,))
    assert [list(z) for z in spec.starts(1)] == [[0.0, 1.0, 0.0, 0.0]]
    spec = NeumannStartSpec(x_points=1, u_range=(-1.0, 3.0), u_points=1)
    assert [(list(x), u) for x, u in spec.starts(1)] == [([0.0], 1.0)]


def test_jitter_moves_every_start_by_seed():
    spec = MultistartSpec(x_points=2, y_ranges=((-1.0, 1.0),), y_points=2,
                          w_radii=(0.5,), w_angles=2)
    exact = np.array(list(spec.starts(1, seed=3)))
    grid = [[x, y, *w] for x in (0.0, np.pi) for y in (-1.0, 1.0)
            for w in ((0.5, 0.0), (0.5 * np.cos(np.pi), 0.5 * np.sin(np.pi)))]
    assert np.array_equal(exact, grid)
    jittered = MultistartSpec(**{**spec.__dict__, "jitter": 0.01})
    a = np.array(list(jittered.starts(1, seed=3)))
    assert np.array_equal(a, np.array(list(jittered.starts(1, seed=3))))
    b = np.array(list(jittered.starts(1, seed=4)))
    assert a.shape == b.shape == exact.shape
    assert np.all(np.any(a != b, axis=1))
    assert np.all(a != exact) and np.max(np.abs(a - exact)) < 0.1


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
        assert rec.w0[0] == pytest.approx(ua)  # family member preserved


def _demo_module(name):
    path = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"demo_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ua", [0.8, -0.5, 2.0, -1.25, 0.35, 1.6])
def test_demo_family_start_keeps_its_member(ua):
    # demos/05's family part: the oscillator on [0, pi], where every u(a)
    # solves, beside a pendulum x block that needs Newton steps from x(a) = 0.2.
    # J sees the family coordinate only as flow noise, so it must not move
    fam = _demo_module("05_neumann_problem").oscillator_system((0.0, np.pi))
    rec = shoot_neumann(fam, (np.array([0.2]), ua), newton_tol=1e-9)
    assert rec.iterations > 0
    assert rec.residual <= 1e-9
    assert abs(rec.w0[0] - ua) <= 1e-8


def test_periodic_family_start_keeps_its_member():
    # every orbit of asymmetric(4, 1) has period 1.5 pi = T: a family in w,
    # beside a pendulum x block that needs Newton steps
    osc = asymmetric(4, 1)
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.asarray(osc.grad(w), dtype=float),
                         grad_H=lambda t, x, y: (2 * np.sin(x), y.copy()), T=1.5 * np.pi,
                         w_kink=True)
    rec = shoot_periodic(sys_, np.array([0.25, 0.1, 0.4, 0.0]))
    assert rec.iterations > 0 and rec.residual <= 1e-9
    assert np.max(np.abs(rec.w0 - [0.4, 0.0])) <= 1e-8
    assert rec.turns == 1


def _with_singular_values(sigma, seed):
    """(J, U, V) with J = U diag(sigma) V^T for random orthogonal U and V."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return U @ np.diag(sigma) @ V.T, U, V


def test_min_norm_step_has_no_component_along_a_dropped_direction():
    J, U, V = _with_singular_values([5.0, 1.0, 1e-12], seed=3)
    R = np.random.default_rng(4).standard_normal(3)
    steps, cond = solvers._min_norm_steps(J, R, noise=1e-9)
    assert len(steps) == 1
    delta = steps[0]
    assert abs(V[:, 2] @ delta) <= 1e-12 * np.linalg.norm(delta)
    # along the kept directions it is the Newton step
    assert np.allclose(U[:, :2].T @ (J @ delta), -U[:, :2].T @ R, rtol=0.0, atol=1e-12)
    assert cond == pytest.approx(5e12, rel=1e-3)


def test_min_norm_step_is_the_newton_step_on_a_well_conditioned_jacobian():
    J, _, _ = _with_singular_values([3.0, 2.0, 1.0, 0.5], seed=5)
    R = np.random.default_rng(6).standard_normal(4)
    steps, cond = solvers._min_norm_steps(J, R, noise=1e-9)
    ref = np.linalg.solve(J, -R)
    assert len(steps) == 1
    assert np.linalg.norm(steps[0] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert cond == pytest.approx(6.0)


@pytest.mark.parametrize("weak_share", [0.1, 0.9])
def test_weak_direction_is_dropped_first_unless_it_holds_most_of_the_residual(weak_share):
    # sigma = 1e-4 is weak (below 1e-3 sigma_max) but far above the noise: J is
    # nonsingular, and the full Newton step is always one of the two tried
    J, U, V = _with_singular_values([2.0, 1.0, 1e-4], seed=7)
    R = U @ np.array([np.sqrt(1 - weak_share**2), 0.0, weak_share])
    steps, cond = solvers._min_norm_steps(J, R, noise=1e-9)
    strong, full = steps if weak_share < 0.5 else steps[::-1]
    assert abs(V[:, 2] @ strong) <= 1e-12 * np.linalg.norm(strong)
    ref = np.linalg.solve(J, -R)
    assert np.linalg.norm(full - ref) <= 1e-10 * np.linalg.norm(ref)  # cond 2e4 x eps
    assert cond == pytest.approx(2e4)


def test_neumann_zero_planar_field_singular_in_x():
    sys_ = CoupledSystem(M=1, F=_zero_field(),
                         grad_H=lambda t, x, y: (np.zeros(1), y.copy()),
                         interval=(0.0, 1.0))
    rec = shoot_neumann(sys_, (np.array([2.0]), 0.0))
    assert rec.residual < 1e-12
    assert rec.z0[:1][0] == pytest.approx(2.0)


def test_neumann_nonresonant_interval_forces_zero_oscillator():
    sys_ = _neumann_oscillator((0.0, 1.0))
    result = multistart_neumann(sys_, NeumannStartSpec(x_points=10, u_points=5),
                                newton_tol=1e-9)
    assert result.stats["attempted"] == 50
    assert result.stats["converged"] == 50
    assert all(abs(r.w0[0]) < 1e-9 for r in result.all_records)
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
    xs = sorted(r.x0_normalized[0] for r in result.records)
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


# bench/checks.py's _STALL, which classifies stalled starts by this message
_STALL = re.compile(r"stalled at residual ([0-9.eE+-]+) \(cond ~ ([0-9.eE+-]+)\)")


def test_multistart_counts_singular_stalls():
    # a constant F = (1, 0) moves w by (0, -T) from every start, and Phi - I = 0:
    # every singular value is dropped, the step is 0, so the search stalls
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.array([1.0, 0.0]), T=1.0)
    assert _failed_starts(sys_, MultistartSpec(w_radii=(0.5,), w_angles=2)) == \
        {"attempted": 2, "singular_stall": 2}
    with pytest.raises(SingularJacobianError) as err:
        shoot_periodic(sys_, np.array([0.5, 0.0]))
    assert str(err.value).endswith("stalled at residual 1.000e+00 (cond ~ inf)")
    # u' = 1 + 5e-10 u: the u direction of Phi - I is below the noise of a fine
    # flow (10 x 1e-10), so no step removes the residual along it; the search
    # stalls at a finite cond that the bench's message reads
    for z in ([0.5, 0.0], [0.5, 0.3]):
        with pytest.raises(SingularJacobianError) as err:
            shoot_periodic(_drift_system(5e-10), np.array(z))
        m = _STALL.search(str(err.value))
        assert m is not None, str(err.value)
        assert float(m.group(1)) == pytest.approx(1.0, rel=1e-4)
        assert float(m.group(2)) >= 1e9


def _drift_system(eps):
    """u' = 1 + eps u, v' = ln(2) v: Phi - I = diag(eps, 1), root at u = -1 / eps."""
    lam = np.log(2.0)
    return CoupledSystem(M=0, F=lambda t, w: np.array([-lam * w[1], 1.0 + eps * w[0]]), T=1.0)


@pytest.mark.parametrize("z", [[0.5, 0.0], [0.5, 0.3]])
def test_weak_direction_above_the_noise_converges(z):
    # sigma = 1e-5 is weak (below 1e-3 sigma_max) and holds all of the residual:
    # the full Newton step reaches the isolated root.  From (0.5, 0) the first,
    # coarse flow puts it at its noise level (10 x 1e-6): no coarse step exists,
    # and the step is taken from a fine re-evaluation
    rec = shoot_periodic(_drift_system(1e-5), np.array(z))
    assert rec.residual <= 1e-9
    assert rec.w0 == pytest.approx([-1e5, 0.0], rel=0.0, abs=1e-6)


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


# ---------------------------------------------------------------------------
# flow tolerances: coarse until the coarse noise floor or a coarse stall, then fine
# ---------------------------------------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]
_SOLVE_CONFIGS = ["demos/configs/pendulum_oscillator.yaml", "bench/configs/neumann_expr_ll.yaml"]


def _record_newton_flows(monkeypatch, sys_):
    """Record every variational flow of ``sys_``: (tolerance, start state, |R|)."""
    flows = []
    n = sys_.dim

    def integrate(f, z0, t0, t1, tol, *args, _orig=solvers.integrate, **kwargs):
        traj = _orig(f, z0, t0, t1, tol, *args, **kwargs)
        if len(z0) > n:
            z = np.array(z0[:n])
            flows.append((tol, z, float(np.linalg.norm(solvers._defect(sys_, z,
                                                                        traj.ys[-1][:n])))))
        return traj

    monkeypatch.setattr(solvers, "integrate", integrate)
    return flows


def _shoot_each(cfg, monkeypatch):
    """Shoot from every start of ``cfg``: per start, the record and its flows."""
    sys_ = cfg.system
    periodic = sys_.mode == "periodic"
    spec = cfg.multistart if periodic else cfg.neumann_multistart
    shoot = shoot_periodic if periodic else shoot_neumann
    flows = _record_newton_flows(monkeypatch, sys_)
    out = []
    for guess in spec.starts(sys_.M, seed=cfg.seed):
        flows.clear()
        out.append((shoot(sys_, guess, newton_tol=cfg.newton_tol, max_iter=cfg.max_iter),
                    list(flows)))
    return out


def _check_flow_rule(rec, flows, newton_tol):
    """Check one start's flows against the phase rule of ``solvers._newton``.

    Replays the Armijo test of the coarse phase to find its iterates.  Returns
    (switch, near): what ended the coarse phase, "floor" or "stall", and the
    number of coarse trials taken from an iterate below 1e-2.
    """
    fine = solvers._FLOW_TOL_RATIO * newton_tol
    coarse = max(fine, solvers._COARSE_FLOW_TOL)
    floor = solvers._NOISE_RATIO * coarse
    # a coarse prefix, then a fine suffix that holds the accepted residual
    k = sum(tol == coarse for tol, _, _ in flows)
    assert k >= 1 and [tol for tol, _, _ in flows] == [coarse] * k + [fine] * (len(flows) - k)
    tol, z, nR = flows[-1]
    assert tol == fine and np.array_equal(z, rec.z0) and nR == rec.residual
    # no iterate before the switch is at the floor; trials from it run coarse
    (_, z_it, n_it), trials, near = flows[0], 0, 0
    for _, z, nR in flows[1:k]:
        assert n_it > floor
        near += n_it < 1e-2
        alpha = 0.5 ** (trials % solvers._MAX_BACKTRACKS)
        if nR <= (1.0 - solvers._ARMIJO_C * alpha) * n_it:
            z_it, n_it, trials = z, nR, 0
        else:
            trials += 1
    # the first fine flow re-evaluates the last coarse iterate, which is at its
    # noise floor or was left by every step it had
    assert np.array_equal(flows[k][1], z_it)
    if n_it <= floor:
        assert trials == 0
        return "floor", near
    assert trials % solvers._MAX_BACKTRACKS == 0
    return "stall", near


@pytest.mark.parametrize("config", _SOLVE_CONFIGS)
def test_coarse_far_flows_give_the_classes_of_fine_flows(config, monkeypatch):
    cfg = load_config(_ROOT / config)
    mixed, near = [], 0
    for rec, flows in _shoot_each(cfg, monkeypatch):
        near += _check_flow_rule(rec, flows, cfg.newton_tol)[1]
        mixed.append(rec)
    # the coarse phase ends at no fixed residual: some start takes coarse
    # trials from an iterate below 1e-2
    assert near >= 1
    monkeypatch.setattr(solvers, "_COARSE_FLOW_TOL", 0.0)   # every flow fine
    fine = [rec for rec, _ in _shoot_each(cfg, monkeypatch)]
    scale = max(float(np.max(np.abs(r.z0))) for r in mixed + fine)
    tol = 1e-6 * (1.0 + scale)     # the class tolerance of a multistart
    a, b = classify_distinct(mixed, tol), classify_distinct(fine, tol)
    assert np.array_equal(a.labels, b.labels)
    for r, s in zip(mixed, fine):
        assert r.residual <= cfg.newton_tol and s.residual <= cfg.newton_tol
        # the demo's nonconstant class lies on a near-continuum (singular
        # Phi - I), along which its representative may slide
        move = np.max(np.abs(solvers._wrap_x(r.z0 - s.z0, cfg.M)))
        assert move <= (1e-4 if getattr(r, "turns", None) else tol)


def test_stall_hands_the_coarse_state_to_a_fine_flow(monkeypatch):
    # u' = 1 + 5e-10 u from u = 0.5: the residual lies along the direction that
    # both noise levels drop, so the coarse flow has no step, its state is
    # re-evaluated fine once, and only that stall raises
    sys_ = _drift_system(5e-10)
    flows = _record_newton_flows(monkeypatch, sys_)
    with pytest.raises(SingularJacobianError, match="stalled at residual"):
        shoot_periodic(sys_, np.array([0.5, 0.0]))
    assert [tol for tol, _, _ in flows] == [solvers._COARSE_FLOW_TOL,
                                            solvers._FLOW_TOL_RATIO * 1e-9]
    assert np.array_equal(flows[0][1], flows[1][1])


def test_start_on_a_family_member_keeps_its_place(monkeypatch):
    # the coarse first flow alone leaves a residual above newton_tol; the fine
    # re-evaluation accepts the start as it is
    sys_ = _neumann_oscillator((0.0, np.pi))
    flows = _record_newton_flows(monkeypatch, sys_)
    rec = shoot_neumann(sys_, (np.array([0.3]), 0.7), newton_tol=1e-9)
    assert flows[0][2] > 1e-9
    assert _check_flow_rule(rec, flows, 1e-9)[0] == "floor" and len(flows) == 2
    assert rec.iterations == 0
    assert rec.z0[:1][0] == 0.3 and rec.w0[0] == 0.7


def test_demo_newton_flow_counts(monkeypatch):
    # the Newton flows of the demo's 8 starts: every flow, line-search trials
    # included, stays coarse until the coarse noise floor or a coarse stall
    cfg = load_config(_ROOT / "demos/configs/pendulum_oscillator.yaml")
    n, nfev = cfg.system.dim, []

    def integrate(f, z0, *args, _orig=solvers.integrate, **kwargs):
        traj = _orig(f, z0, *args, **kwargs)
        if len(z0) > n:
            nfev.append(traj.stats.nfev)
        return traj

    monkeypatch.setattr(solvers, "integrate", integrate)
    res = multistart_periodic(cfg.system, cfg.multistart, newton_tol=cfg.newton_tol,
                              max_iter=cfg.max_iter, seed=cfg.seed)
    assert res.stats["attempted"] == res.stats["converged"] == 8
    assert (len(nfev), sum(nfev)) == (66, 16212)


def test_neumann_bench_config_records_revalidate():
    cfg = load_config(_ROOT / "bench/configs/neumann_expr_ll.yaml")
    res = multistart_neumann(cfg.system, cfg.neumann_multistart, newton_tol=cfg.newton_tol,
                             max_iter=cfg.max_iter, seed=cfg.seed)
    assert res.stats["converged"] == res.stats["attempted"] == 12
    for r in res.all_records:
        assert revalidate(cfg.system, r) <= cfg.newton_tol
