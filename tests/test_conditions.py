import itertools
from pathlib import Path

import numpy as np
import pytest

from hamshoot.conditions import (AsymmetricEigenfunction, _simpson, Ball, ResonanceTag,
                                 SampleBox, avoiding_rays_check,
                                 classify_resonance, constant_path, estimate_mbar,
                                 fourier_paths, indefinite_twist_check, ll_margin,
                                 scalar_ll, twist_check)
from hamshoot.config import load_config
from hamshoot.dynamics import VectorField, integrate
from hamshoot.errors import DimensionMismatchError, IntegrationOverflowError, SingularMatrixError
from hamshoot.homogeneous import isotropic, reference_orbit
from hamshoot.systems import CoupledSystem, assemble_field

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "pendulum_oscillator.yaml"


# ---------------------------------------------------------------------------
# resonance classification: 12 hand-constructed cases, 3 per regime
# ---------------------------------------------------------------------------

RESONANCE_TABLE = [
    # nonresonant: T/(N+1) < tau2 <= tau1 < T/N
    ((2.5, 2.1, 6.0), ResonanceTag.NONRESONANT, 2),
    ((1.5 * np.pi, 1.5 * np.pi, 2 * np.pi), ResonanceTag.NONRESONANT, 1),
    ((5.9, 3.1, 6.0), ResonanceTag.NONRESONANT, 1),
    # simple from below: tau1 = T/N exactly
    ((3.0, 2.5, 6.0), ResonanceTag.SIMPLE_BELOW, 2),
    ((2 * np.pi, 5.0, 4 * np.pi), ResonanceTag.SIMPLE_BELOW, 2),
    ((1.0, 0.9, 3.0), ResonanceTag.SIMPLE_BELOW, 3),
    # simple from above: tau2 = T/(N+1) exactly
    ((2.5, 2.0, 6.0), ResonanceTag.SIMPLE_ABOVE, 2),
    ((2.0, 2.0, 6.0), ResonanceTag.SIMPLE_ABOVE, 2),
    ((0.6 * np.pi, 0.5 * np.pi, 2 * np.pi), ResonanceTag.SIMPLE_ABOVE, 3),
    # double: both endpoints exact
    ((3.0, 2.0, 6.0), ResonanceTag.DOUBLE, 2),
    ((2 * np.pi, np.pi, 2 * np.pi), ResonanceTag.DOUBLE, 1),
    ((1.0, 0.75, 3.0), ResonanceTag.DOUBLE, 3),
]


@pytest.mark.parametrize("pair,tag,N", RESONANCE_TABLE)
def test_resonance_table(pair, tag, N):
    rc = classify_resonance(*pair, tol=1e-12)
    assert rc.tag is tag
    assert rc.N == N


@pytest.mark.parametrize("pair,tag,N", RESONANCE_TABLE)
@pytest.mark.parametrize("c", [0.1, 10.0])
def test_resonance_scale_invariance(pair, tag, N, c):
    rc = classify_resonance(pair[0] * c, pair[1] * c, pair[2] * c, tol=1e-12)
    assert rc.tag is tag
    assert rc.N == N


def test_resonance_not_applicable_when_order_violated():
    rc = classify_resonance(2.0, 3.0, 6.0)
    assert rc.tag is ResonanceTag.NOT_APPLICABLE
    assert rc.N is None


def test_resonance_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_resonance(-1.0, 1.0, 6.0)


# ---------------------------------------------------------------------------
# m_bar estimation
# ---------------------------------------------------------------------------

def _box(M=1):
    return SampleBox(t_range=(0.0, 2 * np.pi),
                     x_ranges=tuple((0.0, 2 * np.pi) for _ in range(M)),
                     y_ranges=tuple((-1.0, 1.0) for _ in range(M)))


def test_mbar_sine_coupling():
    eps = 0.3
    grad = lambda t, x, y, w: np.array([eps * np.sin(x[0]) * np.cos(w[0]), 0.0])
    est = estimate_mbar(grad, _box(), n_samples=10000)
    assert abs(est - eps) / eps < 0.02
    assert est <= eps


def test_mbar_zero_and_constant():
    assert estimate_mbar(lambda t, x, y, w: np.zeros(2), _box(), 100) == 0.0
    eps = 0.7
    est = estimate_mbar(lambda t, x, y, w: np.array([eps, 0.0]), _box(), 100)
    assert est == pytest.approx(eps)


def test_mbar_needs_a_sample():
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        estimate_mbar(lambda t, x, y, w: np.ones(2), _box(), n_samples=0)


# ---------------------------------------------------------------------------
# scalar Landesman-Lazer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_scalar_ll_atan_benchmark(c):
    g = lambda ts, u: u + c * (2 / np.pi) * np.arctan(u)
    rep = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0)
    assert abs(rep.min_margin - 4 * c) / (4 * c) < 0.02
    assert rep.passed


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_scalar_ll_with_asymptotes(c):
    g = lambda ts, u: u + c * (2 / np.pi) * np.arctan(u)
    rep = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0,
                    asymptotes=(lambda ts: np.full_like(ts, c),
                                lambda ts: np.full_like(ts, c)))
    assert abs(rep.min_margin - 4 * c) < 1e-4


def test_scalar_ll_unperturbed_fails():
    rep = scalar_ll(lambda ts, u: u, 1.0, 1.0, T=2 * np.pi, mbar=0.25)
    assert rep.min_margin == pytest.approx(-1.0, abs=1e-3)  # -4*mbar
    assert not rep.passed


def test_scalar_ll_wrong_sign_fails():
    c = 1.0
    g = lambda ts, u: u - c * (2 / np.pi) * np.arctan(u)
    rep = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0)
    assert rep.min_margin == pytest.approx(-4 * c, rel=0.02)
    assert not rep.passed


def test_scalar_ll_upper_side():
    # upper inequality: brackets flipped, so the -atan perturbation passes
    c = 1.0
    g = lambda ts, u: u - c * (2 / np.pi) * np.arctan(u)
    rep = scalar_ll(g, 1.0, 1.0, T=2 * np.pi, mbar=0.0, side="upper")
    assert rep.min_margin == pytest.approx(4 * c, rel=0.02)


def test_scalar_ll_asymmetric_weights():
    # mu=4, nu=1: per period int |phi| = 1 (positive hump) + 4 (negative hump
    # of amplitude 2), so a constant asymptote c gives margin 10c over T=2tau
    c = 0.8
    phi = AsymmetricEigenfunction(4.0, 1.0)
    rep = scalar_ll(lambda ts, u: u, 4.0, 1.0, T=2 * phi.period, mbar=0.0,
                    asymptotes=(lambda ts: np.full_like(ts, c),
                                lambda ts: np.full_like(ts, c)))
    assert rep.min_margin == pytest.approx(10 * c, abs=1e-6)


def test_eigenfunction_solves_equation():
    phi = AsymmetricEigenfunction(4.0, 1.0, amplitude=0.7, phase=0.3)
    ts = np.linspace(0.01, phi.period - 0.01, 400)
    h = 1e-5
    dd = (phi.value(ts + h) - 2 * phi.value(ts) + phi.value(ts - h)) / h ** 2
    resid = dd + 4.0 * np.maximum(phi.value(ts), 0) - 1.0 * np.maximum(-phi.value(ts), 0)
    # away from the kinks the second difference matches the ODE
    interior = np.abs(phi.value(ts)) > 1e-3
    assert np.max(np.abs(resid[interior])) < 1e-4


def test_eigenfunction_zeros():
    phi = AsymmetricEigenfunction(4.0, 1.0, phase=0.2)
    zs = phi.zeros(0.0, 2 * phi.period)
    assert np.allclose(phi.value(np.array(zs)), 0.0, atol=1e-12)
    gaps = np.diff(zs)
    assert np.allclose(np.sort(np.unique(np.round(gaps, 9))),
                       np.round([np.pi / 2, np.pi], 9))


# ---------------------------------------------------------------------------
# planar Landesman-Lazer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle_orbit():
    return reference_orbit(isotropic(), tol=1e-10)


def test_ll_margin_atan_field(circle_orbit):
    c = 1.0
    F = lambda ts, w: np.stack([np.asarray(w[0], dtype=float)
                                + c * (2 / np.pi) * np.arctan(w[0]),
                                np.asarray(w[1], dtype=float)])
    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    rep = ll_margin(sys_, "lower", circle_orbit,
                    theta_grid=np.linspace(0, 2 * np.pi, 16, endpoint=False),
                    s_halfwidth=circle_orbit.tau / 1024)
    # s-window smearing near the zeros of the weight keeps this slightly low
    assert abs(rep.min_margin - 4 * c) / (4 * c) < 0.02
    assert rep.passed


def test_ll_margin_pure_resonance_fails(circle_orbit):
    F = lambda ts, w: np.stack([np.asarray(w[0], dtype=float),
                                np.asarray(w[1], dtype=float)])
    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    mbar = 0.1
    rep = ll_margin(sys_, "lower", circle_orbit,
                    theta_grid=np.linspace(0, 2 * np.pi, 8, endpoint=False), mbar=mbar)
    assert not rep.passed
    assert rep.min_margin == pytest.approx(-mbar * 2 * np.pi, abs=1e-3)


def test_ll_margin_radial_field_passes(circle_orbit):
    # bounded radial push c0 w/|w| beats mbar < c0 (a constant vector field
    # would integrate to zero against the closed orbit)
    c0, mbar = 0.5, 0.2

    def F(ts, w):
        r = np.hypot(w[0], w[1])
        return np.stack([np.asarray(w[0], dtype=float) + c0 * w[0] / r,
                         np.asarray(w[1], dtype=float) + c0 * w[1] / r])

    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    rep = ll_margin(sys_, "lower", circle_orbit,
                    theta_grid=np.linspace(0, 2 * np.pi, 8, endpoint=False), mbar=mbar)
    assert rep.passed
    assert rep.min_margin == pytest.approx(2 * np.pi * (c0 - mbar), rel=1e-3)


def test_ll_margin_upper_mirror(circle_orbit):
    c0 = 0.5

    def F(ts, w):
        r = np.hypot(w[0], w[1])
        return np.stack([np.asarray(w[0], dtype=float) - c0 * w[0] / r,
                         np.asarray(w[1], dtype=float) - c0 * w[1] / r])

    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    rep = ll_margin(sys_, "upper", circle_orbit,
                    theta_grid=np.linspace(0, 2 * np.pi, 8, endpoint=False))
    assert rep.min_margin == pytest.approx(2 * np.pi * c0, rel=1e-3)


def test_ll_margin_one_shift_is_theta(circle_orbit):
    c = 1.0
    F = lambda ts, w: np.stack([np.asarray(w[0], dtype=float)
                                + c * (2 / np.pi) * np.arctan(w[0]),
                                np.asarray(w[1], dtype=float)])
    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    grid = [0.3, 2.0]
    one = ll_margin(sys_, "lower", circle_orbit, theta_grid=grid, s_points=1, t_nodes=64)
    at_theta = ll_margin(sys_, "lower", circle_orbit, theta_grid=grid, s_halfwidth=0.0,
                         s_points=3, t_nodes=64)
    low_end = ll_margin(sys_, "lower", circle_orbit, theta_grid=[t - circle_orbit.tau / 64
                                                                 for t in grid],
                        s_halfwidth=0.0, s_points=1, t_nodes=64)
    assert one.rows == at_theta.rows
    assert all(r[1] != s[1] for r, s in zip(one.rows, low_end.rows))


def test_ll_margin_tail_refinement_consistency(circle_orbit):
    # extending the schedule must not raise the estimate beyond the dispersion
    c = 1.0
    F = lambda ts, w: np.stack([np.asarray(w[0], dtype=float)
                                + c * (2 / np.pi) * np.arctan(w[0]),
                                np.asarray(w[1], dtype=float)])
    sys_ = CoupledSystem(M=0, F=F, T=2 * np.pi)
    grid = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    rep6 = ll_margin(sys_, "lower", circle_orbit, theta_grid=grid,
                     lambda_schedule=np.logspace(2, 6, 9))
    rep8 = ll_margin(sys_, "lower", circle_orbit, theta_grid=grid,
                     lambda_schedule=np.logspace(2, 8, 9))
    for r6, r8 in zip(rep6.rows, rep8.rows):
        assert r8[1] <= r6[1] + r6[4] + 1e-9


# ---------------------------------------------------------------------------
# twist checks
# ---------------------------------------------------------------------------

def _free_rotator(M, T=2.0):
    return CoupledSystem(M=M, F=lambda t, w: np.zeros(2),
                         grad_H=lambda t, x, y: (np.zeros(M), np.asarray(y, float).copy()),
                         T=T)


def test_twist_free_rotator():
    sys_ = _free_rotator(1)
    ens = [constant_path([0.0, 0.0])]
    assert twist_check(sys_, [(-1.0, 1.0)], [1], ens).passed
    rep = twist_check(sys_, [(-1.0, 1.0)], [-1], ens)
    assert not rep.passed
    assert len(rep.violations) == len(rep.samples)


def test_twist_free_rotator_two_axes():
    # drift_i = T y_i(0): sigma = (1, -1) fails on exactly the axis-2 faces
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0])]
    D = [(-1.0, 1.0), (-0.5, 2.0)]
    rep = twist_check(sys_, D, [1, 1], ens, x_points=2, y_points=3)
    assert rep.passed
    # 2 axes x 2 faces x 3 points of the other axis x 2^2 grid points of x
    assert len(rep.samples) == 2 * 2 * 3 * 4
    rep = twist_check(sys_, D, [1, -1], ens, x_points=2, y_points=3)
    failed = [desc for desc, _, ok in rep.samples if not ok]
    assert failed == [desc for desc, _, _ in rep.samples if " face y2=" in desc]
    assert len(failed) == len(rep.violations) == 2 * 3 * 4


def test_twist_type_checks_refuse_a_system_without_angles():
    sys_, ens, ball = _free_rotator(0), [constant_path([0.0, 0.0])], Ball(np.zeros(0), 1.0)
    for run in (lambda: twist_check(sys_, [], [], ens),
                lambda: avoiding_rays_check(sys_, ball, 1, ens),
                lambda: indefinite_twist_check(sys_, ball, np.eye(0), ens)):
        with pytest.raises(ValueError, match="with M = 0 there is no x to drift"):
            run()


def test_avoiding_rays_runs_every_path():
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0]), constant_path([0.3, -0.2])]
    rep = avoiding_rays_check(sys_, Ball(np.zeros(2), 1.0), -1, ens, boundary_grid=5,
                              x_points=3)
    # paths x boundary points x 3^2 grid points of x
    assert len(rep.samples) == 2 * 5 * 9
    assert sum(desc.startswith("path1 ") for desc, _, _ in rep.samples) == 5 * 9
    assert rep.passed


def test_twist_invariant_under_2pi_x_shift():
    # drift of the frozen subsystem is 2pi-periodic in x(0): grid offset by
    # 2pi gives identical verdicts
    A = 1.0
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2),
                         grad_H=lambda t, x, y: (np.array([A * np.sin(x[0])]),
                                                 np.array([y[0]])), T=2 * np.pi)
    ens = [constant_path([0.0, 0.0])]
    rep = twist_check(sys_, [(-8.0, 8.0)], [1], ens, x_points=4)
    vals = np.array([s[1] for s in rep.samples])
    from hamshoot.conditions import frozen_subsystem
    from hamshoot.dynamics import integrate
    f = frozen_subsystem(sys_, ens[:1])
    for x0, side_y in [(0.0, -8.0), (np.pi / 2, 8.0)]:
        d1 = integrate(f, np.array([x0, side_y]), 0, 2 * np.pi, 1e-8).ys[-1][0] - x0
        x2 = x0 + 2 * np.pi
        d2 = integrate(f, np.array([x2, side_y]), 0, 2 * np.pi, 1e-8).ys[-1][0] - x2
        assert d1 == pytest.approx(d2, abs=1e-6)
    assert rep.passed


def test_twist_pendulum_block_passes_for_large_momentum():
    from hamshoot.presets import coupling_from_expr, pendulum_hamiltonian
    grad_H = pendulum_hamiltonian(A=1.0, E_src="0.3*sin(t)")
    grad_P = coupling_from_expr("0.1*sin(x)*sin(u)", 1)
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2), grad_H=grad_H,
                         grad_P=grad_P, T=2 * np.pi)
    ens = [constant_path([0.0, 0.0])] + fourier_paths(2, 1.0, 3, 2 * np.pi, seed=5)
    rep = twist_check(sys_, [(-8.0, 8.0)], [1], ens, x_points=4)
    assert rep.passed


def test_avoiding_rays_disc():
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0])]
    ball = Ball(np.zeros(2), 1.0)
    # drift = T y(0) = T nu: aligned with +nu: sigma=+1 violates, sigma=-1 passes
    assert not avoiding_rays_check(sys_, ball, +1, ens, boundary_grid=8, x_points=2).passed
    assert avoiding_rays_check(sys_, ball, -1, ens, boundary_grid=8, x_points=2).passed


def test_avoiding_rays_zero_drift_fails():
    sys_ = CoupledSystem(M=2, F=lambda t, w: np.zeros(2),
                         grad_H=lambda t, x, y: (np.zeros(2), np.zeros(2)), T=2.0)
    rep = avoiding_rays_check(sys_, Ball(np.zeros(2), 1.0), +1,
                              [constant_path([0.0, 0.0])], boundary_grid=4, x_points=1)
    assert not rep.passed
    assert all("zero drift" in v for v in rep.violations)


@pytest.mark.parametrize("check, kwargs", [
    (twist_check, {"x_points": 0}),            # no x0
    (twist_check, {"y_points": 0}),            # no face sample (M = 2)
    (twist_check, {"ensemble": []}),           # no path
    (avoiding_rays_check, {"boundary_grid": 0}),  # no boundary sample (M = 2)
])
def test_twist_checks_refuse_zero_samples(check, kwargs):
    sys_ = _free_rotator(2)
    kwargs = {"ensemble": [constant_path([0.0, 0.0])], **kwargs}
    args = ([(-1.0, 1.0)] * 2, [1, 1]) if check is twist_check else (Ball(np.zeros(2), 1.0), -1)
    with pytest.raises(ValueError, match="check needs at least one x0, one path and one"):
        check(sys_, *args, **kwargs)


@pytest.mark.parametrize("sigma", [0, 2, -0.5])
def test_avoiding_rays_sigma_must_be_a_sign(sigma):
    with pytest.raises(ValueError, match="sigma must be \\+1 or -1"):
        avoiding_rays_check(_free_rotator(2), Ball(np.zeros(2), 1.0), sigma,
                            [constant_path([0.0, 0.0])])


@pytest.mark.parametrize("sigma", [[0.5], [1.7], [0], [2]])
def test_twist_sigma_must_be_signs(sigma):
    # 0.5 used to be truncated to 0 (every sample a violation), 1.7 to 1
    with pytest.raises(ValueError, match="sigma entries must be \\+1 or -1"):
        twist_check(_free_rotator(1), [(-1.0, 1.0)], sigma, [constant_path([0.0, 0.0])])


@pytest.mark.parametrize("D", [[(8.0, -8.0)], [(1.0, 1.0)], [(-1.0, 1.0), (2.0, 0.5)]])
def test_twist_refuses_inverted_faces(D):
    # (8, -8) swapped the outward normals: 4 violations where (-8, 8) passes
    sys_ = _free_rotator(len(D))
    with pytest.raises(ValueError, match="a_i < b_i"):
        twist_check(sys_, D, [1] * len(D), [constant_path([0.0, 0.0])], x_points=2,
                    y_points=1)


def test_twist_one_face_point_is_the_centre():
    rep = twist_check(_free_rotator(2), [(-1.0, 1.0), (-0.5, 2.0)], [1, 1],
                      [constant_path([0.0, 0.0])], x_points=1, y_points=1)
    faces = [desc.split(" y0=")[1].split(" x0=")[0] for desc, _, _ in rep.samples]
    assert faces == [str(np.round(np.array(y0), 3))
                     for y0 in ((-1.0, 0.75), (1.0, 0.75), (0.0, -0.5), (0.0, 2.0))]
    assert rep.passed


def _per_sample_drifts(sys_, ensemble, starts, x_points):
    """x(T) - x(0) of every (path, y0, x0) of a drift check, in its order, each
    by a flow of its own at tolerance 1e-8: the reference for the stacked flow."""
    f, M = assemble_field(sys_).f, sys_.M
    axis = np.linspace(0.0, 2 * np.pi, x_points, endpoint=False)
    drifts = []
    for path in ensemble:
        frozen = VectorField(2 * M, lambda t, xy, path=path:
                             f(t, np.concatenate([xy, path(t)]))[:2 * M])
        for y0 in starts:
            for x0 in itertools.product(*[axis] * M):
                end = integrate(frozen, np.concatenate([x0, y0]), 0.0, sys_.T, 1e-8, dense=False)
                drifts.append(end.ys[-1][:M] - x0)
    return drifts


@pytest.fixture
def integrate_calls(monkeypatch):
    """The number of states of every flow the drift checks integrate."""
    import hamshoot.conditions
    calls = []

    def counted(f, z0, *args, **kwargs):
        calls.append(len(z0))
        return integrate(f, z0, *args, **kwargs)

    monkeypatch.setattr(hamshoot.conditions, "integrate", counted)
    return calls


def test_twist_check_is_one_flow_of_every_sample(integrate_calls):
    cfg = load_config(DEMO_CONFIG)
    sys_, twist = cfg.system, cfg.conditions["twist"]
    fr = twist["ensemble"]["fourier"]
    ens = [constant_path(c) for c in twist["ensemble"]["constants"]]
    ens += fourier_paths(fr["count"], fr["amplitude"], fr["modes"], sys_.T, seed=cfg.seed)
    rep = twist_check(sys_, twist["D"], twist["sigma"], ens, x_points=twist["x_points"],
                      y_points=twist["y_points"])
    assert integrate_calls == [2 * len(rep.samples)]
    (a, b), = twist["D"]
    x0s = np.linspace(0.0, 2 * np.pi, twist["x_points"], endpoint=False)
    descs = [f"path{p} face y1={side} y0={np.round(np.array([y]), 3)} "
             f"x0={np.round(np.array([x0]), 3)}"
             for p in range(len(ens)) for side, y in (("a", a), ("b", b)) for x0 in x0s]
    drifts = [twist["sigma"][0] * d[0] for d in _per_sample_drifts(sys_, ens, [[a], [b]],
                                                                   twist["x_points"])]
    assert [desc for desc, _, _ in rep.samples] == descs
    assert [ok for _, _, ok in rep.samples] == [(d < 0) == (" y1=a " in desc)
                                                for d, desc in zip(drifts, descs)]
    assert np.max(np.abs(np.array([v for _, v, _ in rep.samples]) - drifts)) <= 1e-6
    assert rep.passed and min(np.abs(drifts)) > 40.0


def test_avoiding_rays_is_one_flow_of_every_sample(integrate_calls):
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0]), constant_path([0.3, -0.2])]
    ball = Ball(np.zeros(2), 1.0)
    rep = avoiding_rays_check(sys_, ball, -1, ens, boundary_grid=5, x_points=3)
    assert integrate_calls == [4 * len(rep.samples)]
    points, normals = ball.boundary(5)
    x0s = np.linspace(0.0, 2 * np.pi, 3, endpoint=False)
    descs = [f"path{p} boundary{b} x0={np.round(np.array(x0), 3)}" for p in range(2)
             for b in range(5) for x0 in itertools.product(x0s, x0s)]
    drifts = _per_sample_drifts(sys_, ens, points, 3)
    angles = [np.arccos(np.clip(np.dot(d, -nu) / np.linalg.norm(d), -1.0, 1.0))
              for d, nu in zip(drifts, np.tile(np.repeat(normals, 9, axis=0), (2, 1)))]
    assert [desc for desc, _, _ in rep.samples] == descs
    assert [ok for _, _, ok in rep.samples] == [a >= 1e-3 for a in angles]
    assert np.max(np.abs(np.array([v for _, v, _ in rep.samples]) - angles)) <= 1e-6


def test_drift_check_names_each_sample_whose_own_flow_fails(integrate_calls):
    # x' = y, y' = y^2: from y0 = +1, y = 1/(1 - t) blows up at t = 1 < T
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.zeros(2),
                         grad_H=lambda t, x, y: (-y * y, y), T=2.0)
    rep = twist_check(sys_, [(-1.0, 1.0)], [1], [constant_path([0.0, 0.0])])
    failed = [desc for desc, _, ok in rep.samples if not ok]
    assert failed == [desc for desc, _, _ in rep.samples if " y0=[1.] " in desc]
    assert len(failed) == len(rep.violations) == 3
    assert all(": not defined on [0,T] (" in v for v in rep.violations)
    # the stacked flow fails, then each sample runs alone
    assert integrate_calls == [2 * len(rep.samples)] + [2] * len(rep.samples)


def test_indefinite_twist():
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0])]
    ball = Ball(np.zeros(2), 1.0)
    assert indefinite_twist_check(sys_, ball, np.eye(2), ens,
                                  boundary_grid=8, x_points=2).passed
    assert not indefinite_twist_check(sys_, ball, -np.eye(2), ens,
                                      boundary_grid=8, x_points=2).passed
    rep = indefinite_twist_check(sys_, ball, np.diag([1.0, -1.0]), ens,
                                 boundary_grid=16, x_points=1)
    # fails exactly where the normal's second component dominates
    assert not rep.passed
    assert 0 < len(rep.violations) < len(rep.samples)


def test_indefinite_twist_matrix_validation():
    sys_ = _free_rotator(2)
    ens = [constant_path([0.0, 0.0])]
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(SingularMatrixError):
        indefinite_twist_check(sys_, ball, np.array([[1.0, 2.0], [2.0, 4.0]]), ens)
    with pytest.raises(SingularMatrixError):
        indefinite_twist_check(sys_, ball, np.array([[1.0, 2.0], [0.0, 1.0]]), ens)


@pytest.mark.parametrize("F, error", [
    # scalar-only: float() of an array of points raises
    (lambda t, w: np.array([float(w[1]), -float(w[0])]), TypeError),
    # one point's shape for every input
    (lambda t, w: np.array([1.0, 0.0]), DimensionMismatchError),
])
def test_ll_margin_takes_planar_fields_on_point_arrays_only(circle_orbit, F, error):
    calls = []

    def counted(t, w):
        calls.append(np.shape(w))
        return F(t, w)

    sys_ = CoupledSystem(M=0, F=counted, T=2 * np.pi)
    with pytest.raises(error):
        ll_margin(sys_, "lower", circle_orbit, theta_grid=[0.0], t_nodes=8)
    assert calls == [(2, 5 * 9)]   # one call: the 5 tail amplitudes at 9 nodes


def test_ll_margin_overflow_names_the_first_amplitude(circle_orbit):
    # the tail of the schedule is (100, 1000): exp(100 |phi|) is finite, exp(1000 |phi|) is not
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.exp(w), T=2 * np.pi)
    with pytest.raises(IntegrationOverflowError, match="at amplitude 1000$"):
        ll_margin(sys_, "lower", circle_orbit, theta_grid=[0.0], t_nodes=8,
                  lambda_schedule=(1.0, 10.0, 100.0, 1000.0))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_simpson_is_bitwise_scipys(seed):
    """The LL integrals' Simpson sum is bitwise ``scipy.integrate.simpson`` on
    the 513-point arcs that ``scalar_ll`` integrates over."""
    from scipy.integrate import simpson

    rng = np.random.default_rng(seed)
    for _ in range(25):
        a = rng.uniform(-10.0, 10.0)
        ts = np.linspace(a, a + 10.0 ** rng.uniform(-12.0, 1.0), 513)
        y = rng.normal(size=513) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert _simpson(y, ts) == simpson(y, x=ts)
