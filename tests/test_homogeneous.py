import numpy as np
import pytest

from hamshoot.dynamics import winding
from hamshoot.errors import NonpositiveHamiltonianError
from hamshoot.homogeneous import (AsymmetricParams, PlanarHamiltonian,
                                  angle_to_orbit_time, asym_period, asymmetric,
                                  check_homogeneous, half_periods,
                                  hamiltonian_from_expr, isotropic,
                                  minimal_period, reference_orbit)


def test_isotropic_period_is_2pi():
    assert minimal_period(isotropic()) == pytest.approx(2 * np.pi, abs=1e-12)


def test_asymmetric_periods_match_closed_form():
    assert minimal_period(asymmetric(4, 1)) == pytest.approx(1.5 * np.pi, rel=1e-12)
    assert minimal_period(asymmetric(9, 4)) == pytest.approx(np.pi / 3 + np.pi / 2, rel=1e-12)
    for mu in (0.25, 1.0, 4.0, 9.0):
        for nu in (0.25, 1.0, 4.0, 9.0):
            tau_cf = asym_period(AsymmetricParams(mu, nu))
            tau_q = minimal_period(asymmetric(mu, nu))
            assert abs(tau_q - tau_cf) / tau_cf < 1e-10


def test_asym_period_values():
    assert asym_period(AsymmetricParams(1, 1)) == pytest.approx(2 * np.pi)
    assert asym_period(AsymmetricParams(4, 1)) == pytest.approx(1.5 * np.pi)


def test_half_periods():
    hp = half_periods(isotropic())
    assert hp.tau_plus == pytest.approx(np.pi, abs=1e-12)
    assert hp.tau_minus == pytest.approx(np.pi, abs=1e-12)
    hp41 = half_periods(asymmetric(4, 1))
    assert hp41.tau_plus == pytest.approx(0.75 * np.pi, abs=1e-12)
    assert hp41.tau_plus == pytest.approx(hp41.tau_minus, abs=1e-12)
    assert hp41.total == pytest.approx(minimal_period(asymmetric(4, 1)), abs=2e-12)


def test_nonpositive_hamiltonian_raises():
    bad = PlanarHamiltonian(lambda w: np.asarray(w[0], dtype=float),
                            lambda w: np.array([1.0, 0.0]))
    with pytest.raises(NonpositiveHamiltonianError):
        minimal_period(bad)


def test_check_homogeneous_builtin_families():
    for H in (isotropic(), asymmetric(4, 1), asymmetric(9, 4), asymmetric(0.25, 2)):
        rep = check_homogeneous(H, 1000, 1e-8)
        assert rep.passed, (H.label, rep)


def test_check_homogeneous_detects_affine_offset():
    bad = PlanarHamiltonian(lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2) + 1.0,
                            lambda w: np.asarray(w, dtype=float))
    rep = check_homogeneous(bad, 100, 1e-8)
    assert not rep.passed
    # residual |1 - lambda^2| reaches 99 at lambda = 10
    assert rep.max_homogeneity_residual == pytest.approx(99.0, rel=1e-9)


def test_expr_hamiltonian_matches_builtin():
    H = hamiltonian_from_expr("0.5*(4*pos(u)^2 + neg(u)^2 + v^2)")
    assert H.kink_on_u_axis
    ref = asymmetric(4, 1)
    rng = np.random.default_rng(3)
    w = rng.uniform(-2, 2, (2, 64))
    assert np.allclose(H.value(w), ref.value(w))
    assert np.allclose(H.grad(w), np.asarray(ref.grad(w)))
    assert minimal_period(H) == pytest.approx(1.5 * np.pi, rel=1e-11)


def test_reference_orbit_circle():
    orb = reference_orbit(isotropic(), tol=1e-10)
    assert np.allclose(orb.point(0.0), [1.0, 0.0], atol=1e-12)
    assert np.allclose(orb.point(np.pi / 2), [0.0, -1.0], atol=1e-9)
    assert orb.tau == pytest.approx(2 * np.pi, abs=1e-12)


def test_reference_orbit_scaling_rule():
    orb = reference_orbit(asymmetric(4, 1), tol=1e-10)
    # H(1,0) = 2, so the energy-1/2 start is (1/2, 0)
    assert np.allclose(orb.point(0.0), [0.5, 0.0], atol=1e-13)


def test_reference_orbit_energy_drift():
    orb = reference_orbit(asymmetric(4, 1), tol=1e-10)
    ts = np.linspace(0, orb.tau, 301)
    drift = max(abs(float(orb.H.value(orb.point(t))) - 0.5) for t in ts)
    assert drift <= 1e-10


def test_reference_orbit_points_match_point():
    orb = reference_orbit(asymmetric(4, 1), tol=1e-10)
    ss = np.concatenate([np.linspace(-1.0, 2 * orb.tau, 517), [0.0, orb.tau]])
    pts = orb.points(ss)
    assert pts.shape == (2, len(ss))
    assert np.max(np.abs(pts - np.array([orb.point(s) for s in ss]).T)) <= 1e-14


def test_reference_orbit_one_clockwise_turn():
    for H in (isotropic(), asymmetric(4, 1)):
        orb = reference_orbit(H, tol=1e-10)
        assert winding(orb.trajectory, (0, 1), 1e-8).turns == 1


def test_angle_to_orbit_time_at_quadrant_boundaries():
    """The arc quadrature inverts the direction of the integrated orbit at the
    kinks of asymmetric(9, 4), and just below a full turn."""
    orb = reference_orbit(asymmetric(9, 4), tol=1e-10)
    for angle in (0.0, -np.pi / 2, -np.pi, -3 * np.pi / 2, np.nextafter(2 * np.pi, 0.0)):
        s = angle_to_orbit_time(orb, angle)
        assert 0.0 <= s < orb.tau
        p = orb.point(s)
        assert np.max(np.abs(p / np.hypot(*p) - [np.cos(angle), np.sin(angle)])) < 1e-9


def test_angle_to_orbit_time_circle():
    orb = reference_orbit(isotropic(), tol=1e-10)
    assert angle_to_orbit_time(orb, 0.0) == 0.0
    assert angle_to_orbit_time(orb, -np.pi / 2) == pytest.approx(np.pi / 2, abs=1e-9)


def test_angle_time_round_trip():
    orb = reference_orbit(asymmetric(4, 1), tol=1e-10)
    for s in np.linspace(0.0, orb.tau, 37, endpoint=False):
        p = orb.point(s)
        s_back = angle_to_orbit_time(orb, np.arctan2(p[1], p[0]))
        assert s_back == pytest.approx(s, abs=1e-9)


def test_period_scaling_invariance():
    base = asymmetric(4, 1)
    tau = minimal_period(base)
    for c in (0.25, 1.0, 4.0):
        Hc = PlanarHamiltonian(lambda w, c=c: c * base.value(w),
                               lambda w, c=c: c * np.asarray(base.grad(w)),
                               kink_on_u_axis=True)
        assert minimal_period(Hc) == pytest.approx(tau / c, rel=1e-11)


def test_period_monotonicity_in_ordering():
    # H1 <= H2 pointwise implies tau1 >= tau2 (larger Hamiltonian, faster turn)
    pairs = [((1, 1), (4, 4)), ((1, 2), (3, 5)), ((0.25, 1), (0.5, 2))]
    for (m1, n1), (m2, n2) in pairs:
        assert minimal_period(asymmetric(m1, n1)) >= minimal_period(asymmetric(m2, n2))


def test_invalid_asymmetric_params():
    with pytest.raises(ValueError):
        AsymmetricParams(-1.0, 2.0)


def test_asymmetric_grad_bitwise_equals_stacked_formula():
    """grad builds one array; the values are those of the stacked formula, bit for bit."""
    mu, nu = 4.0, 1.0
    H = asymmetric(mu, nu)

    def stacked(w):
        up = np.maximum(w[0], 0.0)
        um = np.maximum(-w[0], 0.0)
        return np.stack([mu * up - nu * um, np.asarray(w[1], dtype=float)])

    rng = np.random.default_rng(3)
    points = [np.array([0.7, -0.2]), np.array([-1.5, 0.3]), np.array([0.0, 0.4]),
              np.array([-0.0, -0.0]), [0.25, -3.0], [-0.0, 2], [0.0, -0.0],
              rng.standard_normal((2, 9)), np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0]])]
    for w in points:
        new, old = H.grad(w), stacked(w)
        assert new.dtype == old.dtype == np.float64 and new.shape == old.shape
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64)), w
