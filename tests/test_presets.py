import numpy as np
import pytest

from hamshoot.dynamics import integrate
from hamshoot.errors import ValidationError
from hamshoot.presets import (asymmetric_field, coupling_from_expr, free_rotator,
                              hamiltonian_block_from_expr, pendulum_hamiltonian,
                              planar_field_from_expr)
from hamshoot.systems import CoupledSystem, assemble_field


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_pendulum_equations_of_motion():
    grad_H = pendulum_hamiltonian(A=1.5, E_src="0.2*cos(t)")
    x, y = np.array([0.4]), np.array([-0.3])
    hx, hy = grad_H(0.7, x, y)
    assert hx[0] == pytest.approx(1.5 * np.sin(0.4))          # dH/dq = A sin q
    assert hy[0] == pytest.approx(-0.3 + 0.2 * np.cos(0.7))   # dH/dp = p + E(t)


def test_free_rotator_block():
    grad_H = free_rotator(2)
    hx, hy = grad_H(0.0, np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert np.array_equal(hx, np.zeros(2))
    assert np.array_equal(hy, [0.5, -0.5])


def test_template_gradients_bitwise_equal_closed_forms():
    # the templates reproduce (A sin x, y + E(t)) and (0, y) to the last bit
    rng = np.random.default_rng(11)
    ts, xs, ys = rng.uniform(-10.0, 10.0, (3, 2000)).tolist()
    pendulum = pendulum_hamiltonian(A=1.3, E_src="0.2*cos(t) + eps", params={"eps": 0.1})
    rotator = free_rotator(2)
    got, want = [], []
    for t, x, y in zip(ts, xs, ys):
        got += [*pendulum(t, np.array([x]), np.array([y]))]
        want += [[1.3 * np.sin(x)], [y + (0.2 * np.cos(t) + 0.1)]]
        got += [*rotator(t, np.array([x, y]), np.array([y, t]))]
        want += [[0.0, 0.0], [y, t]]
    assert _bits(np.concatenate(got)) == _bits(np.concatenate(want))


def _interpolated_force(mu1, nu1, mu2, nu2, u):
    # the restoring force f of asymmetric_field, written out with numpy scalars
    z1 = 0.5 * (mu1 + mu2) + 0.5 * (mu2 - mu1) * np.cos(u)
    z2 = 0.5 * (nu1 + nu2) + 0.5 * (nu2 - nu1) * np.sin(u ** 3)
    return z1 * np.maximum(u, 0.0) - z2 * np.maximum(-u, 0.0)


@pytest.mark.parametrize("pairs, rtol", [((4.0, 1.0, 4.0, 1.0), 0.0),
                                         ((1.0, 2.0, 4.0, 9.0), 1e-12)])
def test_asymmetric_template_matches_interpolated_force(pairs, rtol):
    # bitwise for equal pairs; otherwise u^3 inside sin(u^3) may differ by an ulp
    F, dec, _ = asymmetric_field(*pairs, h_src="0.3*sin(t)*atan(u)")
    rng = np.random.default_rng(12)
    ts, us, vs = rng.uniform(-20.0, 20.0, (3, 2000))
    points = list(zip(ts.tolist(), us.tolist(), vs.tolist()))
    h = [0.3 * np.sin(t) * np.arctan(u) for t, u, _ in points]
    want = [[_interpolated_force(*pairs, np.float64(u)) + hi, v]
            for (t, u, v), hi in zip(points, h)]
    got = [F(t, np.array([u, v])) for t, u, v in points]
    if rtol:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    else:
        assert _bits(got) == _bits(want)
    gq = [dec.grad_Q(t, np.array([u, v])) for t, u, v in points]
    assert _bits(gq) == _bits([[hi, 0.0] for hi in h])
    # whole arrays of points give the same field
    np.testing.assert_allclose(F(ts, np.array([us, vs])).T, got, rtol=rtol, atol=0.0)


def test_asymmetric_field_kink_flag_follows_the_force():
    # stiffness pairs (1, 1) and (4, 4): f has slope 4 at u = 0+ and 2.5 at u = 0-
    F, _, w_kink = asymmetric_field(1.0, 1.0, 4.0, 4.0)
    assert w_kink
    assert not asymmetric_field(1.0, 1.0, 1.0, 1.0)[2]
    # with the kink flagged the flow splits its steps at u = 0
    sys_ = CoupledSystem(M=0, F=F, T=6.0, w_kink=w_kink)
    f = assemble_field(sys_)
    z0 = np.array([0.3, 0.0])
    ref = integrate(f, z0, 0.0, 6.0, 1e-13, switch=sys_.switch).ys[-1]
    got = integrate(f, z0, 0.0, 6.0, 1e-8, switch=sys_.switch).ys[-1]
    assert np.max(np.abs(got - ref)) < 1e-7


def test_hamiltonian_block_from_expr_multidim():
    grad_H = hamiltonian_block_from_expr("0.5*(y1^2 + y2^2) - cos(x1)*cos(x2)", 2)
    x, y = np.array([0.3, 1.1]), np.array([0.2, -0.7])
    hx, hy = grad_H(0.0, x, y)
    assert hx[0] == pytest.approx(np.sin(0.3) * np.cos(1.1))
    assert hx[1] == pytest.approx(np.cos(0.3) * np.sin(1.1))
    assert np.allclose(hy, y)


def test_coupling_alias_and_gradients():
    grad_P = coupling_from_expr("eps*sin(x)*sin(u)", 1, params={"eps": 0.1})
    x, y, w = np.array([0.3]), np.array([0.0]), np.array([0.5, 0.7])
    px, py, pw = grad_P(0.2, x, y, w)
    assert px[0] == pytest.approx(0.1 * np.cos(0.3) * np.sin(0.5))
    assert py[0] == 0.0
    assert pw[0] == pytest.approx(0.1 * np.sin(0.3) * np.cos(0.5))
    assert pw[1] == 0.0


def test_asymmetric_field_stiffness_stays_between_pairs():
    mu1, nu1, mu2, nu2 = 1.0, 2.0, 4.0, 9.0
    F, dec, w_kink = asymmetric_field(mu1, nu1, mu2, nu2)
    assert w_kink
    assert dec.mode == "quadrant"
    us = np.linspace(-20, 20, 2001)
    us = us[np.abs(us) > 1e-9]
    f_over_u = np.array([float(F(0.0, np.array([u, 0.0]))[0]) / u for u in us])
    pos = us > 0
    assert np.all(f_over_u[pos] >= mu1 - 1e-12) and np.all(f_over_u[pos] <= mu2 + 1e-12)
    assert np.all(f_over_u[~pos] >= nu1 - 1e-12) and np.all(f_over_u[~pos] <= nu2 + 1e-12)


def test_asymmetric_field_reduces_to_plain_oscillator():
    F, dec, w_kink = asymmetric_field(4.0, 1.0)
    assert dec.mode == "global"
    w = np.array([0.5, -0.2])
    assert np.allclose(F(0.0, w), [2.0, -0.2])
    w = np.array([-0.5, 0.3])
    assert np.allclose(F(0.0, w), [-0.5, 0.3])


def test_asymmetric_field_bounded_remainder():
    F, dec, _ = asymmetric_field(4.0, 1.0, h_src="0.3*sin(t)*atan(u)")
    gq = dec.grad_Q(0.5, np.array([100.0, 0.0]))
    assert abs(gq[0]) <= 0.3 * np.pi / 2 + 1e-12
    assert gq[1] == 0.0


def test_asymmetric_field_validation():
    with pytest.raises(ValidationError):
        asymmetric_field(4.0, 1.0, 1.0, 1.0)  # mu2 < mu1
    with pytest.raises(ValidationError):
        asymmetric_field(-1.0, 1.0)
    with pytest.raises(ValidationError):
        pendulum_hamiltonian(A=0.0)


def test_planar_field_from_K_expr():
    F, dec, kinky = planar_field_from_expr(K_src="0.5*(u^2+v^2) + 0.1*u*sin(t)")
    assert not kinky
    assert dec is None
    w = np.array([0.4, -0.3])
    out = F(0.5, w)
    assert out[0] == pytest.approx(0.4 + 0.1 * np.sin(0.5))
    assert out[1] == pytest.approx(-0.3)


def test_planar_field_from_components():
    F, _, _ = planar_field_from_expr(components=("u + v", "v - u"))
    assert np.allclose(F(0.0, np.array([1.0, 2.0])), [3.0, 1.0])


def test_planar_field_needs_exactly_one_source():
    with pytest.raises(ValidationError):
        planar_field_from_expr()
    with pytest.raises(ValidationError):
        planar_field_from_expr(K_src="u", components=("u", "v"))


def test_product_structure_of_decoupled_multistart():
    # decoupled pendulum x harmonic oscillator at tau = T: every start is an
    # exact fixed point, so classes = pendulum equilibria x oscillator points
    from hamshoot.homogeneous import isotropic
    from hamshoot.solvers import MultistartSpec, multistart_periodic
    from hamshoot.systems import CoupledSystem
    iso = isotropic()
    sys_ = CoupledSystem(M=1, F=lambda t, w: np.asarray(iso.grad(w), dtype=float),
                         grad_H=lambda t, x, y: (np.array([np.sin(x[0])]),
                                                 np.array([y[0]])),
                         T=2 * np.pi)
    spec = MultistartSpec(x_points=2, y_ranges=((-0.1, 0.1),), y_points=1,
                          w_radii=(0.3,), w_angles=2)
    result = multistart_periodic(sys_, spec)
    assert result.stats["attempted"] == 4
    assert result.stats["converged"] == 4
    assert all(r.iterations == 0 for r in result.all_records)
    assert result.partition.n_classes == 4  # 2 pendulum classes x 2 w points
