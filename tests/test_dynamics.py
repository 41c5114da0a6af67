import numpy as np
import pytest

from hamshoot.dynamics import (VectorField, flow_jacobian, flow_map, integrate,
                               variational_field, winding)
from hamshoot.errors import (NonfiniteStateError, OriginTooCloseError,
                             StepUnderflowError)
from hamshoot.homogeneous import asymmetric
from hamshoot.systems import CoupledSystem, assemble_field, field_switches

CENTER = VectorField(2, lambda t, z: np.array([z[1], -z[0]]))
PENDULUM = VectorField(2, lambda t, z: np.array([z[1], -np.sin(z[0])]))


def test_linear_center_endpoint():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, 1e-10)
    assert np.max(np.abs(traj.ys[-1] - [1.0, 0.0])) < 1e-8


def test_zero_field_constant():
    f = VectorField(3, lambda t, z: np.zeros(3))
    traj = integrate(f, [1.0, 2.0, 3.0], 0.0, 5.0, 1e-10)
    assert np.array_equal(traj.ys[-1], [1.0, 2.0, 3.0])


def test_pendulum_equilibrium():
    traj = integrate(PENDULUM, [np.pi, 0.0], 0.0, 2 * np.pi, 1e-10)
    assert np.max(np.abs(traj.ys[-1] - [np.pi, 0.0])) < 1e-12


def test_query_many_matches_query():
    traj = integrate(PENDULUM, [1.0, 0.5], 0.0, 7.0, 1e-10)
    ts = np.concatenate([np.linspace(0.0, 7.0, 301), traj.ts])
    many = traj.query_many(ts)
    assert many.shape == (len(ts), 2)
    assert np.max(np.abs(many - np.array([traj.query(t) for t in ts]))) <= 1e-14
    # the ends are the stored states exactly
    assert np.array_equal(many[0], traj.ys[0]) and np.array_equal(many[300], traj.ys[-1])
    with pytest.raises(ValueError):
        traj.query_many([0.5, 7.5])


def test_flow_map_linear_center():
    for z0 in ([1.0, 0.0], [0.3, -0.7], [-2.0, 1.5]):
        assert np.max(np.abs(flow_map(CENTER, z0, 2 * np.pi, 1e-10) - z0)) < 1e-8
        assert np.max(np.abs(flow_map(CENTER, z0, np.pi, 1e-10) + np.asarray(z0))) < 1e-8


def test_flow_map_asymmetric_oscillator_closed_orbit():
    from hamshoot.homogeneous import asymmetric
    H = asymmetric(4.0, 1.0)
    f = VectorField(2, lambda t, w: np.array([H.grad(w)[1], -H.grad(w)[0]]))
    z0 = np.array([0.3, 0.0])
    traj = integrate(f, z0, 0.0, 1.5 * np.pi, 1e-9, switches=(lambda w: w[0],))
    assert np.max(np.abs(traj.ys[-1] - z0)) < 1e-7


def test_query_initial_point_exact():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 1.0, 1e-8)
    assert np.array_equal(traj.query(0.0), [1.0, 0.0])


def test_dense_output_matches_reintegration():
    tol = 1e-9
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, tol)
    for t in (0.37, 1.9, 3.3, 5.1):
        again = integrate(CENTER, [1.0, 0.0], 0.0, t, tol).ys[-1]
        assert np.max(np.abs(traj.query(t) - again)) < 10 * tol


def test_flow_jacobian_identity_cases():
    f0 = VectorField(2, lambda t, z: np.zeros(2))
    assert np.allclose(flow_jacobian(f0, [0.2, -0.4], 1.0, 1e-10), np.eye(2), atol=1e-9)
    J = flow_jacobian(CENTER, [0.5, 0.1], 2 * np.pi, 1e-12)
    assert np.max(np.abs(J - np.eye(2))) < 1e-6


def test_flow_jacobian_vs_variational_oracle():
    """Acceptance criterion: FD Jacobian vs variational equation < 1e-5."""
    jac = lambda t, z: np.array([[0.0, 1.0], [-np.cos(z[0]), 0.0]])
    aug = variational_field(PENDULUM, jac, 2)
    z0 = np.array([0.7, 0.3])
    zM0 = np.concatenate([z0, np.eye(2).ravel()])
    M_oracle = integrate(aug, zM0, 0.0, 2 * np.pi, 1e-12).ys[-1][2:].reshape(2, 2)
    J_fd = flow_jacobian(PENDULUM, z0, 2 * np.pi, 1e-12, fd_step=1e-6)
    assert np.max(np.abs(J_fd - M_oracle)) < 1e-5


def test_flow_jacobian_cols_are_columns_of_full_jacobian():
    f = VectorField(4, lambda t, z: np.array([z[1], -np.sin(z[0]) + 0.3 * z[2], z[3], -z[2]]))
    z0 = np.array([0.7, 0.3, -0.4, 0.2])
    full = flow_jacobian(f, z0, 2.0, 1e-10)
    for cols in ([0, 2], [3], [2, 0, 1]):
        assert np.array_equal(flow_jacobian(f, z0, 2.0, 1e-10, cols=cols), full[:, cols])


def test_flow_jacobian_with_switches_vs_variational_oracle():
    """Across the u = 0 kink of an asymmetric oscillator, to the criterion-08 bound."""
    mu, nu = 4.0, 1.0
    osc = asymmetric(mu, nu)
    sys_ = CoupledSystem(M=0, F=lambda t, w: np.asarray(osc.grad(w), dtype=float),
                         T=1.5 * np.pi, w_kink=True)
    field, switches = assemble_field(sys_), field_switches(sys_)
    jac = lambda t, z: np.array([[0.0, 1.0], [-(mu if z[0] > 0 else nu), 0.0]])
    aug = variational_field(field, jac, 2)
    for z0 in (np.array([0.4, 0.0]), np.array([-0.3, 0.5])):
        zM0 = np.concatenate([z0, np.eye(2).ravel()])
        M_oracle = integrate(aug, zM0, 0.0, sys_.T, 1e-12,
                             switches=switches).ys[-1][2:].reshape(2, 2)
        J_fd = flow_jacobian(field, z0, sys_.T, 1e-12, fd_step=1e-6, switches=switches)
        assert np.max(np.abs(J_fd - M_oracle)) < 1e-5


def test_winding_clockwise_circle():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, 1e-10)
    rep = winding(traj, (0, 1), 1e-8)
    assert rep.turns == 1
    assert rep.delta_theta == pytest.approx(-2 * np.pi, abs=1e-6)


def test_winding_constant_path():
    f = VectorField(2, lambda t, z: np.zeros(2))
    traj = integrate(f, [0.5, 0.5], 0.0, 1.0, 1e-10)
    assert winding(traj, (0, 1), 1e-8).turns == 0


def test_winding_two_periods_of_asymmetric_orbit():
    from hamshoot.homogeneous import asymmetric
    H = asymmetric(4.0, 1.0)
    f = VectorField(2, lambda t, w: np.array([H.grad(w)[1], -H.grad(w)[0]]))
    traj = integrate(f, [0.5, 0.0], 0.0, 3 * np.pi, 1e-10, switches=(lambda w: w[0],))
    assert winding(traj, (0, 1), 1e-8).turns == 2


def test_winding_rescale_invariance():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, 1e-10)
    f5 = VectorField(2, lambda t, z: np.array([z[1], -z[0]]))
    traj5 = integrate(f5, [5.0, 0.0], 0.0, 2 * np.pi, 1e-10)
    assert winding(traj, (0, 1), 1e-8).turns == winding(traj5, (0, 1), 1e-8).turns


def test_winding_origin_guard():
    f = VectorField(2, lambda t, z: np.array([1.0, 0.0]))  # straight through 0
    traj = integrate(f, [-1.0, 0.0], 0.0, 2.0, 1e-10)
    with pytest.raises(OriginTooCloseError):
        winding(traj, (0, 1), 1e-3)


def test_tolerance_sweep_order():
    """Observed convergence order vs mean step size is at least 3 (it is ~5)."""
    errs, hbars = [], []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        tr = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, tol, dense=False)
        errs.append(np.max(np.abs(tr.ys[-1] - [1.0, 0.0])))
        hbars.append(2 * np.pi / tr.stats.steps)
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0), "error must decrease with tol"
    slope = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
    assert slope >= 3.0


def test_blowup_guard():
    f = VectorField(1, lambda t, z: z ** 2)  # finite-time blowup
    with pytest.raises((StepUnderflowError, NonfiniteStateError)):
        integrate(f, [1.0], 0.0, 5.0, 1e-8)


def test_nonfinite_initial_state():
    with pytest.raises(NonfiniteStateError):
        integrate(CENTER, [np.nan, 0.0], 0.0, 1.0, 1e-8)


def test_switch_splitting_restores_accuracy_at_kinks():
    from hamshoot.homogeneous import asymmetric
    H = asymmetric(4.0, 1.0)
    f = VectorField(2, lambda t, w: np.array([H.grad(w)[1], -H.grad(w)[0]]))
    tol = 1e-10
    tr = integrate(f, [0.5, 0.0], 0.0, 1.5 * np.pi, tol, switches=(lambda w: w[0],))
    energies = [float(H.value(tr.query(t))) for t in np.linspace(0, 1.5 * np.pi, 257)]
    assert max(abs(e - 0.5) for e in energies) < 10 * tol
    assert tr.stats.splits >= 2
