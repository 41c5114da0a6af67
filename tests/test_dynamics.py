import bisect
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from hamshoot import dynamics
from hamshoot.config import load_config
from hamshoot.dynamics import (_P, IntegrationStats, VectorField, _brentq, integrate,
                               variational_field, winding)
from hamshoot.errors import (NonfiniteStateError, OriginTooCloseError,
                             StepUnderflowError)
from hamshoot.homogeneous import asymmetric
from hamshoot.presets import asymmetric_field, coupling_from_expr, pendulum_hamiltonian
from hamshoot.systems import CoupledSystem, assemble_field, variational

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "pendulum_oscillator.yaml"
CENTER = VectorField(2, lambda t, z: np.array([z[1], -z[0]]))
PENDULUM = VectorField(2, lambda t, z: np.array([z[1], -np.sin(z[0])]))
CENTER_JAC = lambda t, z: (CENTER(t, z), np.array([[0.0, 1.0], [-1.0, 0.0]]))
PENDULUM_JAC = lambda t, z: (PENDULUM(t, z), np.array([[0.0, 1.0], [-np.cos(z[0]), 0.0]]))


def _variational_flow(fjac, z0, T, tol, cols=(0, 1), switch=None):
    """(z(T), Phi(T), stats) of the variational flow from (z0, I[:, cols]): of
    ``fjac(t, z) -> (f, D_z f)``, or of a CoupledSystem's own variational field."""
    n, cols = len(z0), list(cols)
    aug = (variational(fjac, cols) if isinstance(fjac, CoupledSystem)
           else variational_field(n, fjac, cols))
    start = np.r_[z0, np.eye(n)[:, cols].ravel()]
    traj = integrate(aug, start, 0.0, T, tol, dense=False, switch=switch)
    return traj.ys[-1][:n], traj.ys[-1][n:].reshape(n, len(cols)), traj.stats


def _central_differences(field, z0, T, tol, switch=None):
    """Oracle: the flow Jacobian by central differences of flows, step 1e-6 (1 + |z_j|)."""
    def flow(z):
        return integrate(field, z, 0.0, T, tol, dense=False, switch=switch).ys[-1]

    J = np.empty((len(z0), len(z0)))
    for j in range(len(z0)):
        d = np.zeros(len(z0))
        d[j] = 1e-6 * (1.0 + abs(z0[j]))
        J[:, j] = (flow(z0 + d) - flow(z0 - d)) / (2 * d[j])
    return J


def _oscillator(mu=4.0, nu=1.0):
    """The asymmetric oscillator (mu, nu) as an expression-built M = 0 system."""
    F, _ = asymmetric_field(mu, nu)
    # T is the oscillator's period, the same for every amplitude
    sys_ = CoupledSystem(M=0, F=F, T=np.pi / np.sqrt(mu) + np.pi / np.sqrt(nu))
    return sys_, assemble_field(sys_), sys_.switch


def test_linear_center_endpoint():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, 1e-10)
    assert np.max(np.abs(traj.ys[-1] - [1.0, 0.0])) < 1e-8


def test_zero_field_constant():
    f = VectorField(3, lambda t, z: np.zeros(3))
    traj = integrate(f, [1.0, 2.0, 3.0], 0.0, 5.0, 1e-10)
    assert np.array_equal(traj.ys[-1], [1.0, 2.0, 3.0])


def test_empty_state_is_refused():
    with pytest.raises(ValueError, match="the state is empty"):
        integrate(VectorField(0, lambda t, z: np.zeros(0)), np.zeros(0), 0.0, 1.0, 1e-8)


def test_pendulum_equilibrium():
    traj = integrate(PENDULUM, [np.pi, 0.0], 0.0, 2 * np.pi, 1e-10)
    assert np.max(np.abs(traj.ys[-1] - [np.pi, 0.0])) < 1e-12


def _quartic_at(traj, t):
    """Reference evaluation of the dense output at one time: the quartic of
    the step holding t, y_left + h (Q @ (s, s^2, s^3, s^4))."""
    k = min(bisect.bisect_right(traj.ts, t) - 1, len(traj.ts) - 2)
    t_left, h, y_left, Q = traj._interp[k]
    s = (t - t_left) / h
    return y_left + h * (Q @ np.array([s, s * s, s ** 3, s ** 4]))


def test_query_many_matches_query():
    traj = integrate(PENDULUM, [1.0, 0.5], 0.0, 7.0, 1e-10)
    ts = np.concatenate([np.linspace(0.0, 7.0, 301), traj.ts])
    many = traj.query_many(ts)
    assert many.shape == (len(ts), 2)
    assert np.max(np.abs(many - np.array([_quartic_at(traj, t) for t in ts]))) <= 1e-14
    assert np.max(np.abs(np.array([traj.query(t) for t in ts]) - many)) <= 1e-14
    # the ends are the stored states exactly, and so is every step end
    assert np.array_equal(many[0], traj.ys[0]) and np.array_equal(many[300], traj.ys[-1])
    assert np.array_equal(traj.query_many(traj.ts), traj.ys)
    with pytest.raises(ValueError):
        traj.query_many([0.5, 7.5])


def test_variational_flow_linear_center():
    for z0 in ([1.0, 0.0], [0.3, -0.7], [-2.0, 1.5]):
        z, phi, _ = _variational_flow(CENTER_JAC, z0, 2 * np.pi, 1e-10)
        assert np.max(np.abs(z - z0)) < 1e-8 and np.max(np.abs(phi - np.eye(2))) < 1e-8
        z, phi, _ = _variational_flow(CENTER_JAC, z0, np.pi, 1e-10)
        assert np.max(np.abs(z + np.asarray(z0))) < 1e-8
        assert np.max(np.abs(phi + np.eye(2))) < 1e-8


def test_variational_flow_closed_orbit_of_asymmetric_oscillator():
    """One period of the (4, 1) oscillator: the orbit closes, and the monodromy
    keeps the flow direction and the area."""
    sys_, field, switch = _oscillator()
    z0 = np.array([0.3, 0.0])
    z, phi, _ = _variational_flow(sys_, z0, sys_.T, 1e-9, switch=switch)
    assert np.max(np.abs(z - z0)) < 1e-7
    f0 = field(0.0, z0)
    assert np.max(np.abs(phi @ f0 - f0)) < 1e-7
    assert abs(np.linalg.det(phi) - 1.0) < 1e-7


def test_query_initial_point_exact():
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 1.0, 1e-8)
    assert np.array_equal(traj.query(0.0), [1.0, 0.0])


def test_dense_output_matches_reintegration():
    tol = 1e-9
    traj = integrate(CENTER, [1.0, 0.0], 0.0, 2 * np.pi, tol)
    for t in (0.37, 1.9, 3.3, 5.1):
        again = integrate(CENTER, [1.0, 0.0], 0.0, t, tol).ys[-1]
        assert np.max(np.abs(traj.query(t) - again)) < 10 * tol


def test_monodromy_identity_cases():
    f0 = VectorField(2, lambda t, z: np.zeros(2))
    _, phi, _ = _variational_flow(lambda t, z: (f0(t, z), np.zeros((2, 2))), [0.2, -0.4], 1.0,
                                  1e-10)
    assert np.allclose(phi, np.eye(2), atol=1e-9)
    _, phi, _ = _variational_flow(CENTER_JAC, [0.5, 0.1], 2 * np.pi, 1e-12)
    assert np.max(np.abs(phi - np.eye(2))) < 1e-6


def test_monodromy_vs_central_differences():
    """Acceptance criterion: variational monodromy vs central differences of flows < 1e-5."""
    z0 = np.array([0.7, 0.3])
    _, phi, _ = _variational_flow(PENDULUM_JAC, z0, 2 * np.pi, 1e-12)
    assert np.max(np.abs(phi - _central_differences(PENDULUM, z0, 2 * np.pi, 1e-12))) < 1e-5


def test_monodromy_cols_are_columns_of_full_monodromy():
    """Error control reads the state alone, so every column set takes the same steps."""
    f = VectorField(4, lambda t, z: np.array([z[1], -np.sin(z[0]) + 0.3 * z[2], z[3], -z[2]]))

    def jac(t, z):
        return f(t, z), np.array([[0.0, 1.0, 0.0, 0.0], [-np.cos(z[0]), 0.0, 0.3, 0.0],
                                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])

    z0 = np.array([0.7, 0.3, -0.4, 0.2])
    z_full, full, stats = _variational_flow(jac, z0, 2.0, 1e-10, cols=range(4))
    plain = integrate(f, z0, 0.0, 2.0, 1e-10, dense=False)
    assert stats == plain.stats and np.max(np.abs(z_full - plain.ys[-1])) < 1e-14
    for cols in ([0, 2], [3], [2, 0, 1]):
        z, phi, st = _variational_flow(jac, z0, 2.0, 1e-10, cols=cols)
        assert st == stats and np.max(np.abs(z - z_full)) < 1e-14
        assert np.allclose(phi, full[:, cols], rtol=1e-13, atol=1e-15)


def test_monodromy_with_switches_vs_central_differences():
    """Across the u = 0 kink of an asymmetric oscillator, to the criterion-08 bound."""
    sys_, field, switch = _oscillator()
    for z0 in (np.array([0.4, 0.0]), np.array([-0.3, 0.5])):
        _, phi, stats = _variational_flow(sys_, z0, sys_.T, 1e-12, switch=switch)
        assert stats.splits >= 2
        oracle = _central_differences(field, z0, sys_.T, 1e-12, switch)
        assert np.max(np.abs(phi - oracle)) < 1e-5


@pytest.mark.parametrize("amplitude", [2.05, 0.55])
def test_monodromy_carries_the_field_across_crossings(amplitude):
    """Phi(t) f(z0) = f(z(t)) at every step end of an autonomous flow: across
    each crossing Phi integrates the Jacobian of the side it is on (from 0.55,
    a cut step's last weighted stage lands beyond the surface)."""
    sys_, field, switch = _oscillator()
    z0 = amplitude * np.array([np.cos(1.0), np.sin(1.0)])
    aug = variational(sys_, [0, 1])
    traj = integrate(aug, np.r_[z0, 1.0, 0.0, 0.0, 1.0], 0.0, sys_.T, 1e-10, dense=False,
                     switch=switch)
    assert traj.stats.splits >= 2
    f0 = field(0.0, z0)
    carried = traj.ys[:, 2:].reshape(-1, 2, 2) @ f0
    drift = np.max(np.abs(carried - field(0.0, traj.ys[:, :2].T).T))
    assert drift / (1.0 + np.max(np.abs(f0))) <= 1e-9


def _tries(monkeypatch, f, z0, T, tol):
    """Every try of a plain flow of ``f`` with the switch u: its step size and
    outcome, "accepted", "split" or "rejected", in order; and the flow."""
    calls, splits = [], {}

    def crossing(i, t, h, *args, _orig=dynamics._first_switch_crossing):
        tc = _orig(i, t, h, *args)
        splits[t + h] = h if tc is not None else None
        return tc

    monkeypatch.setattr(dynamics, "_first_switch_crossing", crossing)
    traj = integrate(lambda t, z: calls.append(t) or f(t, z), z0, 0.0, T, tol,
                     dense=False, switch=lambda t, z: z[:1])
    # two calls choose the first step; each try then makes six, the fifth at t + h
    assert (len(calls) - 2) % 6 == 0
    ends, t, tries = set(traj.ts.tolist()), 0.0, []
    for end in calls[6::6]:
        if end in ends:
            tries.append((end - t, "accepted"))
            t = end
        elif splits.get(end) is not None:
            tries.append((splits[end], "split"))
        else:
            tries.append((end - t, "rejected"))
    return tries, traj


def test_step_rules_at_crossings_and_rejections(monkeypatch):
    """The step after a cut resumes the try that the split shortened, and no
    step is longer than a rejected try until a step after the retry."""
    H = asymmetric(4.0, 1.0)
    f = VectorField(2, lambda t, w: np.array([H.grad(w)[1], -H.grad(w)[0]]))
    T = 3 * np.pi
    tries, traj = _tries(monkeypatch, f, [0.5, 0.0], T, 1e-10)
    assert len(tries) == traj.stats.steps + traj.stats.rejected + traj.stats.splits
    assert traj.stats.splits >= 4 and traj.stats.rejected >= 1
    slack = 1.0 + 1e-9
    cuts = rejects = 0
    for k, (h, outcome) in enumerate(tries[:-2]):
        after = [h2 for h2, o in tries[k + 1:] if o != "split"]
        if outcome == "split" and tries[k + 1][1] == "accepted":
            # the cut is accepted: the next try is the split one, or ends the flow
            cuts += 1
            assert after[1] * slack >= h or traj.ts[-1] == T and after[1] == tries[-1][0]
        if outcome == "rejected":
            # the accepted retry and the try after it
            rejects += 1
            retry = next(i for i, (_, o) in enumerate(tries[k + 1:]) if o == "accepted")
            assert max(h2 for h2, _ in tries[k + 1:k + retry + 3]) <= h * slack
    assert cuts >= 4 and rejects >= 1


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
    traj = integrate(f, [0.5, 0.0], 0.0, 3 * np.pi, 1e-10, switch=H.switch)
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
    tr = integrate(f, [0.5, 0.0], 0.0, 1.5 * np.pi, tol, switch=H.switch)
    energies = [float(H.value(tr.query(t))) for t in np.linspace(0, 1.5 * np.pi, 257)]
    assert max(abs(e - 0.5) for e in energies) < 10 * tol
    assert tr.stats.splits >= 2


def test_switch_without_sign_change_changes_nothing():
    """A kinked flow whose u stays positive has no splits and the steps of a
    flow without the switch, bit for bit."""
    H = asymmetric(4.0, 1.0)
    f = VectorField(2, lambda t, w: np.array([H.grad(w)[1], -H.grad(w)[0]]))
    # from (0.5, 0) the orbit reaches u = 0 at t = pi/4
    free = integrate(f, [0.5, 0.0], 0.0, 0.7, 1e-10)
    split = integrate(f, [0.5, 0.0], 0.0, 0.7, 1e-10, switch=H.switch)
    assert split.stats.splits == 0 and split.stats == free.stats
    assert np.min(split.ys[:, 0]) > 0.0
    assert np.array_equal(split.ts, free.ts) and np.array_equal(split.ys, free.ys)


def _kinked_coupling_flows(src, tol):
    """Flows over 2 pi at ``tol`` from 8 random starts of the pendulum and the
    (4, 1) oscillator coupled by the expression ``src``, with the system's switch."""
    F, _ = asymmetric_field(4.0, 1.0)
    sys_ = CoupledSystem(M=1, F=F, grad_H=pendulum_hamiltonian(),
                         grad_P=coupling_from_expr(src, 1), T=2 * np.pi)
    f, rng = assemble_field(sys_), np.random.default_rng(0)
    for _ in range(8):
        z0 = np.r_[rng.uniform(0.0, 2 * np.pi), rng.uniform(-0.6, 0.6), rng.uniform(-1.0, 1.0, 2)]
        yield sys_, z0, integrate(f, z0, 0.0, sys_.T, tol, dense=False, switch=sys_.switch)


def test_a_coupling_kink_off_the_u_axis_splits_steps_there():
    """The C^1 coupling 0.3 sin(x) pos(u - 0.2)^2 kinks at u = 0.2: every
    crossing of u = 0 or u = 0.2 between two step ends has an end on the
    surface, the cut of a split that the flow counts."""
    for sys_, _, traj in itertools.islice(
            _kinked_coupling_flows("0.3*sin(x)*pos(u - 0.2)^2", 1e-9), 4):
        # u = 0 from the oscillator, u - 0.2 from the coupling
        assert sys_.switch(0.0, np.array([1.0, 2.0, 3.0, 4.0])) == (3.0, 3.0 - 0.2)
        crossings = 0
        for g in (traj.ys[:, 2], traj.ys[:, 2] - 0.2):
            at = np.flatnonzero(np.sign(g[1:]) != np.sign(g[:-1]))
            assert np.all(np.minimum(np.abs(g[at]), np.abs(g[at + 1])) <= 1e-9)
            crossings += len(at)
        assert np.any(np.abs(traj.ys[:, 2] - 0.2) <= 1e-9)
        assert traj.stats.splits >= crossings


def test_a_coupling_kink_off_the_u_axis_keeps_the_flow_accurate():
    """At tol 1e-9 the end states lie within a median 1e-8 of flows at 1e-13
    from the same starts.  With its surface u = 0.2 split the median is
    2.7e-9, as for the smooth twin 0.3 sin(x) sin(u - 0.2) (2.8e-9); split at
    u = 0 alone, the kinked coupling's flows reach 3.7e-8."""
    src = "0.3*sin(x)*pos(u - 0.2)^2"
    errors = [np.max(np.abs(got.ys[-1] - ref.ys[-1])) for (_, _, got), (_, _, ref) in zip(
        _kinked_coupling_flows(src, 1e-9), _kinked_coupling_flows(src, 1e-13))]
    assert np.median(errors) <= 1e-8


@pytest.mark.parametrize("stage", range(1, 7))
def test_nonfinite_stage_derivative_rejects_the_step(stage):
    calls = []

    def f(t, z):
        if not np.all(np.isfinite(z)):
            raise AssertionError(f"f called on the non-finite state {z}")
        calls.append(t)
        out = np.array([z[1], -z[0]])
        if len(calls) == 2 + stage:  # calls 1 and 2 choose the first step size
            out[0] = np.inf
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(f, [1.0, 0.0], 0.0, 2 * np.pi, 1e-8, dense=False)
    # the clean run takes 63 steps and 380 calls; here the first attempt is
    # rejected after ``stage`` calls and the quartered step needs one more step
    assert traj.stats == IntegrationStats(steps=64, rejected=1, nfev=386 + stage, splits=0)
    assert np.max(np.abs(traj.ys[-1] - [1.0, 0.0])) < 1e-6


def test_demo_period_flow_counts():
    sys_ = load_config(DEMO_CONFIG).system
    traj = integrate(assemble_field(sys_), [1.0, 0.2, 0.25, 0.0], 0.0, 2 * np.pi, 1e-10,
                     dense=False, switch=sys_.switch)
    assert traj.stats == IntegrationStats(steps=219, rejected=24, nfev=1478, splits=3)
    assert traj.ys[-1] == pytest.approx(
        [0.7822632656787634, 0.47286246172068974, -0.5326905724879536, -0.4836420723482581],
        abs=1e-9)


def test_brentq_is_bitwise_scipys_on_step_interpolants():
    """The switch-splitting root finder returns bitwise scipy's ``brentq`` root
    on the quartic interpolant of random steps, at the split's xtol."""
    from scipy.optimize import brentq

    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        t, h = rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-6.0, 0.0)
        y, K = rng.normal(size=3), rng.normal(size=(7, 3))
        Q = K.T @ _P
        h_min = 10.0 ** rng.uniform(-18.0, -8.0) * h

        def component(tt):
            s = (tt - t) / h
            return (y + h * (Q @ np.array([s, s * s, s ** 3, s ** 4])))[0]

        if np.sign(component(t)) == np.sign(component(t + h)):
            continue
        xtol = max(h_min, 1e-15)
        assert _brentq(component, t, t + h, xtol) == brentq(component, t, t + h, xtol=xtol)
        checked += 1
