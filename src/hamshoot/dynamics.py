"""Nonautonomous ODE integration with dense output and planar winding numbers.

The integrator is a fixed Dormand-Prince 5(4) embedded pair with the standard
quartic (4th-order) continuous extension and FSAL.  Error control is mixed
absolute/relative: a step is accepted when ``|err_i| <= tol * (1 + |z_i|)``
componentwise.  A :func:`variational_field` carries the sensitivity of the
state along; error control reads the state alone, and the sensitivity rides
on its steps.  The fields treated here grow at most linearly, so no stiff
fallback is provided; a collapsing step size raises instead.

Kinked fields split steps where one state component changes sign (u = 0 for
the planar blocks); a stored trajectory is read through one evaluator of the
dense output, :meth:`Trajectory.query_many`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonfiniteStateError, OriginTooCloseError, StepUnderflowError

__all__ = [
    "VectorField", "Trajectory", "WindingReport",
    "integrate", "winding", "variational_field",
]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - b_hat, weights of the embedded 4th-order error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# quartic interpolant (Shampine); y(t0+s*h) = y0 + h * (K^T P) @ [s, s^2, s^3, s^4]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_C_FLOAT = _C.tolist()
_TINY = 16 * np.finfo(float).eps  # h_min per unit of time
_MAX_STATE = 1e8  # blowup guard: beyond this the trajectory is treated as escaping
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 1_000_000  # accepted, rejected and split steps of one integration


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, z) of dimension ``n``."""

    n: int
    f: callable

    def __call__(self, t, z):
        return self.f(t, z)


@dataclass(frozen=True)
class _Variational(VectorField):
    """A field whose first ``state_n`` components are the state proper."""

    state_n: int


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0
    nfev: int = 0
    splits: int = 0


class Trajectory:
    """Dense-output solution on [t0, t1].

    ``query_many(ts)`` evaluates the quartic interpolant of the step
    containing each time; the end points return the stored end states
    exactly.
    """

    def __init__(self, ts, ys, interpolants, stats):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self._interp = interpolants  # per step: (t_left, h, y_left, Q) or None
        self.stats = stats

    def query(self, t):
        """The state at the single time ``t``."""
        return self.query_many([t])[0]

    @cached_property
    def _steps(self):
        # the interpolants stacked per field: t_left, h, y_left, Q
        return tuple(np.array(c) for c in zip(*self._interp))

    def query_many(self, ts):
        """The state at every time of ``ts``; shape ``(len(ts), n)``."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (self.ts[0] <= ts.min() and ts.max() <= self.ts[-1]):
            raise ValueError(f"times outside [{self.ts[0]}, {self.ts[-1]}]")
        t_left, h, y_left, Q = self._steps
        k = np.minimum(np.searchsorted(self.ts, ts, side="right") - 1, len(h) - 1)
        s = (ts - t_left[k]) / h[k]
        p = np.stack([s, s * s, s ** 3, s ** 4], axis=-1)
        out = y_left[k] + h[k][:, None] * (Q[k] @ p[:, :, None])[:, :, 0]
        out[ts == self.ts[0]] = self.ys[0]
        out[ts == self.ts[-1]] = self.ys[-1]
        return out


@dataclass(frozen=True)
class WindingReport:
    """Continuous angle change of a planar component along a trajectory.

    ``delta_theta`` is the accumulated angle in the usual counterclockwise
    convention; ``turns`` counts clockwise revolutions, so a closed clockwise
    loop has ``delta_theta = -2*pi`` and ``turns = 1``.
    """

    delta_theta: float
    turns: int
    min_radius: float


def integrate(f, z0, t0, t1, tol, dense=True, switch=None):
    """Adaptive DOPRI5(4) integration of ``f`` from ``z0`` over [t0, t1].

    ``switch`` is the index of a state component, or None; accepted steps
    across which that component changes sign are cut at the crossing, so a
    piecewise smooth field with its kink on the component's zero set keeps
    full accuracy.

    Finiteness contract: ``f`` is only ever called on finite states.  A stage
    state that is not finite rejects the step (the step size is quartered)
    before ``f`` sees it.  The stage derivatives ``K[1..5]`` are not tested:
    a non-finite one makes the next stage state non-finite (every DOPRI5
    coefficient ``a_{i+1,i}`` is nonzero), so the step is rejected there, after
    the same number of calls.  The last one, ``K[6]``, is tested once per step.

    Raises :class:`StepUnderflowError` when the step collapses or the state
    exceeds the blowup guard, :class:`NonfiniteStateError` on NaN/inf states.
    """
    if not t0 < t1:
        raise ValueError("t0 must be < t1")
    z0 = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z0)):
        raise NonfiniteStateError("initial state is not finite")
    if tol <= 0:
        raise ValueError("tol must be positive")

    stats = IntegrationStats()
    n = z0.size
    # error control, the step size and the blowup guard read z[:m]
    m = f.state_n if isinstance(f, _Variational) else n
    rhs = f.f if isinstance(f, VectorField) else f

    def feval(t, z):
        stats.nfev += 1
        return np.asarray(rhs(t, z), dtype=float)

    t = t0
    y = z0.copy()
    abs_y = np.abs(y[:m])
    K = np.empty((7, n))
    K[0] = feval(t, y)
    h = _initial_step(feval, t, y, K[0], tol, t1 - t0, m)
    # KT[:, :i] is K[:i].T: views of the reused stage buffer
    KT = K.T
    KT_state = KT[:m]
    stage_sums = [KT[:, :i] for i in range(7)]

    ts = [t0]
    ys = [y]
    interpolants = []
    forced_h = None

    while t < t1:
        h = min(h, t1 - t)
        cut = forced_h is not None and forced_h <= h  # the step ends on a switch surface
        if forced_h is not None:
            h = min(h, forced_h)
            forced_h = None
        h_min = _TINY * max(abs(t), abs(t1 - t0))
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} underflowed at t={t:.6g}; suspected blowup or stiffness")
        if stats.steps + stats.rejected + stats.splits > _MAX_STEPS:
            raise StepUnderflowError(f"exceeded {_MAX_STEPS} steps")

        ratio = math.inf  # stays so, rejecting the step, if a stage is not finite
        for i in range(1, 7):
            zi = y + h * stage_sums[i].dot(_A[i])
            if not _finite(zi):
                break
            stats.nfev += 1
            K[i] = rhs(t + _C_FLOAT[i] * h, zi)
        else:
            # K[6] feeds no later stage state; without this check b_7 = 0 would
            # turn it into NaN with an invalid-value warning
            if _finite(K[6]):
                y_new = y + h * KT.dot(_B)
                err = h * KT_state.dot(_E)
                abs_new = np.abs(y_new[:m])
                scale = tol * (1.0 + np.maximum(abs_y, abs_new))
                ratio = (np.abs(err) / scale).max() if m else 0.0

        if not math.isfinite(ratio):
            stats.rejected += 1
            h *= 0.25
            continue

        if ratio <= 1.0:
            if switch is not None:
                t_cross = _first_switch_crossing(switch, t, h, y, y_new, K, h_min)
                if t_cross is not None:
                    stats.splits += 1
                    forced_h = t_cross - t
                    continue
            if dense:
                interpolants.append((t, h, y, KT.dot(_P)))
            t_new = t + h
            y_max = abs_new.max()
            if not y_max <= _MAX_STATE:
                if not math.isfinite(y_max):
                    raise NonfiniteStateError(f"state became nonfinite at t={t_new:.6g}")
                raise StepUnderflowError(
                    f"state magnitude exceeded {_MAX_STATE:.0e} at t={t_new:.6g}; suspected blowup")
            stats.steps += 1
            K[0] = K[6]  # FSAL
            if cut and m < n:
                k0 = _beyond_switch(rhs, switch, t_new, y, y_new, K[6], h_min)
                if k0 is not None:
                    stats.nfev += 1
                    K[0, m:] = k0[m:]
            t, y, abs_y = t_new, y_new, abs_new
            ts.append(t)
            ys.append(y)
            factor = _MAX_FACTOR if ratio == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ratio ** -0.2))
            h *= factor
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * ratio ** -0.2)

    return Trajectory(ts, ys, interpolants if dense else [], stats)


def _finite(a):
    # A finite sum proves every entry finite (inf - inf is NaN), and Python
    # float addition warns about nothing; only a sum that overflows falls back
    # to the exact test.
    return math.isfinite(sum(a.tolist())) or bool(np.isfinite(a).all())


def _first_switch_crossing(i, t, h, y, y_new, K, h_min):
    """Time of a strict sign change of component ``i`` inside the step, or None.

    The crossing is located on the step's own interpolant; truncating the
    step there keeps each accepted step on one smooth side of the switch
    surface.  Crossings closer to ``t`` than a few ``h_min`` are ignored
    (the step already starts at the surface).
    """
    s0, s1 = y[i], y_new[i]
    if s0 == 0.0 or s1 == 0.0 or np.sign(s0) == np.sign(s1):
        return None
    # dead band: steps that start or end (numerically) on the surface are
    # the product of an earlier truncation; re-splitting them would recurse
    # forever
    if abs(s0) <= 1e-10 * (1.0 + abs(s1)) or abs(s1) <= 1e-10 * (1.0 + abs(s0)):
        return None
    from scipy.optimize import brentq

    Q = K.T @ _P

    def component(tt):
        s = (tt - t) / h
        p = np.array([s, s * s, s ** 3, s ** 4])
        return (y + h * (Q @ p))[i]

    tc = brentq(component, t, t + h, xtol=max(h_min, 1e-15))
    return tc if tc - t > 4 * h_min else None


def _beyond_switch(rhs, i, t, y0, y, k, h_min):
    """The field just past the switch surface that the step from ``y0`` ended on at ``y``.

    The field is continuous across the surface z_i = 0, but its Jacobian is
    not, so the sensitivity part of the first stage after a crossing comes
    from the new side: the field at (t + e, y + e k) for the smallest
    e = 4 h_min 16^j, j < 6, that puts z_i on its new side; None if there is
    none or the step did not end on the surface.
    """
    s0 = y0[i]
    if s0 == 0.0 or abs(y[i]) > 1e-10 * (1.0 + abs(s0)):
        return None
    side = -math.copysign(1.0, s0)
    e = 4 * h_min
    for _ in range(6):
        z = y + e * k
        if z[i] * side > 0.0:
            return rhs(t + e, z)
        e *= 16.0
    return None


def _initial_step(feval, t0, y0, f0, tol, span, m):
    """Hairer-style starting step selection, from the components ``[:m]``."""
    scale = tol * (1.0 + np.abs(y0[:m]))
    d0 = np.max(np.abs(y0[:m]) / scale) if m else 0.0
    d1 = np.max(np.abs(f0[:m]) / scale) if m else 0.0
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = feval(t0 + h0, y1)
    d2 = np.max(np.abs(f1[:m] - f0[:m]) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def variational_field(n, fjac, cols):
    """Field of the state z in R^n and its sensitivity Phi = dz(t)/dz(t0)[:, cols] together.

    The augmented state is ``(z, Phi)`` with Phi flattened row-major
    (n-by-len(cols)); Phi' = D_z f(t, z) Phi, where ``fjac(t, z)`` returns
    ``(f(t, z), D_z f(t, z))`` (:func:`hamshoot.systems.field_jacobian`).
    Started from ``(z0, I[:, cols])``, one :func:`integrate` of it gives the
    flow and the columns ``cols`` of its Jacobian (the monodromy block),
    error-controlled by z alone.  z comes first, so a switch component index
    applies unchanged.
    """
    c = len(cols)

    def aug(t, zs):
        fz, J = fjac(t, zs[:n])
        out = np.empty(n + n * c)
        out[:n] = fz
        np.matmul(J, zs[n:].reshape(n, c), out=out[n:].reshape(n, c))
        return out

    return _Variational(n + n * c, aug, n)


def winding(traj, component_indices, min_radius):
    """Winding of the planar component ``(z[i], z[j])`` along ``traj``.

    The continuous angle is accumulated from principal atan2 increments on a
    sampling that is refined (via the dense output) until every increment is
    below pi/2.  Clockwise turns are counted positive.  Raises
    :class:`OriginTooCloseError` if the component approaches the origin closer
    than ``min_radius`` at any refined sample.
    """
    ij = list(component_indices)
    ts = traj.ts
    pts = list(traj.ys[:, ij])

    total = 0.0
    min_r = min(float(np.hypot(*p)) for p in pts)
    stack = [(ts[k], ts[k + 1], pts[k], pts[k + 1], 0) for k in range(len(ts) - 1)]
    stack.reverse()
    while stack:
        ta, tb, pa, pb, depth = stack.pop()
        ra = np.hypot(*pa)
        rb = np.hypot(*pb)
        min_r = min(min_r, float(ra), float(rb))
        if min_r < min_radius:
            raise OriginTooCloseError(
                f"planar component within {min_r:.3e} of the origin (limit {min_radius:.3e})")
        cross = pa[0] * pb[1] - pa[1] * pb[0]
        dot = pa[0] * pb[0] + pa[1] * pb[1]
        dth = np.arctan2(cross, dot)
        if abs(dth) < np.pi / 2:
            total += dth
            continue
        if depth >= 30:
            raise OriginTooCloseError(
                "winding refinement exhausted; path too close to the origin")
        tm = 0.5 * (ta + tb)
        pm = traj.query(tm)[ij]
        stack.append((tm, tb, pm, pb, depth + 1))
        stack.append((ta, tm, pa, pm, depth + 1))

    turns = int(np.floor(0.5 - total / (2 * np.pi)))
    return WindingReport(delta_theta=float(total), turns=turns, min_radius=float(min_r))
