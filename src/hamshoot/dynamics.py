"""Nonautonomous ODE integration with dense output and planar winding numbers.

The integrator is a fixed Dormand-Prince 5(4) embedded pair with the standard
quartic (4th-order) continuous extension and FSAL.  Error control is mixed
absolute/relative: a step is accepted when ``|err_i| <= tol * (1 + |z_i|)``
componentwise.  The fields treated here grow at most linearly, so no stiff
fallback is provided; a collapsing step size raises instead.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonfiniteStateError, OriginTooCloseError, StepUnderflowError

__all__ = [
    "VectorField", "Trajectory", "WindingReport",
    "integrate", "flow_map", "flow_jacobian", "winding", "variational_field",
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

_MAX_STATE = 1e8  # blowup guard: beyond this the trajectory is treated as escaping
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, z) of dimension ``n``."""

    n: int
    f: callable

    def __call__(self, t, z):
        return self.f(t, z)


@dataclass
class IntegrationStats:
    steps: int = 0
    rejected: int = 0
    nfev: int = 0
    splits: int = 0


class Trajectory:
    """Dense-output solution on [t0, t1].

    ``query(t)`` evaluates the quartic interpolant of the step containing
    ``t``; ``query(t0)`` returns the initial state exactly.
    """

    def __init__(self, ts, ys, interpolants, stats):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self._interp = interpolants  # per step: (t_left, h, y_left, Q) or None
        self.stats = stats

    @property
    def t0(self):
        return self.ts[0]

    @property
    def t1(self):
        return self.ts[-1]

    def query(self, t):
        if not (self.ts[0] <= t <= self.ts[-1]):
            raise ValueError(f"t={t} outside [{self.ts[0]}, {self.ts[-1]}]")
        if t == self.ts[0]:
            return self.ys[0].copy()
        if t == self.ts[-1]:
            return self.ys[-1].copy()
        k = bisect.bisect_right(self.ts, t) - 1
        k = min(k, len(self._interp) - 1)
        t_left, h, y_left, Q = self._interp[k]
        s = (t - t_left) / h
        p = np.array([s, s * s, s ** 3, s ** 4])
        return y_left + h * (Q @ p)

    @cached_property
    def _steps(self):
        # the interpolants stacked per field: t_left, h, y_left, Q
        return tuple(np.array(c) for c in zip(*self._interp))

    def query_many(self, ts):
        """``query`` at every time of ``ts`` at once; shape ``(len(ts), n)``."""
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


def integrate(f, z0, t0, t1, tol, max_steps=1_000_000, dense=True, switches=()):
    """Adaptive DOPRI5(4) integration of ``f`` from ``z0`` over [t0, t1].

    ``switches`` is a tuple of scalar functions of the state; accepted steps
    across which a switch changes sign are cut at the crossing, so piecewise
    smooth fields (kinks on a switch's zero set) keep full accuracy.

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
    rhs = f.f if isinstance(f, VectorField) else f

    def feval(t, z):
        stats.nfev += 1
        return np.asarray(rhs(t, z), dtype=float)

    t = t0
    y = z0.copy()
    k1 = feval(t, y)
    h = _initial_step(feval, t, y, k1, tol, t1 - t0)

    ts = [t0]
    ys = [z0.copy()]
    interpolants = []
    K = np.empty((7, n))
    forced_h = None

    while t < t1:
        h = min(h, t1 - t)
        if forced_h is not None:
            h = min(h, forced_h)
            forced_h = None
        h_min = 16 * np.finfo(float).eps * max(abs(t), abs(t1 - t0))
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} underflowed at t={t:.6g}; suspected blowup or stiffness")
        if stats.steps + stats.rejected + stats.splits > max_steps:
            raise StepUnderflowError(f"exceeded {max_steps} steps")

        K[0] = k1
        bad_stage = False
        for i in range(1, 7):
            zi = y + h * (K[:i].T @ _A[i])
            if not np.all(np.isfinite(zi)):
                bad_stage = True
                break
            K[i] = feval(t + _C[i] * h, zi)
            if not np.all(np.isfinite(K[i])):
                bad_stage = True
                break

        if bad_stage:
            stats.rejected += 1
            h *= 0.25
            continue

        y_new = y + h * (K.T @ _B)
        err = h * (K.T @ _E)
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        ratio = np.max(np.abs(err) / scale) if n else 0.0

        if not np.isfinite(ratio):
            stats.rejected += 1
            h *= 0.25
            continue

        if ratio <= 1.0:
            if switches:
                t_cross = _first_switch_crossing(switches, t, h, y, K, h_min)
                if t_cross is not None:
                    stats.splits += 1
                    forced_h = t_cross - t
                    continue
            if dense:
                interpolants.append((t, h, y.copy(), K.T @ _P))
            t_new = t + h
            if not np.all(np.isfinite(y_new)):
                raise NonfiniteStateError(f"state became nonfinite at t={t_new:.6g}")
            if np.max(np.abs(y_new)) > _MAX_STATE:
                raise StepUnderflowError(
                    f"state magnitude exceeded {_MAX_STATE:.0e} at t={t_new:.6g}; suspected blowup")
            stats.steps += 1
            k1 = K[6].copy()  # FSAL; copy: K is a reused buffer
            t, y = t_new, y_new
            ts.append(t)
            ys.append(y.copy())
            factor = _MAX_FACTOR if ratio == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ratio ** -0.2))
            h *= factor
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * ratio ** -0.2)

    return Trajectory(ts, ys, interpolants if dense else [], stats)


def _first_switch_crossing(switches, t, h, y, K, h_min):
    """Earliest strict sign change of any switch inside the step, or None.

    The crossing is located on the step's own interpolant; truncating the
    step there keeps each accepted step on one smooth side of the switch
    surface.  Crossings closer to ``t`` than a few ``h_min`` are ignored
    (the step already starts at the surface).
    """
    from scipy.optimize import brentq

    Q = K.T @ _P

    def state(tt):
        s = (tt - t) / h
        p = np.array([s, s * s, s ** 3, s ** 4])
        return y + h * (Q @ p)

    best = None
    y_end = state(t + h)
    for sw in switches:
        s0 = sw(y)
        s1 = sw(y_end)
        if s0 == 0.0 or s1 == 0.0 or np.sign(s0) == np.sign(s1):
            continue
        # dead band: steps that start or end (numerically) on the surface are
        # the product of an earlier truncation; re-splitting them would
        # recurse forever
        if abs(s0) <= 1e-10 * (1.0 + abs(s1)) or abs(s1) <= 1e-10 * (1.0 + abs(s0)):
            continue
        tc = brentq(lambda tt: sw(state(tt)), t, t + h, xtol=max(h_min, 1e-15))
        if tc - t > 4 * h_min and (best is None or tc < best):
            best = tc
    return best


def _initial_step(feval, t0, y0, f0, tol, span):
    """Hairer-style starting step selection."""
    scale = tol * (1.0 + np.abs(y0))
    d0 = np.max(np.abs(y0) / scale) if y0.size else 0.0
    d1 = np.max(np.abs(f0) / scale) if y0.size else 0.0
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = feval(t0 + h0, y1)
    d2 = np.max(np.abs(f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def flow_map(f, z0, T, tol, t0=0.0):
    """State reached at time ``t0 + T`` starting from ``z0`` at ``t0``."""
    traj = integrate(f, z0, t0, t0 + T, tol, dense=False)
    return traj.ys[-1]


def flow_jacobian(f, z0, T, tol, fd_step=1e-6, t0=0.0, switches=(), cols=None):
    """Jacobian of the time-T flow map by central finite differences.

    Column ``j`` perturbs ``z0[j]`` by ``fd_step * (1 + |z0[j]|)``.  ``cols``
    selects the columns to compute (all by default); ``switches`` is passed
    to :func:`integrate`.
    """
    z0 = np.asarray(z0, dtype=float)
    cols = range(z0.size) if cols is None else cols

    def flow(z):
        return integrate(f, z, t0, t0 + T, tol, dense=False, switches=switches).ys[-1]

    J = np.empty((z0.size, len(cols)))
    for k, j in enumerate(cols):
        d = fd_step * (1.0 + abs(z0[j]))
        zp = z0.copy()
        zp[j] += d
        zm = z0.copy()
        zm[j] -= d
        J[:, k] = (flow(zp) - flow(zm)) / (2 * d)
    return J


def variational_field(f, jac, n):
    """Augmented field integrating z and its variational matrix together.

    ``jac(t, z)`` is the n-by-n Jacobian of f; the state layout is
    ``(z, vec(M))`` with ``M' = jac(t, z) M``.  Used as an independent oracle
    for :func:`flow_jacobian`.
    """
    rhs = f.f if isinstance(f, VectorField) else f

    def aug(t, zM):
        z = zM[:n]
        M = zM[n:].reshape(n, n)
        dz = np.asarray(rhs(t, z), dtype=float)
        dM = np.asarray(jac(t, z), dtype=float) @ M
        return np.concatenate([dz, dM.ravel()])

    return VectorField(n + n * n, aug)


def winding(traj, component_indices, min_radius):
    """Winding of the planar component ``(z[i], z[j])`` along ``traj``.

    The continuous angle is accumulated from principal atan2 increments on a
    sampling that is refined (via the dense output) until every increment is
    below pi/2.  Clockwise turns are counted positive.  Raises
    :class:`OriginTooCloseError` if the component approaches the origin closer
    than ``min_radius`` at any refined sample.
    """
    i, j = component_indices

    def planar(t):
        z = traj.query(t)
        return np.array([z[i], z[j]])

    ts = list(traj.ts)
    if len(ts) < 2:
        ts = [traj.t0, traj.t1]
    pts = [planar(t) for t in ts]

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
        pm = planar(tm)
        stack.append((tm, tb, pm, pb, depth + 1))
        stack.append((ta, tm, pa, pm, depth + 1))

    turns = int(np.floor(0.5 - total / (2 * np.pi)))
    return WindingReport(delta_theta=float(total), turns=turns, min_radius=float(min_r))
