"""Nonautonomous ODE integration with dense output and planar winding numbers.

The integrator is a fixed Dormand-Prince 5(4) embedded pair with the standard
quartic (4th-order) continuous extension and FSAL.  Error control is mixed
absolute/relative: a step is accepted when ``|err_i| <= tol * (1 + |z_i|)``
componentwise.  A :func:`variational_field` carries the sensitivity of the
state along; error control reads the state alone, and the sensitivity rides
on its steps.  The fields treated here grow at most linearly, so no stiff
fallback is provided; a collapsing step size raises instead.

Kinked fields split steps where an entry of a switch function g(t, z), the
argument of a kink, changes sign, so that a crossing costs about one cut
step: the step after a cut resumes the step that the split shortened, and a
step accepted right after a rejection does not grow.  The sensitivity never
integrates the Jacobian of the wrong side: a cut step's last weighted stage
takes it from the side the step started on, and a step that starts on the
surface (after a cut that ended in its dead band) takes its first stage's
Jacobian from the new side and is not split there again.  A stored
trajectory is read through one evaluator of the dense output,
:meth:`Trajectory.query_many`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (IntegrationError, NonfiniteStateError, OriginTooCloseError,
                     StepUnderflowError)

__all__ = [
    "VectorField", "VariationalField", "Trajectory", "WindingReport",
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
class VariationalField(VectorField):
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

    ``switch(t, z)``, or None, returns the values g_k, read from z[:state_n],
    whose sign changes mark the field's kink surfaces; it is evaluated at step
    ends.  An accepted step across which some g_k changes sign is cut at the
    first crossing on its interpolant, so a field smooth between its surfaces
    keeps full accuracy.  The step after a cut resumes the step that the split
    shortened instead of regrowing from the cut, and, as in Hairer's DOPRI5,
    a step accepted right after a rejection does not grow.  A cut that ends
    within 1e-10 (1 + |g_k|) of its surface, g_k at the cut step's start,
    puts the next step on that surface, where it is not split again.  For a
    :class:`VariationalField` the sensitivity part of a stage on or beyond
    the surface comes from the side it belongs to (:func:`_nudge`): the
    cut step's last weighted stage (c = 1) from the side the step started
    on, the first stage of a step on the surface from the new side.

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
    m = f.state_n if isinstance(f, VariationalField) else n
    if m == 0:
        raise ValueError("the state is empty")
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
    # g: switch values at the step's start; cut: the surface the try ends on,
    # shortened by a split from the try h_split; on_switch: the surface the step
    # starts on (after a cut); after_reject: a try here was rejected for error
    g = g_new = None if switch is None else switch(t, y)
    cut = on_switch = None
    after_reject = False

    while t < t1:
        h = min(h, t1 - t)
        h_min = _TINY * max(abs(t), abs(t1 - t0))
        if h < h_min:
            raise StepUnderflowError(
                f"step size {h:.3e} underflowed at t={t:.6g}; suspected blowup or stiffness")
        if stats.steps + stats.rejected + stats.splits > _MAX_STEPS:
            raise StepUnderflowError(f"exceeded {_MAX_STEPS} steps")
        # the side of the surface that a cut step starts on
        side = 0.0 if cut is None else math.copysign(1.0, g[cut])

        ratio = math.inf  # stays so, rejecting the step, if a stage is not finite
        for i in range(1, 7):
            zi = y + h * stage_sums[i].dot(_A[i])
            if not _finite(zi):
                break
            stats.nfev += 1
            K[i] = rhs(t + _C_FLOAT[i] * h, zi)
            if i == 5 and cut is not None and m < n:
                # the last weighted stage (c = 1) keeps the Jacobian of the start side
                e = _nudge(switch, cut, side, t + h, zi, K[5], h_min)
                if e:
                    stats.nfev += 1
                    K[5, m:] = rhs(t + h + e, zi + e * K[5])[m:]
        else:
            # K[6] feeds no later stage state; without this check b_7 = 0 would
            # turn it into NaN with an invalid-value warning
            if _finite(K[6]):
                y_new = y + h * KT.dot(_B)
                err = h * KT_state.dot(_E)
                abs_new = np.abs(y_new[:m])
                scale = tol * (1.0 + np.maximum(abs_y, abs_new))
                ratio = (np.abs(err) / scale).max()

        if not math.isfinite(ratio):
            stats.rejected += 1
            h *= 0.25
            cut = None
            continue

        if ratio <= 1.0:
            if switch is not None:
                g_new = switch(t + h, y_new)
                crossing = _first_switch_crossing(switch, t, h, y, K, g, g_new, on_switch, h_min)
                if crossing is not None:
                    stats.splits += 1
                    h_split, (h, cut) = h if cut is None else h_split, crossing
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
            # the next step starts on the surface if this cut ended in its dead band
            on_switch = cut if cut is not None and _on_surface(g_new[cut], g[cut]) else None
            if on_switch is not None and m < n:
                # then its first stage takes the Jacobian from the new side
                e = _nudge(switch, cut, -side, t_new, y_new, K[6], h_min)
                if e:
                    stats.nfev += 1
                    K[0, m:] = rhs(t_new + e, y_new + e * K[6])[m:]
            t, y, abs_y, g = t_new, y_new, abs_new, g_new
            ts.append(t)
            ys.append(y)
            # a step right after a rejection does not grow; one after a cut
            # resumes the try that the split shortened
            grow = 1.0 if after_reject else _MAX_FACTOR
            factor = grow if ratio == 0.0 else min(
                grow, max(_MIN_FACTOR, _SAFETY * ratio ** -0.2))
            h = h * factor if cut is None else h_split
            cut, after_reject = None, False
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * ratio ** -0.2)
            cut, after_reject = None, True

    return Trajectory(ts, ys, interpolants if dense else [], stats)


def _finite(a):
    # A finite sum proves every entry finite (inf - inf is NaN), and Python
    # float addition warns about nothing; only a sum that overflows falls back
    # to the exact test.
    return math.isfinite(sum(a.tolist())) or bool(np.isfinite(a).all())


def _first_switch_crossing(switch, t, h, y, K, g0, g1, skip, h_min):
    """(h_c, k) of the first strict sign change of an entry g_k of ``switch``,
    g0 at the step's start and g1 at its end, located at t + h_c on the step's
    interpolant; or None.  A step that ends (numerically) on a surface is kept
    whole, and one that starts there, on ``skip``, is not split there: one rule,
    _on_surface, decides both.  Crossings within a few ``h_min`` of t are ignored.
    """
    ks = [k for k, (s0, s1) in enumerate(zip(g0, g1))
          if k != skip and s0 * s1 < 0.0 and not _on_surface(s1, s0)]
    if not ks:
        return None
    Q = K.T @ _P

    def entry(tt, k):
        s = (tt - t) / h
        return switch(tt, y + h * (Q @ np.array([s, s * s, s ** 3, s ** 4])))[k]

    roots = [(tc - t, k) for k in ks
             for tc in [_brentq(lambda tt: entry(tt, k), t, t + h, max(h_min, 1e-15))]
             if tc is not None and tc - t > 4 * h_min]
    return min(roots, default=None)


def _on_surface(s, s0):
    """Whether the switch value ``s`` of a step's end, started at ``s0``,
    lies (numerically) on its surface: in the dead band 1e-10 (1 + |s0|)."""
    return abs(s) <= 1e-10 * (1.0 + abs(s0))


def _brentq(f, a, b, xtol):
    """A root of ``f`` in [a, b] by Brent's method, or None if f(a) and f(b)
    have one sign: scipy's C ``brentq`` line for line, with its default rtol
    and iteration limit, so the root is bitwise scipy's."""
    rtol, maxiter = 4 * np.finfo(float).eps, 100
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise IntegrationError(f"no switch crossing located in [{a:.17g}, {b:.17g}] "
                           f"after {maxiter} iterations")


def _nudge(switch, k, side, t, z, dz, h_min):
    """The offset e that puts g_k of ``switch`` at (t + e, z + e dz) on ``side``
    (+1 or -1) of its surface.

    The field is continuous across the surface, but its Jacobian is not, so
    a stage on or beyond the surface whose sensitivity part must come from
    one side takes it at (t + e, z + e dz).  e is 0 if g_k(t, z) is on
    ``side``, else the e = +-4 h_min 16^j, j < 6, of least size that puts it
    there, + first (for g_k affine in z only one sign can); None if none does.
    """
    for e in (0.0, *(sign * 4 * h_min * 16.0 ** j for j in range(6) for sign in (1.0, -1.0))):
        if switch(t + e, z + e * dz)[k] * side > 0.0:
            return e
    return None


def _initial_step(feval, t0, y0, f0, tol, span, m):
    """Hairer-style starting step selection, from the components ``[:m]``."""
    scale = tol * (1.0 + np.abs(y0[:m]))
    d0 = np.max(np.abs(y0[:m]) / scale)
    d1 = np.max(np.abs(f0[:m]) / scale)
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
    ``(f(t, z), D_z f(t, z))``, for systems with a plain-callable block by
    forward differences (:func:`hamshoot.systems.field_jacobian`; expression-
    built ones compile f and D_z f Phi into one function instead).  Started
    from ``(z0, I[:, cols])``, one :func:`integrate` of it gives the flow and
    the columns ``cols`` of its Jacobian (the monodromy block), error-controlled
    by z alone.  z comes first, so a switch that reads z[:n] applies unchanged.
    """
    c = len(cols)

    def aug(t, zs):
        fz, J = fjac(t, zs[:n])
        out = np.empty(n + n * c)
        out[:n] = fz
        np.matmul(J, zs[n:].reshape(n, c), out=out[n:].reshape(n, c))
        return out

    return VariationalField(n + n * c, aug, n)


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
