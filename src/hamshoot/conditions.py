"""Numerical checks of the multiplicity theorems' hypotheses.

* resonance classification of (tau1, tau2, T) into the four regimes,
* the coupling-gradient bound m_bar (empirical maximum over quasi-random
  samples: a lower bound on the true sup, reported as such),
* Landesman-Lazer margins, estimating the lower limits by tail minima over a
  finite schedule of amplitudes (an upper bound of the true liminf; the
  report carries the tail dispersion so convergence can be judged),
* the three twist-type boundary conditions, checked against a user-supplied
  ensemble of frozen planar paths.  These are falsifiers: a violation
  disproves the hypothesis, passing is evidence only, since the hypotheses
  quantify over all C^1 paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import VectorField, integrate
from .errors import (DimensionMismatchError, IntegrationError, IntegrationOverflowError,
                     SingularMatrixError)
from .systems import assemble_field, grid_axis, halton

__all__ = [
    "ResonanceTag", "ResonanceClass", "classify_resonance",
    "estimate_mbar", "SampleBox",
    "LLReport", "ll_margin", "scalar_ll", "AsymmetricEigenfunction",
    "TwistReport", "twist_check", "avoiding_rays_check", "indefinite_twist_check",
    "check_twist_matrix", "Ball", "constant_path", "fourier_paths", "frozen_subsystem",
]


# --------------------------------------------------------------------------
# resonance classification
# --------------------------------------------------------------------------

class ResonanceTag(Enum):
    NONRESONANT = "Nonresonant"
    SIMPLE_BELOW = "SimpleBelow"
    SIMPLE_ABOVE = "SimpleAbove"
    DOUBLE = "Double"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ResonanceClass:
    tag: ResonanceTag
    N: int | None

    def __str__(self):
        if self.N is None:
            return self.tag.value
        return f"{self.tag.value}(N={self.N})"


def classify_resonance(tau1, tau2, T, tol=1e-9):
    """Classify the period pair against the window (T/(N+1), T/N).

    Equality means agreement within ``tol * T``; strict means beyond it.
    Requires tau2 <= tau1 (the ordering induced by H1 <= H2), otherwise
    NotApplicable.  Exactly one regime matches:

    * Double: tau2 = T/(N+1) and tau1 = T/N,
    * SimpleBelow: tau1 = T/N, T/(N+1) < tau2,
    * SimpleAbove: tau2 = T/(N+1), tau1 < T/N,
    * Nonresonant: T/(N+1) < tau2 <= tau1 < T/N.
    """
    if not (tau1 > 0 and tau2 > 0 and T > 0):
        raise ValueError("tau1, tau2, T must be positive")
    band = tol * T
    if tau2 > tau1 + band:
        return ResonanceClass(ResonanceTag.NOT_APPLICABLE, None)
    n_max = int(np.ceil(T / min(tau1, tau2))) + 1
    for N in range(1, n_max + 1):
        lo = T / (N + 1)
        hi = T / N
        t1_eq = abs(tau1 - hi) <= band
        t1_lt = tau1 < hi - band
        t2_eq = abs(tau2 - lo) <= band
        t2_gt = tau2 > lo + band
        if t1_eq and t2_eq:
            return ResonanceClass(ResonanceTag.DOUBLE, N)
        if t1_eq and t2_gt:
            return ResonanceClass(ResonanceTag.SIMPLE_BELOW, N)
        if t2_eq and t1_lt:
            return ResonanceClass(ResonanceTag.SIMPLE_ABOVE, N)
        if t2_gt and t1_lt:
            return ResonanceClass(ResonanceTag.NONRESONANT, N)
    return ResonanceClass(ResonanceTag.NOT_APPLICABLE, None)


# --------------------------------------------------------------------------
# coupling gradient bound
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned sampling box for (t, x, y, w)."""

    t_range: tuple
    x_ranges: tuple
    y_ranges: tuple
    w_ranges: tuple = ((-1.0, 1.0), (-1.0, 1.0))

    @property
    def bounds(self):
        return (self.t_range,) + tuple(self.x_ranges) + tuple(self.y_ranges) \
            + tuple(self.w_ranges)


def estimate_mbar(grad_P_w, box, n_samples=10000, seed=0):
    """Empirical max of |grad_w P| over Halton samples of the box.

    A lower bound on the true supremum; callers may override with an
    analytic value when one is known.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    bounds = box.bounds if isinstance(box, SampleBox) else tuple(box)
    dim = len(bounds)
    M = (dim - 3) // 2
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    pts = halton(n_samples, dim, seed)
    pts = lo + pts * (hi - lo)
    best = 0.0
    for row in pts:
        t = row[0]
        x = row[1:1 + M]
        y = row[1 + M:1 + 2 * M]
        w = row[1 + 2 * M:]
        g = np.asarray(grad_P_w(t, x, y, w), dtype=float)
        best = max(best, float(np.hypot(g[0], g[1])))
    return best


# --------------------------------------------------------------------------
# Landesman-Lazer margins
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LLReport:
    """Per-point margins of a Landesman-Lazer inequality.

    ``rows`` holds (label, lhs, rhs, margin, tail_dispersion); for the planar
    check the label is theta, for the scalar check there is a single row.
    The inequality holds (numerically) iff every margin is positive.
    """

    rows: tuple
    mbar: float

    @property
    def margins(self):
        return np.array([r[3] for r in self.rows])

    @property
    def passed(self):
        return bool(np.all(self.margins > 0.0))

    @property
    def min_margin(self):
        return float(np.min(self.margins))


_LAMBDAS = tuple(np.logspace(2.0, 6.0, 9))  # default amplitude schedule


def _tail(schedule):
    return np.asarray(schedule)[len(schedule) // 2:]


def ll_margin(sys, which, orbit, theta_grid=None, lambda_schedule=None,
              s_halfwidth=None, s_points=5, mbar=0.0, t_nodes=512):
    """Landesman-Lazer margin along a homogeneous reference orbit.

    For each theta the inner lower limit of

        <F(t, lambda phi(t+s)), phi(t+s)> - 2 lambda H(phi(t))      (lower)
        2 lambda H(psi(t)) - <F(t, lambda psi(t+s)), psi(t+s)>      (upper)

    is estimated per t by the minimum over s near theta and the tail half of
    the lambda schedule, then integrated over the time window (the period
    [0, T] or the Neumann interval [a, b]) and compared with
    mbar * integral |phi|.  ``orbit`` must be the reference orbit of the
    matching Hamiltonian (H1 for "lower", H2 for "upper").
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    t0, span = sys.t0, sys.span
    lam = _tail(lambda_schedule if lambda_schedule is not None else _LAMBDAS)
    if theta_grid is None:
        theta_grid = t0 + np.linspace(0.0, span, 64, endpoint=False)
    delta = s_halfwidth if s_halfwidth is not None else orbit.tau / 64.0
    ts = t0 + np.linspace(0.0, span, t_nodes + 1)

    phi_t = orbit.points(ts)                       # (2, nt)
    h_t = np.asarray(orbit.H.value(phi_t), dtype=float)
    norm_phi = np.hypot(phi_t[0], phi_t[1])
    rhs = mbar * float(np.trapezoid(norm_phi, ts))

    F = _vectorized_field(sys.F)

    rows = []
    ts_all = np.tile(ts, len(lam))
    for theta in np.atleast_1d(theta_grid):
        shifts = theta + grid_axis(-delta, delta, s_points)
        # e has shape (n_s, n_lambda, nt)
        e = np.empty((len(shifts), len(lam), len(ts)))
        for i, s in enumerate(shifts):
            phi_s = orbit.points(ts + s)           # (2, nt)
            # one field call over every amplitude of the tail: (2, n_lambda * nt)
            w = (lam[:, None] * phi_s[:, None]).reshape(2, -1)
            try:
                Fv = _field_at(F, ts_all, w, lam[0])
            except IntegrationOverflowError:
                for lm in lam:                     # name the first amplitude that overflows
                    _field_at(F, ts, lm * phi_s, lm)
                raise
            Fv = Fv.reshape(2, len(lam), len(ts))
            inner = Fv[0] * phi_s[0] + Fv[1] * phi_s[1]
            if which == "lower":
                e[i] = inner - 2.0 * lam[:, None] * h_t
            else:
                e[i] = 2.0 * lam[:, None] * h_t - inner
        per_t_by_lambda = e.min(axis=0)            # (n_lambda, nt): min over s
        per_t = per_t_by_lambda.min(axis=0)
        lhs = float(np.trapezoid(per_t, ts))
        spread = per_t_by_lambda.max(axis=0) - per_t_by_lambda.min(axis=0)
        dispersion = float(np.trapezoid(spread, ts))
        rows.append((float(theta), lhs, rhs, lhs - rhs, dispersion))
    return LLReport(rows=tuple(rows), mbar=mbar)


def _field_at(F, ts, w, amplitude):
    """F(ts, w); an overflow or a non-finite value raises, naming ``amplitude``."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            Fv = F(ts, w)
        except FloatingPointError:
            Fv = None
    if Fv is None or not np.all(np.isfinite(Fv)):
        raise IntegrationOverflowError(f"field evaluation overflowed at amplitude {amplitude:g}")
    return Fv


def _vectorized_field(F):
    """F(t, w) on (2, n) points, one t each; another result shape raises."""

    def call(ts, w):
        out = np.asarray(F(ts, w), dtype=float)
        if out.shape != w.shape:
            raise DimensionMismatchError(
                f"F(t, w) returned shape {out.shape} for points of shape {w.shape}")
        return out

    return call


# --------------------------------------------------------------------------
# scalar specialization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymmetricEigenfunction:
    """Nontrivial solution of phi'' + mu phi+ - nu phi- = 0.

    Piecewise sinusoid of period pi/sqrt(mu) + pi/sqrt(nu): a positive hump
    A sin(sqrt(mu) s) followed by a negative hump of matched slope.
    """

    mu: float
    nu: float
    amplitude: float = 1.0
    phase: float = 0.0

    @property
    def period(self):
        return np.pi / np.sqrt(self.mu) + np.pi / np.sqrt(self.nu)

    def value(self, t):
        smu, snu = np.sqrt(self.mu), np.sqrt(self.nu)
        tp = np.pi / smu
        s = np.mod(np.asarray(t, dtype=float) - self.phase, self.period)
        pos = self.amplitude * np.sin(smu * s)
        neg = -self.amplitude * (smu / snu) * np.sin(snu * (s - tp))
        return np.where(s < tp, pos, neg)

    def zeros(self, t0, t1):
        """Sorted zeros (sign changes) in [t0, t1]."""
        smu = np.sqrt(self.mu)
        tp = np.pi / smu
        out = []
        k = int(np.floor((t0 - self.phase) / self.period)) - 1
        while True:
            base = self.phase + k * self.period
            for z in (base, base + tp):
                if t0 <= z <= t1:
                    out.append(z)
                if z > t1:
                    return sorted(out)
            k += 1


def scalar_ll(g, mu, nu, T, amplitude=1.0, phase=0.0, asymptotes=None,
              mbar=0.0, side="lower", lambda_schedule=None):
    """Landesman-Lazer margin for the scalar equation u'' + g(t, u) = 0.

    With ``side="lower"`` tests, along phi solving phi'' + mu phi+ - nu phi- = 0,

        int_{phi<0} liminf_{u->-inf} [nu u - g(t,u)] |phi| dt
        + int_{phi>0} liminf_{u->+inf} [g(t,u) - mu u] phi dt  >  mbar int |phi|,

    and ``side="upper"`` the mirrored inequality (signs of the brackets
    swapped), with (mu, nu) then being the upper stiffness pair.  Integrals
    split at the known zeros of phi; the lower limits are estimated by tail
    minima over the amplitude schedule unless ``asymptotes = (neg_map,
    pos_map)`` supplies them directly as functions of t.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    phi = AsymmetricEigenfunction(mu, nu, amplitude, phase)
    lam = _tail(lambda_schedule if lambda_schedule is not None else _LAMBDAS)

    cuts = [0.0] + [z for z in phi.zeros(0.0, T) if 0.0 < z < T] + [T]
    lhs = 0.0
    total_abs = 0.0
    dispersion = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 1e-14:
            continue
        ts = np.linspace(a, b, 513)  # 512 Simpson intervals per arc
        ph = phi.value(ts)
        positive_arc = phi.value(0.5 * (a + b)) > 0.0
        weight = ph if positive_arc else np.abs(ph)
        if asymptotes is not None:
            neg_map, pos_map = asymptotes
            vals = np.asarray(pos_map(ts) if positive_arc else neg_map(ts), dtype=float)
            vals = np.broadcast_to(vals, ts.shape)
            spread = np.zeros_like(ts)
        else:
            per_lam = np.empty((len(lam), len(ts)))
            for j, lm in enumerate(lam):
                if positive_arc:
                    bracket = (g(ts, lm) - mu * lm) if side == "lower" \
                        else (mu * lm - g(ts, lm))
                else:
                    bracket = (nu * (-lm) - g(ts, -lm)) if side == "lower" \
                        else (g(ts, -lm) - nu * (-lm))
                per_lam[j] = bracket
            vals = per_lam.min(axis=0)
            spread = per_lam.max(axis=0) - per_lam.min(axis=0)
        lhs += _simpson(vals * weight, ts)
        dispersion += _simpson(spread * np.abs(weight), ts)
        total_abs += _simpson(np.abs(ph), ts)
    rhs = mbar * total_abs
    rows = ((0.0, lhs, rhs, lhs - rhs, dispersion),)
    return LLReport(rows=rows, mbar=mbar)


def _simpson(y, x):
    """``scipy.integrate.simpson(y, x=x)`` for an odd number of points: the
    composite rule for irregular spacing in scipy's arithmetic, zero spacings
    included, so the sum is bitwise scipy's."""
    h = np.diff(x)
    h0, h1 = h[::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = np.divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    return float(np.sum(hsum / 6.0 * (
        y[:-2:2] * (2.0 - np.divide(1.0, h0divh1, out=np.zeros_like(h0), where=h0divh1 != 0))
        + y[1:-1:2] * (hsum * np.divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0))
        + y[2::2] * (2.0 - h0divh1))))


# --------------------------------------------------------------------------
# twist-type checks
# --------------------------------------------------------------------------

def constant_path(w0):
    w0 = np.asarray(w0, dtype=float)
    return lambda t: w0


def fourier_paths(count, amplitude, modes, T, seed=0):
    """Random truncated Fourier paths [0, T] -> R^2 with sup norm <= amplitude."""
    rng = np.random.default_rng(seed)
    freqs = 2 * np.pi * np.arange(1, modes + 1) / T
    paths = []
    for _ in range(count):
        coef = rng.standard_normal((2, modes, 2))
        coef *= amplitude / np.abs(coef).sum()

        def path(t, coef=coef):
            c, s = np.cos(freqs * t), np.sin(freqs * t)
            return coef[:, :, 0] @ c + coef[:, :, 1] @ s

        paths.append(path)
    return paths


def frozen_subsystem(sys, paths, columns=None):
    """(x, y) subsystem of B samples, column j with its planar component
    frozen to ``paths[columns[j]]`` (default: path j), on the (2M, B) state
    flattened row-major: the (x, y) part of the assembled field at (x, y,
    path(t)), called once on all columns.  One path alone gives the field of
    one sample, on (x, y) of shape (2M,).
    """
    M = sys.M
    f = assemble_field(sys).f
    columns = np.arange(len(paths)) if columns is None else np.asarray(columns)
    B = len(columns)

    def frozen(t, xy):
        w = np.array([path(t) for path in paths])[columns].T
        return f(t, np.concatenate([xy.reshape(2 * M, B), w]))[:2 * M].reshape(xy.shape)

    return VectorField(2 * M * B, frozen)


@dataclass(frozen=True)
class TwistReport:
    samples: tuple            # (description, tested value, ok)
    violations: tuple

    @property
    def passed(self):
        return len(self.violations) == 0


def _x_grid(M, points):
    axis = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    return [np.array(c) for c in itertools.product(*([axis] * M))]


def _drift_check(sys, name, pairs, ensemble, x_points, judge):
    """Run every frozen path from every (label, y0, outward normal nu) of
    ``pairs`` and every x0 of the grid, and judge the drift x(T) - x(0).

    ``judge(drift, nu)`` returns (tested value, ok, what a violation reads).
    All samples run as one flow of the stacked :func:`frozen_subsystem` at
    tolerance 1e-8, whose shared steps keep each component within its own
    error bound (drifts move by at most 1.3e-7 against one flow per sample
    on the demo config).  If it fails, each sample runs alone, and one whose
    flow fails violates the solutions being defined on [0, T].  A check with
    no x0, no path or no face/boundary sample raises ValueError: it would
    pass on zero samples.
    """
    if sys.mode != "periodic":
        raise ValueError(f"{name} check applies to periodic mode")
    M = sys.M
    grid = _x_grid(M, x_points)
    if not (grid and ensemble and pairs):
        raise ValueError(f"{name} check needs at least one x0, one path and one "
                         f"face/boundary sample")
    runs = [(p_idx, f"path{p_idx} {label} x0={np.round(x0, 3)}", np.concatenate([x0, y0]), nu)
            for p_idx in range(len(ensemble)) for label, y0, nu in pairs for x0 in grid]

    def flow(chosen):
        """The states at T of the samples ``chosen``, one row each."""
        f = frozen_subsystem(sys, ensemble, [run[0] for run in chosen])
        z0 = np.array([run[2] for run in chosen]).T.reshape(-1)
        return integrate(f, z0, 0.0, sys.T, 1e-8, dense=False).ys[-1].reshape(2 * M, -1).T

    try:
        ends = flow(runs)
    except IntegrationError:
        ends = []
        for run in runs:
            try:
                ends.append(flow([run])[0])
            except IntegrationError as exc:
                ends.append(exc)
    samples = []
    violations = []
    for (_, desc, z0, nu), end in zip(runs, ends):
        if isinstance(end, IntegrationError):
            val, ok, why = np.nan, False, f"not defined on [0,T] ({end})"
        else:
            val, ok, why = judge(end[:M] - z0[:M], nu)
        samples.append((desc, val, bool(ok)))
        if not ok:
            violations.append(f"{desc}: {why}")
    return TwistReport(tuple(samples), tuple(violations))


def twist_check(sys, D, sigma, ensemble, x_points=3, y_points=3):
    """Sign condition on the angular drift over the faces of the rectangle D.

    For every frozen path and every face sample (y_i(0) on a face of D, the
    other coordinates gridded), the drift x_i(T) - x_i(0) of the frozen
    subsystem must satisfy sigma_i * drift_i < 0 on the a_i face and > 0 on
    the b_i face, i.e. sigma_i * drift_i * nu_i > 0 for the outward normal
    nu = -e_i on the a_i face and +e_i on the b_i face.  D needs a_i < b_i
    and sigma entries +1 or -1.  The samples run as one flow with shared
    steps (drifts within 1.3e-7 of one flow per sample on the demo config),
    and one by one if that flow fails (see :func:`_drift_check`).
    """
    M = sys.M
    D = [tuple(map(float, r)) for r in D]
    sigma = np.asarray(sigma, dtype=float)
    if len(D) != M or sigma.size != M:
        raise ValueError("D and sigma must have length M")
    if not all(a < b for a, b in D):
        raise ValueError(f"D must be ranges [a_i, b_i] with a_i < b_i, got {D}")
    if not np.all(np.abs(sigma) == 1.0):
        raise ValueError(f"sigma entries must be +1 or -1, got {sigma.tolist()}")
    pairs = []
    for i in range(M):
        for side, yi, sign in (("a", D[i][0], -1.0), ("b", D[i][1], 1.0)):
            other_axes = [grid_axis(*D[j], y_points) if j != i else [yi] for j in range(M)]
            for y_combo in itertools.product(*other_axes):
                y0 = np.array(y_combo)
                pairs.append((f"face y{i + 1}={side} y0={np.round(y0, 3)}", y0,
                              sign * np.eye(M)[i]))

    def judge(drift, nu):
        i = int(np.flatnonzero(nu)[0])
        val = float(sigma[i] * drift[i])
        return val, val * nu[i] > 0.0, f"sigma*drift = {val:+.3e}"

    return _drift_check(sys, "twist", pairs, ensemble, x_points, judge)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball in R^M with outward normal map."""

    center: np.ndarray
    radius: float

    def boundary(self, n):
        c = np.asarray(self.center, dtype=float)
        M = c.size
        if M == 1:
            normals = np.array([[-1.0], [1.0]])
        elif M == 2:
            ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            normals = np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            rng = np.random.default_rng(12345)
            normals = rng.standard_normal((n, M))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        points = c + self.radius * normals
        return points, normals


def _boundary_pairs(body, boundary_grid):
    """(label, y0, outward normal) at the boundary samples of ``body``."""
    points, normals = body.boundary(boundary_grid)
    return [(f"boundary{b}", y0, nu) for b, (y0, nu) in enumerate(zip(points, normals))]


def avoiding_rays_check(sys, body, sigma, ensemble, boundary_grid=16, x_points=3):
    """A3' falsifier: x(T) - x(0) must avoid the ray {sigma lam nu(y0), lam >= 0}.

    Violation when the drift vanishes (norm at most 1e-9: lam = 0 membership)
    or its angle to sigma * nu is below 1e-3 rad.
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")

    def judge(drift, nu):
        nd = float(np.linalg.norm(drift))
        if nd <= 1e-9:
            return 0.0, False, "zero drift lies on every ray"
        ray = sigma * nu / np.linalg.norm(nu)
        cosang = float(np.dot(drift, ray)) / nd
        angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return angle, angle >= 1e-3, f"drift within {angle:.2e} rad of the ray"

    return _drift_check(sys, "avoiding-rays", _boundary_pairs(body, boundary_grid), ensemble,
                        x_points, judge)


def check_twist_matrix(A_matrix, M):
    """Raise SingularMatrixError unless ``A_matrix`` is M x M, symmetric and regular."""
    A = np.asarray(A_matrix, dtype=float)
    if A.shape != (M, M):
        raise SingularMatrixError(f"A must be {M}x{M}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise SingularMatrixError("A must be symmetric")
    if abs(np.linalg.det(A)) < 1e-12:
        raise SingularMatrixError("A must be regular (nonzero determinant)")


def indefinite_twist_check(sys, body, A_matrix, ensemble, boundary_grid=16,
                           x_points=3):
    """A3'' falsifier: <x(T) - x(0), A nu(y0)> > 0 on the boundary of D."""
    check_twist_matrix(A_matrix, sys.M)
    A = np.asarray(A_matrix, dtype=float)

    def judge(drift, nu):
        val = float(np.dot(drift, A @ nu))
        return val, val > 0.0, f"inner product {val:+.3e} <= 0"

    return _drift_check(sys, "indefinite-twist", _boundary_pairs(body, boundary_grid),
                        ensemble, x_points, judge)
