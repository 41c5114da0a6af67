"""Coupled planar-Hamiltonian systems and their large-amplitude modification.

State layout: z = (x in R^M, y in R^M, u, v) with w = (u, v).  The flow is

    x' =  grad_y H(t,x,y) + grad_y P(t,x,y,w)
    y' = -grad_x H(t,x,y) - grad_x P(t,x,y,w)
    J w' = F(t,w) + grad_w P(t,x,y,w),      J = [[0,-1],[1,0]]

The structural decomposition writes F as a pointwise convex combination of
two homogeneous gradients plus a bounded remainder,

    F(t,w) = (1-gamma) grad H1(w) + gamma grad H2(w) + grad_w Q(t,w),

either globally or per quadrant.  ``modify_system`` replaces F outside a disc
of radius rho by the average field, interpolating on rho <= |w| <= rho^3
through a cutoff profile whose derivative obeys
``-1/(xi ln xi) <= eta'(xi) <= 0``, so the modified field is unchanged for
|w| <= rho and has sublinear correction in the transition band.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import expr as xp
from .dynamics import VariationalField, VectorField, variational_field
from .errors import DimensionMismatchError, MissingDecompositionError, RhoTooSmallError

__all__ = [
    "CoupledSystem", "DecompositionData", "CutoffProfile", "DecompositionReport",
    "assemble_field", "variational", "field_jacobian", "validate_decomposition", "build_cutoff",
    "modify_system", "CutoffModification", "validate_periodicity", "halton", "grid_axis",
    "gamma_least_squares", "xy_names",
]


def xy_names(M):
    """Expression names of the angular variables: (x1..xM), (y1..yM)."""
    return [f"x{i + 1}" for i in range(M)], [f"y{i + 1}" for i in range(M)]


@dataclass(frozen=True)
class DecompositionData:
    """Structural data of the convex-combination decomposition of F.

    ``H1``, ``H2`` are :class:`~hamshoot.homogeneous.PlanarHamiltonian`;
    ``grad_Q(t, w)`` takes and returns points as F does (see CoupledSystem).
    ``mode`` is "global" (one gamma on all of R^2) or "quadrant" (a separate
    gamma on each open quadrant).
    """

    H1: object
    H2: object
    grad_Q: callable
    mode: str = "global"

    def __post_init__(self):
        if self.mode not in ("global", "quadrant"):
            raise ValueError(f"unknown decomposition mode {self.mode!r}")


@dataclass(frozen=True)
class CoupledSystem:
    """Coupled system in periodic (period T) or Neumann (interval [a,b]) mode.

    ``F(t, w)`` takes w of shape (2,) or (2, n), t a scalar or one per point,
    and returns the field at each point, shape (2,) or (2, n).
    ``grad_H(t, x, y) -> (dx array, dy array)`` and
    ``grad_P(t, x, y, w) -> (dx, dy, dw)`` may be None for absent blocks.
    ``w_kink`` marks a planar field with a gradient kink across u = 0
    (asymmetric stiffness); flows then split steps where the state component
    ``switch``, u, changes sign.
    A block built from an expression carries it as ``expr_block``
    (:class:`hamshoot.expr.ExprBlock`), in the variables (t, x1.., y1..) for
    grad_H, (t, x1.., y1.., u, v) for grad_P and (t, u, v) for F.
    grad_H and grad_P take one point; :func:`assemble_field` takes one state
    or B states, the columns of a (dim, B) array, at one scalar t.
    """

    M: int
    F: callable
    grad_H: callable = None
    grad_P: callable = None
    T: float = None
    interval: tuple = None
    decomposition: DecompositionData = None
    w_kink: bool = False

    def __post_init__(self):
        if (self.T is None) == (self.interval is None):
            raise ValueError("exactly one of T (periodic) or interval (Neumann) is required")
        if self.M < 0:
            raise ValueError("M must be >= 0")

    @property
    def mode(self):
        return "periodic" if self.T is not None else "neumann"

    @property
    def dim(self):
        return 2 * self.M + 2

    @property
    def span(self):
        return self.T if self.T is not None else self.interval[1] - self.interval[0]

    @property
    def t0(self):
        return 0.0 if self.T is not None else self.interval[0]

    @property
    def switch(self):
        """Index of the state component u that splits steps, or None."""
        return 2 * self.M if self.w_kink else None

    @cached_property
    def _compiled(self):
        # the functions of _compiled_field by tangents, compiled on first use
        return {}


def _compiled_field(sys, tangents=0):
    """The field as one compiled function of (t, z), compiled once per system
    and ``tangents``, or None unless every present block carries its
    expression.  Its components come from :func:`_layout`, as those of the
    generic assembly do, so the two agree bitwise.  With ``tangents`` = k > 0
    it is the fused function of :func:`variational`: z and the field continue
    with Phi and D_z f Phi, whose rows combine the blocks' rows of partials
    the same way."""
    if tangents in sys._compiled:
        return sys._compiled[tangents]
    present = [b for b in (sys.F, sys.grad_H, sys.grad_P) if b is not None]
    M = sys.M
    xn, yn = xy_names(M)

    def combine(outputs):
        outputs = iter(outputs)
        w, g, p = (None if b is None else next(outputs) for b in (sys.F, sys.grad_H, sys.grad_P))
        return _layout(M, w, None if g is None else (g[:M], g[M:]),
                       None if p is None else (p[:M], p[M:2 * M], p[2 * M:]), xp.Term.ZERO)

    blocks = [b.expr_block for b in present if hasattr(b, "expr_block")]
    sys._compiled[tangents] = (xp.compile_blocks(blocks, xn + yn + ["u", "v"], combine, tangents)
                               if len(blocks) == len(present) else None)
    return sys._compiled[tangents]


def _layout(M, w, H, P, zero):
    """The field's 2M + 2 components from those of F (w), grad_H (hx, hy) and
    grad_P (px, py, pw), None for an absent block: x' = hy + py,
    y' = (-hx) - px (``zero`` + py and ``zero`` - px without grad_H) and
    w' = (-J)(F + pw).  Components are floats, or rows of values at several
    points, at run time and :class:`~hamshoot.expr.Term` s when the field is
    compiled, so both evaluate the same float operations in the same order."""
    x = y = [zero] * M
    if H is not None:
        x, y = list(H[1]), [-d for d in H[0]]
    if P is not None:
        px, py, pw = P
        x = [a + d for a, d in zip(x, py)]
        y = [a - d for a, d in zip(y, px)]
        w = [a + d for a, d in zip(w, pw)]
    return x + y + [w[1], -w[0]]


def assemble_field(sys):
    """Assembled vector field of the coupled system.

    w' solves J w' = F + grad_w P, i.e. w' = (-J)(F + grad_w P).

    When every present block carries its expression (``expr_block``, as all
    blocks built by :mod:`hamshoot.presets` and the config do), the field is
    one straight-line function, compiled through :func:`hamshoot.expr.compile_blocks`
    once per system and bitwise equal to the generic assembly below.  Systems
    with a plain-callable block, such as the cutoff-modified ``F_rho`` of
    :func:`modify_system`, take the generic path.
    ``f(t, z)`` on z of shape (dim, B) gives, in that shape, each column
    bitwise as ``f(t, column)``; the generic path assembles column by column.
    """
    compiled = _compiled_field(sys)
    if compiled is not None:
        return VectorField(sys.dim, compiled)
    M, dim = sys.M, sys.dim
    F, grad_H, grad_P = sys.F, sys.grad_H, sys.grad_P

    def f(t, z):
        if z.shape != (dim,):
            if z.ndim != 2 or len(z) != dim:
                raise DimensionMismatchError(f"state has shape {z.shape}, expected ({dim}, [B])")
            return np.array([f(t, column) for column in np.ascontiguousarray(z.T)]).T
        x, y, w = z[:M], z[M:2 * M], z[2 * M:]
        Fw = np.asarray(F(t, w), dtype=float)
        H = None if grad_H is None else grad_H(t, x, y)
        P = None if grad_P is None else grad_P(t, x, y, w)
        return np.array(_layout(M, Fw, H, P, 0.0))

    return VectorField(dim, f)


def variational(sys, cols):
    """The field of the state z and its sensitivity Phi to the components
    ``cols`` (n-by-len(cols), row-major), Phi' = D_z f Phi.  An expression-built
    system computes both in one compiled function, f bitwise as
    :func:`assemble_field` and D_z f exact (0 at a pos/neg/abs kink, the
    one-sided value elsewhere); one with a plain-callable block takes
    :func:`hamshoot.dynamics.variational_field` over :func:`field_jacobian`."""
    n, k = sys.dim, len(cols)
    fused = _compiled_field(sys, k)
    return (variational_field(n, field_jacobian(sys), cols) if fused is None
            else VariationalField(n + n * k, fused, n))


def field_jacobian(sys):
    """``fjac(t, z) -> (f(t, z), D_z f(t, z))`` by forward differences of the blocks.

    Column j is (f(z + h_j e_j) - f(z)) / h_j, h_j = 1e-7 (1 + |z_j|) away
    from 0 so that no step crosses a kink at z_j = 0, with each block
    differenced only over what it reads: F(t, w) at the 2 points with u or v
    stepped, grad_H(t, x, y) at the 2M with x or y stepped, grad_P at all n.
    That is 3 F, 1 + 2M grad_H and n + 1 grad_P calls and one assembly of the
    n + 1 fields, bitwise equal to differencing :func:`assemble_field`.
    """
    M, n = sys.M, sys.dim
    F, grad_H, grad_P = sys.F, sys.grad_H, sys.grad_P
    # row i of Z is point i: z, then z + h_j e_j at row 1 + j.  Row i of a block's
    # buffer is its value there; each call refills them (one fjac per flow).
    Z = np.empty((n + 1, n))
    diagonal = Z.reshape(-1)[n::n + 1]
    points = [(Z[i, :M], Z[i, M:2 * M], Z[i, 2 * M:]) for i in range(n + 1)]
    Fw, hx, hy, px, py, pw = (np.empty((n + 1, k)) for k in (2, M, M, M, M, 2))
    zero = np.zeros(n + 1)

    def fjac(t, z):
        h = np.copysign(1e-7 * (1.0 + np.abs(z)), z)
        Z[:] = z
        diagonal[:] += h
        Fw[:] = F(t, points[0][2])
        for i in (2 * M + 1, 2 * M + 2):
            Fw[i] = F(t, points[i][2])
        H = P = None
        if grad_H is not None:
            hx[:], hy[:] = grad_H(t, *points[0][:2])
            for i in range(1, 2 * M + 1):
                hx[i], hy[i] = grad_H(t, *points[i][:2])
            H = hx.T, hy.T
        if grad_P is not None:
            for i, (x, y, w) in enumerate(points):
                px[i], py[i], pw[i] = grad_P(t, x, y, w)
            P = px.T, py.T, pw.T
        # column i of out is the field at point i
        out = np.array(_layout(M, Fw.T, H, P, zero))
        return out[:, 0], (out[:, 1:] - out[:, :1]) / h

    return fjac


# --------------------------------------------------------------------------
# decomposition validation
# --------------------------------------------------------------------------

def gamma_least_squares(Fv, g1, g2, gQ):
    """Per-point least-squares gamma for F - gradQ = (1-g) gradH1 + g gradH2.

    Arrays have shape (2,) or (2, n).  Where grad H2 == grad H1 the direction
    degenerates and gamma defaults to 1/2 (its value is irrelevant there).
    Returns (gamma, residual norm).
    """
    d = np.asarray(g2) - np.asarray(g1)
    r = np.asarray(Fv) - np.asarray(gQ) - np.asarray(g1)
    dd = np.sum(d * d, axis=0)
    rd = np.sum(r * d, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gamma = np.where(dd > 0.0, rd / np.where(dd > 0.0, dd, 1.0), 0.5)
    resid = r - gamma * d
    return gamma, np.sqrt(np.sum(resid * resid, axis=0))


@dataclass(frozen=True)
class DecompositionReport:
    max_residual: float
    gamma_min: float
    gamma_max: float
    range_violations: int
    gamma_samples: np.ndarray  # rows (t, u, v, gamma, residual)
    tol: float

    @property
    def passed(self):
        return self.max_residual <= self.tol and self.range_violations == 0


def validate_decomposition(sys, n_samples=256, tol=1e-9, seed=0):
    """Sample the convex-combination structure of F against the declared data.

    For each sampled (t, w), |w| log-uniform in [0.1, 50], the scalar
    least-squares gamma* is computed; the report records the worst residual
    and whether gamma* stays in [-tol, 1+tol].  In quadrant mode samples
    avoid the axes (the open quadrants are the decomposition's domain).
    """
    dec = sys.decomposition
    if dec is None:
        raise MissingDecompositionError("system has no DecompositionData")
    rng = np.random.default_rng(seed)
    ts = sys.t0 + rng.uniform(0.0, 1.0, n_samples) * sys.span
    ang = rng.uniform(0.0, 2 * np.pi, n_samples)
    if dec.mode == "quadrant":
        # keep a safe sector away from both axes
        quadrant = rng.integers(0, 4, n_samples)
        ang = quadrant * (np.pi / 2) + rng.uniform(0.05, np.pi / 2 - 0.05, n_samples)
    rad = np.exp(rng.uniform(np.log(0.1), np.log(50.0), n_samples))
    w = np.stack([rad * np.cos(ang), rad * np.sin(ang)])

    gamma, resid = gamma_least_squares(sys.F(ts, w), dec.H1.grad(w), dec.H2.grad(w),
                                       dec.grad_Q(ts, w))
    violations = int(np.count_nonzero((gamma < -tol) | (gamma > 1.0 + tol)))
    return DecompositionReport(float(np.max(resid)), float(np.min(gamma)), float(np.max(gamma)),
                               violations, np.column_stack([ts, w[0], w[1], gamma, resid]), tol)


# --------------------------------------------------------------------------
# cutoff profile
# --------------------------------------------------------------------------

_LN3 = np.log(3.0)  # ln ln xi grows by ln 3 over [rho, rho^3]


@dataclass(frozen=True)
class CutoffProfile:
    """C^1 profile with eta = 1 on (-inf, rho], eta = 0 on [rho^3, inf).

    Built in sigma = ln ln xi coordinates, where the admissible slope is
    |d eta/d sigma| <= 1 and the total drop of 1 happens over length ln 3.
    The profile declines at the constant rate ``kappa`` < 1 between two
    smoothstep ramps occupying 1% relative margins at both ends, so the
    derivative bound -1/(xi ln xi) <= eta' <= 0 holds with strictly positive
    margin while the boundary values stay exact.
    """

    rho: float
    kappa: float
    sigma0: float
    m1: float
    m2: float

    def _ramp_area(self, u):
        # integral of smoothstep 3u^2-2u^3 from 0 to u
        return u ** 3 - 0.5 * u ** 4

    def _weight(self, sigma):
        s = sigma - self.sigma0
        up = np.clip(s / self.m1, 0.0, 1.0)
        down = np.clip((_LN3 - s) / self.m2, 0.0, 1.0)
        return (3 * up ** 2 - 2 * up ** 3) * (3 * down ** 2 - 2 * down ** 3)

    def _area(self, sigma):
        # integral of the weight from sigma0 to sigma (ramps never overlap)
        s = np.clip(sigma - self.sigma0, 0.0, _LN3)
        up = np.clip(s / self.m1, 0.0, 1.0)
        vd = np.clip((_LN3 - s) / self.m2, 0.0, 1.0)
        return (self.m1 * self._ramp_area(up) + np.clip(s - self.m1, 0.0, _LN3 - self.m1 - self.m2)
                + self.m2 * (self._ramp_area(1.0) - self._ramp_area(vd)))

    # eta and eta' take a scalar or an array; the band formulas run on xi
    # clipped to [rho, rho^3], where ln ln xi is defined (rho > e)

    def eta(self, xi):
        xi = np.asarray(xi, dtype=float)
        band = 1.0 - self.kappa * self._area(np.log(np.log(np.clip(xi, self.rho, self.rho ** 3))))
        return np.where(xi <= self.rho, 1.0, np.where(xi >= self.rho ** 3, 0.0, band))[()]

    def eta_prime(self, xi):
        xi = np.asarray(xi, dtype=float)
        x = np.clip(xi, self.rho, self.rho ** 3)
        band = -self.kappa * self._weight(np.log(np.log(x))) / (x * np.log(x))
        return np.where((xi > self.rho) & (xi < self.rho ** 3), band, 0.0)[()]


def build_cutoff(rho):
    """Cutoff profile for the large-amplitude modification.

    Requires rho > e so that ln ln is defined on [rho, rho^3] and the budget
    inequality  integral_rho^{rho^3} dxi/(xi ln xi) = ln 3 > 1  leaves room
    for a constant decline rate below the admissible slope.  With the 1%
    margins and rho > e, m1 + m2 <= 0.014 < ln 3 and kappa <= 0.92 < 1.
    """
    if not rho > np.e:
        raise RhoTooSmallError(f"rho must exceed e = {np.e:.6f}, got {rho}")
    sigma0 = np.log(np.log(rho))
    # sigma-widths of the relative margins [rho, 1.01 rho] and
    # [rho^3/1.01, rho^3]
    m1 = np.log(np.log(1.01 * rho)) - sigma0
    m2 = np.log(np.log(rho ** 3)) - np.log(np.log(rho ** 3 / 1.01))
    kappa = 1.0 / (_LN3 - 0.5 * (m1 + m2))
    return CutoffProfile(rho=float(rho), kappa=float(kappa), sigma0=float(sigma0),
                         m1=float(m1), m2=float(m2))


# --------------------------------------------------------------------------
# modified system
# --------------------------------------------------------------------------

class CutoffModification:
    """Field and potential of the modified system, kept for diagnostics.

    Outside |w| = rho the planar potential is interpolated between the
    reconstructed Phi(t,w) = (1-gamma) H1 + gamma H2 (gamma by pointwise
    least squares, clamped to [0,1]) and the average (H1+H2)/2; the gradient
    picks up the radial correction eta'(|w|) (Phi - avg) w/|w| in the band.
    ``F_rho`` and ``phi`` take w of shape (2,) or (2, n), t a scalar or one
    per point, and evaluate F and gamma only where |w| < rho^3.
    """

    def __init__(self, sys, rho):
        if sys.decomposition is None:
            raise MissingDecompositionError("modify_system needs DecompositionData")
        self.sys = sys
        self.profile = build_cutoff(rho)
        self.dec = sys.decomposition

    def _piecewise(self, t, w, piece):
        """Combine ``piece(region, t, w, |w|)`` over the points of w in each
        region: 0 for |w| <= rho, 1 for the band, 2 for |w| >= rho^3.  A region
        holding every point, as a single w of shape (2,) does, gets (t, w) whole."""
        w = np.asarray(w, dtype=float)
        r = np.hypot(w[0], w[1])
        inside, outside = r <= self.profile.rho, r >= self.profile.rho ** 3
        out = None
        for region, mask in enumerate((inside, ~(inside | outside), outside)):
            if np.all(mask):
                return piece(region, t, w, r)
            if np.any(mask):
                value = piece(region, t if np.ndim(t) == 0 else t[mask], w[:, mask], r[mask])
                out = np.empty(value.shape[:-1] + r.shape) if out is None else out
                out[..., mask] = value
        return out

    def _grads(self, t, w):
        """grad Q, grad H1 and grad H2 at (t, w)."""
        dec = self.dec
        return [np.asarray(g, dtype=float) for g in (dec.grad_Q(t, w), dec.H1.grad(w),
                                                     dec.H2.grad(w))]

    def _phi(self, w, Fv, grads):
        """The reconstructed Phi at w from F and the gradients there, and (H1 + H2)/2."""
        gQ, g1, g2 = grads
        gamma = np.clip(gamma_least_squares(Fv, g1, g2, gQ)[0], 0.0, 1.0)
        h1, h2 = self.dec.H1.value(w), self.dec.H2.value(w)
        return (1.0 - gamma) * h1 + gamma * h2, 0.5 * (h1 + h2)

    def phi(self, t, w):
        """Interpolated planar potential Phi_rho(t, w)."""
        def piece(region, t, w, r):
            if region == 2:
                return 0.5 * (self.dec.H1.value(w) + self.dec.H2.value(w))
            phi_val, avg = self._phi(w, self.sys.F(t, w), self._grads(t, w))
            eta = self.profile.eta(r)
            return phi_val if region == 0 else eta * phi_val + (1.0 - eta) * avg

        return self._piecewise(t, w, piece)

    def F_rho(self, t, w):
        def piece(region, t, w, r):
            if region == 0:
                return np.asarray(self.sys.F(t, w), dtype=float)
            gQ, g1, g2 = grads = self._grads(t, w)
            if region == 2:
                return 0.5 * (g1 + g2) + gQ
            Fv = np.asarray(self.sys.F(t, w), dtype=float)
            phi_val, avg = self._phi(w, Fv, grads)
            eta, etap = self.profile.eta(r), self.profile.eta_prime(r)
            radial = etap * (phi_val - avg) / r * w
            # Fv - gQ is the declared structure's gradient part
            return eta * (Fv - gQ) + (1.0 - eta) * (0.5 * (g1 + g2)) + radial + gQ

        return self._piecewise(t, w, piece)


def modify_system(sys, rho):
    """System with F replaced by the cutoff-modified field F_rho.

    Identical to ``sys`` for |w| <= rho; equal to the averaged homogeneous
    field plus grad Q for |w| >= rho^3.
    """
    return replace(sys, F=CutoffModification(sys, rho).F_rho)


# --------------------------------------------------------------------------
# periodicity certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicityReport:
    max_t_residual: float
    max_x_residual: float
    tol: float

    @property
    def passed(self):
        return self.max_t_residual <= self.tol and self.max_x_residual <= self.tol


def halton(n, d, seed):
    """The first ``n`` points of the scrambled Halton sequence in [0, 1)^d,
    bitwise ``scipy.stats.qmc.Halton(d, seed=seed).random(n)``: Owen's digit
    permutations per prime base and digit, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    primes = (b for b in itertools.count(2) if all(b % p for p in range(2, b)))
    out = np.zeros((n, d))
    for col, b in zip(out.T, itertools.islice(primes, d)):
        k, f = np.arange(n), 1.0 / b
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            col += rng.permutation(b)[k % b] * f
            k, f = k // b, f / b
    return out


def grid_axis(lo, hi, points):
    """``points`` evenly spaced values from ``lo`` to ``hi``; one point is the centre."""
    return np.array([0.5 * (lo + hi)]) if points == 1 else np.linspace(lo, hi, points)


def validate_periodicity(sys, n_samples=32, tol=1e-8, seed=0, scale=3.0):
    """Sample-based certificate of T-periodicity in t and 2pi-periodicity in x.

    Compares the assembled field at (t, z) with (t+T, z) and with x shifted by
    2pi in each coordinate.  A certificate, not a proof.
    """
    if sys.mode != "periodic":
        raise ValueError("periodicity validation applies to periodic mode")
    f = assemble_field(sys)
    M, dim = sys.M, sys.dim
    pts = halton(n_samples, dim + 1, seed)
    t_res = 0.0
    x_res = 0.0
    for row in pts:
        t = row[0] * sys.T
        z = scale * (2.0 * row[1:] - 1.0)
        base = f(t, z)
        t_res = max(t_res, float(np.max(np.abs(f(t + sys.T, z) - base))))
        for i in range(M):
            z2 = z.copy()
            z2[i] += 2 * np.pi
            x_res = max(x_res, float(np.max(np.abs(f(t, z2) - base))))
    return PeriodicityReport(t_res, x_res, tol)
