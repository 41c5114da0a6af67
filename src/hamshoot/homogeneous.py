"""Positively 2-homogeneous positive planar Hamiltonians.

For such an H the origin is an isochronous center of ``J w' = grad H(w)``:
every nontrivial orbit is periodic with one common minimal period

    tau = integral_0^{2pi} dtheta / (2 H(cos theta, sin theta)),

and the times between consecutive zeros of the v component are the two
half-periods obtained by integrating over the upper and lower semicircle.
A reference orbit phi with H(phi) = 1/2 parametrizes the generalized polar
coordinates used elsewhere; the flow rotates clockwise (theta' = -2H < 0),
and rotation counts are reported as positive clockwise turns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import expr as xp
from .dynamics import VectorField, integrate
from .errors import IntegrationError, NonpositiveHamiltonianError

__all__ = [
    "PlanarHamiltonian", "AsymmetricParams", "HalfPeriods", "ReferenceOrbit",
    "HomogeneityReport", "isotropic", "asymmetric", "hamiltonian_from_expr",
    "check_homogeneous", "minimal_period", "half_periods", "asym_period",
    "reference_orbit", "angle_to_orbit_time",
]

_QUADRANT_SPLITS = (np.pi / 2, np.pi, 3 * np.pi / 2)


@dataclass(frozen=True)
class PlanarHamiltonian:
    """Planar Hamiltonian with gradient access.

    ``value`` maps w of shape (2,) or (2, n) to a scalar / array; ``grad``
    returns the same leading shape.  ``claims_positive`` is sample-checked by
    :func:`check_homogeneous`, not enforced at construction.
    """

    value: callable
    grad: callable
    claims_positive: bool = True
    # gradient has a kink across the u = 0 axis (e.g. asymmetric stiffness);
    # flows then split integration steps at u-axis crossings
    kink_on_u_axis: bool = False
    label: str = ""


def isotropic(scale=1.0):
    """H(w) = scale * |w|^2 / 2 (harmonic oscillator for scale=1)."""

    def value(w):
        return 0.5 * scale * (w[0] ** 2 + w[1] ** 2)

    def grad(w):
        return scale * np.asarray(w, dtype=float)

    return PlanarHamiltonian(value, grad, label=f"isotropic(scale {scale})")


@dataclass(frozen=True)
class AsymmetricParams:
    """Stiffness pair of the asymmetric oscillator u'' + mu*u+ - nu*u- = 0."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.mu > 0 and self.nu > 0):
            raise ValueError("asymmetric oscillator requires mu > 0 and nu > 0")


def asymmetric(mu, nu):
    """H(w) = (mu*(u+)^2 + nu*(u-)^2 + v^2) / 2, exactly 2-homogeneous."""
    p = AsymmetricParams(mu, nu)

    def value(w):
        up = np.maximum(w[0], 0.0)
        um = np.maximum(-w[0], 0.0)
        return 0.5 * (p.mu * up ** 2 + p.nu * um ** 2 + w[1] ** 2)

    def grad(w):
        up = np.maximum(w[0], 0.0)
        um = np.maximum(-w[0], 0.0)
        return np.stack([p.mu * up - p.nu * um, np.asarray(w[1], dtype=float)])

    return PlanarHamiltonian(value, grad, kink_on_u_axis=(mu != nu),
                             label=f"asymmetric(mu={mu} nu={nu})")


def hamiltonian_from_expr(src, params=None, u_name="u", v_name="v", claims_positive=True):
    """Build a PlanarHamiltonian from an expression in (u, v)."""
    ast = src if isinstance(src, xp.Expr) else xp.parse_expr(str(src))
    names = (u_name, v_name)
    value_uv = xp.compile_expr(ast, names, params=params)
    grad_uv = xp.compile_expr(ast, names, names, params)
    # w of shape (2,) or (2, n) unpacks to its two components
    return PlanarHamiltonian(lambda w: value_uv(*w), lambda w: grad_uv(*w),
                             claims_positive=claims_positive,
                             kink_on_u_axis=xp.has_kinks(ast), label=str(src))


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneityReport:
    max_euler_residual: float
    max_homogeneity_residual: float
    positivity_violations: int
    n_samples: int
    tol: float

    @property
    def passed(self):
        return (self.max_euler_residual < self.tol
                and self.max_homogeneity_residual < self.tol
                and self.positivity_violations == 0)


def check_homogeneous(H, n_samples, tol, seed=0):
    """Sample the Euler identity, 2-homogeneity and positivity of H.

    Samples live on the annulus 0.1 <= |w| <= 10 with scaling factors
    lambda in {0.5, 2, 10}; residuals are absolute.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2 * np.pi, n_samples)
    rad = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n_samples))
    w = np.stack([rad * np.cos(ang), rad * np.sin(ang)])

    h = np.asarray(H.value(w), dtype=float)
    g = np.asarray(H.grad(w), dtype=float)
    euler = float(np.max(np.abs(g[0] * w[0] + g[1] * w[1] - 2.0 * h)))

    homo = 0.0
    for lam in (0.5, 2.0, 10.0):
        h_scaled = np.asarray(H.value(lam * w), dtype=float)
        homo = max(homo, float(np.max(np.abs(h_scaled - lam ** 2 * h))))

    violations = int(np.count_nonzero(h <= 0.0)) if H.claims_positive else 0
    return HomogeneityReport(euler, homo, violations, n_samples, tol)


# --------------------------------------------------------------------------
# periods
# --------------------------------------------------------------------------

def _unit_circle_integrand(H):
    def f(theta):
        h = float(H.value(np.array([np.cos(theta), np.sin(theta)])))
        if h <= 0.0:
            raise NonpositiveHamiltonianError(
                f"H(cos t, sin t) = {h:.3e} <= 0 at theta = {theta:.6g}")
        return 1.0 / (2.0 * h)
    return f


def minimal_period(H, quad_tol=1e-12):
    """Minimal period of J w' = grad H(w) for positive 2-homogeneous H.

    Adaptive quadrature of 1/(2 H) over the unit circle, split at the
    quadrant boundaries where piecewise-defined Hamiltonians have kinks.
    Requests below 1e-12 are floored there (the quadrature is at roundoff).
    """
    f = _unit_circle_integrand(H)
    val, _ = quad(f, 0.0, 2 * np.pi, points=list(_QUADRANT_SPLITS),
                  epsabs=max(quad_tol, 1e-12), epsrel=0.0, limit=200)
    return val


def half_periods(H, quad_tol=1e-12):
    """Times between consecutive zeros of v along any orbit.

    tau_plus integrates over the v > 0 semicircle (the half-turn taken by an
    orbit leaving the negative u-axis), tau_minus over v < 0.
    """
    f = _unit_circle_integrand(H)
    eps = max(quad_tol, 1e-12)
    plus, _ = quad(f, 0.0, np.pi, points=[np.pi / 2], epsabs=eps, epsrel=0.0, limit=200)
    minus, _ = quad(f, np.pi, 2 * np.pi, points=[3 * np.pi / 2], epsabs=eps, epsrel=0.0,
                    limit=200)
    return HalfPeriods(tau_plus=plus, tau_minus=minus)


@dataclass(frozen=True)
class HalfPeriods:
    tau_plus: float
    tau_minus: float

    @property
    def total(self):
        return self.tau_plus + self.tau_minus


def asym_period(p):
    """Closed-form minimal period pi/sqrt(mu) + pi/sqrt(nu)."""
    if not isinstance(p, AsymmetricParams):
        p = AsymmetricParams(*p)
    return np.pi / np.sqrt(p.mu) + np.pi / np.sqrt(p.nu)


# --------------------------------------------------------------------------
# reference orbit and generalized polar coordinates
# --------------------------------------------------------------------------

class ReferenceOrbit:
    """One full clockwise turn of the energy-1/2 orbit of H.

    Normalization: phi(0) sits on the positive u-axis (the phase gauge is
    free, so we fix it).  ``point(s)`` wraps s modulo the period; the
    monotone angle table inverts polar angle -> orbit time.
    """

    def __init__(self, H, tau, trajectory, table_ts, table_thetas):
        self.H = H
        self.tau = tau
        self.trajectory = trajectory
        self.table_ts = table_ts
        self.table_thetas = table_thetas

    def point(self, s):
        return self.trajectory.query(float(np.mod(s, self.tau)))

    def points(self, ss):
        return self.trajectory.query_many(np.mod(np.atleast_1d(ss), self.tau)).T


def _planar_flow_field(H):
    # J w' = grad H(w)  <=>  w' = (-J) grad H = (dH/dv, -dH/du)
    def f(t, w):
        g = H.grad(w)
        return np.array([g[1], -g[0]])
    return VectorField(2, f)


def reference_orbit(H, tol=1e-10, quad_tol=None, table_size=2048):
    """Integrate one period of the energy-1/2 orbit starting at e/sqrt(2H(e)).

    Verifies energy drift |H(phi) - 1/2| <= tol along the orbit and closure
    |phi(tau) - phi(0)| <= tol; raises :class:`IntegrationError` otherwise.
    """
    if quad_tol is None:
        quad_tol = min(tol, 1e-12)
    e = np.array([1.0, 0.0])
    h_e = float(H.value(e))
    if h_e <= 0.0:
        raise NonpositiveHamiltonianError(f"H(1, 0) = {h_e:.3e} <= 0")
    w0 = e / np.sqrt(2.0 * h_e)
    tau = minimal_period(H, quad_tol)

    switches = ((lambda w: w[0]),) if H.kink_on_u_axis else ()
    traj = integrate(_planar_flow_field(H), w0, 0.0, tau, 0.05 * tol, switches=switches)

    ts_check = np.linspace(0.0, tau, 257)
    energies = np.array([float(H.value(traj.query(t))) for t in ts_check])
    drift = float(np.max(np.abs(energies - 0.5)))
    if drift > tol:
        raise IntegrationError(f"energy drift {drift:.3e} exceeds tol {tol:.3e}")
    closure = float(np.max(np.abs(traj.ys[-1] - w0)))
    if closure > tol:
        raise IntegrationError(f"orbit closure gap {closure:.3e} exceeds tol {tol:.3e}")

    ts, thetas = _angle_table(traj, tau, table_size)
    return ReferenceOrbit(H, tau, traj, ts, thetas)


def _angle_table(traj, tau, table_size):
    """Unwrapped polar angle on a uniform time grid; strictly decreasing."""
    n = table_size
    while True:
        ts = np.linspace(0.0, tau, n + 1)
        pts = np.array([traj.query(t) for t in ts]).T
        raw = np.arctan2(
            pts[0, :-1] * pts[1, 1:] - pts[1, :-1] * pts[0, 1:],
            pts[0, :-1] * pts[0, 1:] + pts[1, :-1] * pts[1, 1:])
        if np.all(np.abs(raw) < np.pi / 2) or n >= 1 << 16:
            break
        n *= 2
    thetas = np.concatenate([[0.0], np.cumsum(raw)])
    if not np.all(np.diff(thetas) < 0.0):
        raise IntegrationError("polar angle along the reference orbit is not strictly decreasing")
    return ts, thetas


def angle_to_orbit_time(orbit, angle):
    """The unique s in [0, tau) with phi(s) pointing in direction ``angle``.

    Inverts the monotone angle table, then refines with a bracketed root
    solve on the dense output.
    """
    r = float(np.mod(angle, 2 * np.pi))
    target = 0.0 if r == 0.0 else r - 2 * np.pi
    thetas = orbit.table_thetas
    ts = orbit.table_ts
    if target >= thetas[0]:
        return 0.0
    if target <= thetas[-1]:
        target = thetas[-1]
    # thetas decreasing: locate cell with thetas[k] >= target >= thetas[k+1]
    k = int(np.searchsorted(-thetas, -target, side="right")) - 1
    k = min(max(k, 0), len(ts) - 2)
    pk = orbit.trajectory.query(ts[k])

    def g(s):
        p = orbit.trajectory.query(s)
        inc = np.arctan2(pk[0] * p[1] - pk[1] * p[0], pk[0] * p[0] + pk[1] * p[1])
        return thetas[k] + inc - target

    from scipy.optimize import brentq
    a, b = ts[k], ts[k + 1]
    ga, gb = g(a), g(b)
    if ga == 0.0:
        s = a
    elif gb == 0.0:
        s = b
    else:
        s = brentq(g, a, b, xtol=1e-13)
    return float(np.mod(s, orbit.tau))
