"""Positively 2-homogeneous positive planar Hamiltonians.

For such an H the origin is an isochronous center of ``J w' = grad H(w)``:
every nontrivial orbit is periodic with one common minimal period

    tau = integral_0^{2pi} dtheta / (2 H(cos theta, sin theta)),

and the times between consecutive zeros of the v component are the two
half-periods obtained by integrating over the upper and lower semicircle.
A reference orbit phi with H(phi) = 1/2 parametrizes the generalized polar
coordinates used elsewhere; the flow rotates clockwise, with polar angle
theta' = -2 H(cos theta, sin theta) < 0, and rotation counts are reported as
positive clockwise turns.  The same integrand as the period, taken over an
arc, gives the orbit time at which phi points in a given direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import expr as xp
from .dynamics import Trajectory, VectorField, integrate
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

    ``value`` maps w of shape (2,) or (2, n) to a scalar or shape (n,),
    ``grad`` to shape (2,) or (2, n).  Positivity is sample-checked by
    :func:`check_homogeneous`, not enforced at construction.
    """

    value: callable
    grad: callable
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
        return np.array([p.mu * up - p.nu * um, w[1]], dtype=float)

    return PlanarHamiltonian(value, grad, kink_on_u_axis=(mu != nu),
                             label=f"asymmetric(mu={mu} nu={nu})")


def hamiltonian_from_expr(src, params=None):
    """Build a PlanarHamiltonian from an expression in (u, v)."""
    ast = src if isinstance(src, xp.Expr) else xp.parse_expr(str(src))
    names = ("u", "v")
    value_uv = xp.compile_expr(ast, names, params=params)
    grad_uv = xp.compile_expr(ast, names, names, params)
    # w of shape (2,) or (2, n) unpacks to its two components
    return PlanarHamiltonian(lambda w: value_uv(*w), lambda w: grad_uv(*w),
                             kink_on_u_axis=xp.has_kinks(ast), label=str(src))


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneityReport:
    max_euler_residual: float
    max_homogeneity_residual: float
    positivity_violations: int
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

    violations = int(np.count_nonzero(h <= 0.0))
    return HomogeneityReport(euler, homo, violations, tol)


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


def _arc_time(H, a, b):
    """Time the flow takes to turn through the polar angles [a, b].

    Adaptive quadrature of 1/(2 H) over the arc to absolute error 1e-12 (at
    roundoff), split at the quadrant boundaries inside it, where
    piecewise-defined Hamiltonians have kinks.
    """
    points = [p for p in _QUADRANT_SPLITS if a < p < b]
    val, _ = quad(_unit_circle_integrand(H), a, b, points=points or None,
                  epsabs=1e-12, epsrel=0.0, limit=200)
    return val


def minimal_period(H):
    """Minimal period of J w' = grad H(w) for positive 2-homogeneous H:
    the time of one full turn."""
    return _arc_time(H, 0.0, 2 * np.pi)


def half_periods(H):
    """Times between consecutive zeros of v along any orbit.

    tau_plus integrates over the v > 0 semicircle (the half-turn taken by an
    orbit leaving the negative u-axis), tau_minus over v < 0.
    """
    return HalfPeriods(tau_plus=_arc_time(H, 0.0, np.pi),
                       tau_minus=_arc_time(H, np.pi, 2 * np.pi))


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

@dataclass(frozen=True)
class ReferenceOrbit:
    """One full clockwise turn of the energy-1/2 orbit of H.

    Normalization: phi(0) sits on the positive u-axis (the phase gauge is
    free, so we fix it).  ``point(s)`` and ``points(ss)`` wrap s modulo the
    period.
    """

    H: PlanarHamiltonian
    tau: float
    trajectory: Trajectory

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


def reference_orbit(H, tol=1e-10):
    """Integrate one period of the energy-1/2 orbit starting at e/sqrt(2H(e)).

    Verifies energy drift |H(phi) - 1/2| <= tol along the orbit and closure
    |phi(tau) - phi(0)| <= tol; raises :class:`IntegrationError` otherwise.
    """
    e = np.array([1.0, 0.0])
    h_e = float(H.value(e))
    if h_e <= 0.0:
        raise NonpositiveHamiltonianError(f"H(1, 0) = {h_e:.3e} <= 0")
    w0 = e / np.sqrt(2.0 * h_e)
    tau = minimal_period(H)

    traj = integrate(_planar_flow_field(H), w0, 0.0, tau, 0.05 * tol,
                     switch=0 if H.kink_on_u_axis else None)

    ts_check = np.linspace(0.0, tau, 257)
    energies = np.asarray(H.value(traj.query_many(ts_check).T), dtype=float)
    drift = float(np.max(np.abs(energies - 0.5)))
    if drift > tol:
        raise IntegrationError(f"energy drift {drift:.3e} exceeds tol {tol:.3e}")
    closure = float(np.max(np.abs(traj.ys[-1] - w0)))
    if closure > tol:
        raise IntegrationError(f"orbit closure gap {closure:.3e} exceeds tol {tol:.3e}")
    return ReferenceOrbit(H, tau, traj)


def angle_to_orbit_time(orbit, angle):
    """The unique s in [0, tau) with phi(s) pointing in direction ``angle``.

    phi starts on the positive u-axis and turns clockwise at the rate
    2 H(cos theta, sin theta), so s is the time of the arc [angle mod 2pi, 2pi].
    """
    a = float(np.mod(angle, 2 * np.pi))
    return 0.0 if a == 0.0 else _arc_time(orbit.H, a, 2 * np.pi)
