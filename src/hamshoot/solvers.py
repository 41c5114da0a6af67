"""Newton shooting for T-periodic and Neumann-type solutions.

One core serves both problems.  It integrates the variational field over a
window (t0, t1) and roots the rows ``rows`` of the boundary defect
wrap_x(z(t1) - z(t0)), whose angular (x) components are wrapped to
(-pi, pi], over the state components ``cols`` that hold the unknowns.
Periodic mode takes the window (0, T) and every component and row; the
Newton map then lives on the cylinder, so solutions whose x drifts by
multiples of 2pi over a period count as periodic.  Neumann mode takes the
window [a, b] and the state (x_a, 0, u_a, 0): x and u are the unknowns and
the y and v rows of the defect, i.e. (y(b), v(b)), must vanish.

Each Newton evaluation is one flow of the variational field
(:func:`~hamshoot.systems.variational`): the state and its sensitivity Phi
to the unknowns, Phi' = D_z f Phi, integrated together.  It gives the defect
and the exact Jacobian Phi[rows] - I[rows, cols] along the actual trajectory.
A start's flows run coarse, at max(0.1 newton_tol, 1e-6), until a coarse
residual is at its noise floor, 10 x the coarse tolerance, or no step from a
coarse Jacobian decreases it: an inexact Newton step needs the residual only
to a fraction of its size (Dembo, Eisenstat & Steihaug 1982).  That state is
then re-evaluated fine, at 0.1 newton_tol, and every later flow runs fine, so
only fine residuals are accepted and only a fine stall is singular.

An expression-built system computes f and D_z f Phi in one compiled
function (0 at a pos/neg/abs kink, the one-sided value elsewhere); a
plain-callable block is differenced forward, F over w, grad_H over (x, y)
and grad_P over all of z.
The field is continuous across its kink surfaces (``sys.switch``, where flows
split steps), so Phi needs no jump there, and the one-sided Jacobian makes
the iteration a semismooth Newton method, which converges superlinearly at
kinks too.

Newton steps are minimum-norm steps of a truncated SVD of J (Ben-Israel
1966; Deuflhard 2004), damped by Armijo backtracking; the line search keeps
the Jacobian of the point it accepts.  Singular values at the noise level of
the flow that gave J are dropped: at resonance solutions come in continua,
Phi - I is integration noise along the family, and a step with no component
there keeps the start's member of the family.  Weak singular values, below
1e-3 sigma_max, are dropped first unless they hold most of the residual; the
full step is the fallback, so an isolated root along them is still reached.

Both problems return a :class:`SolutionRecord`, whose views read its initial
state z0 (in Neumann mode (x_a, 0, u_a, 0), so u(a) is ``w0[0]``).
Solutions are geometrically distinct when they are not related by shifting
some x_i by an integer multiple of 2pi; records are compared by z0 with x
modulo 2pi, which identifies orbits provided the right-hand side is locally
Lipschitz (uniqueness of the IVP).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import integrate, winding
from .errors import (DomainError, IntegrationError, MaxIterationsError, OriginTooCloseError,
                     SingularJacobianError)
from .systems import assemble_field, grid_axis, variational

__all__ = [
    "SolutionRecord", "DistinctnessPartition",
    "MultistartSpec", "NeumannStartSpec", "MultistartResult",
    "shoot_periodic", "multistart_periodic", "classify_distinct",
    "shoot_neumann", "multistart_neumann", "classify_distinct_neumann",
    "wrap_angle_diff", "solution_flow",
]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 30
# Singular values of J at or below _NOISE_RATIO * the tolerance of the flow
# that gave J are noise; those above it but at or below _RELATIVE_CUTOFF *
# sigma_max are weak.  1e-3 is sqrt(1e-6), the filter of Marquardt damping
# 1e-6 diag(J^T J).  Near a degenerate solution, or along the time shift of an
# autonomous rotating orbit (sigma ~ 4e-7 against 14), a step along a weak
# direction overshoots and a damped one crawls.
_NOISE_RATIO = 10.0
_RELATIVE_CUTOFF = 1e-3
_WINDING_MIN_RADIUS = 1e-8
_FLOW_TOL_RATIO = 0.1  # fine shooting flows run at 0.1 newton_tol, below the residual goal
_COARSE_FLOW_TOL = 1e-6  # coarse flows run at max(fine tolerance, this)


def wrap_angle_diff(d):
    """Wrap angle differences into (-pi, pi] componentwise."""
    r = np.mod(np.asarray(d, dtype=float), 2 * np.pi)
    return np.where(r > np.pi, r - 2 * np.pi, r)


@dataclass(frozen=True)
class SolutionRecord:
    z0: np.ndarray             # initial state (x, y, w) at the window's start
    residual: float
    iterations: int
    M: int
    turns: int | None = None   # clockwise turns of w over [0, T] (periodic); None if w nears 0

    @property
    def x0_normalized(self):   # x wrapped to [0, 2pi)
        return np.mod(self.z0[:self.M], 2 * np.pi)

    @property
    def y0(self):
        return self.z0[self.M:2 * self.M]

    @property
    def w0(self):
        return self.z0[2 * self.M:]


@dataclass(frozen=True)
class DistinctnessPartition:
    labels: np.ndarray         # class index per input record
    classes: tuple             # tuple of tuples of record indices
    representatives: tuple     # one record per class (smallest residual)

    @property
    def n_classes(self):
        return len(self.classes)


# --------------------------------------------------------------------------
# Newton core
# --------------------------------------------------------------------------

def _min_norm_steps(J, R, noise):
    """The Newton steps to try from J, in order, and cond(J).

    A step -V_k S_k^-1 U_k^T R keeps some singular values of J and has no
    component along the right singular vectors of the others.  The full step
    keeps those above ``noise``; the strong step also drops the weak ones
    (see ``_RELATIVE_CUTOFF``) and goes first unless they hold more than half
    of the residual, which only the full step can remove.  A step d whose
    linear model predicts no Armijo decrease, |R + J d| > (1 - ``_ARMIJO_C``)
    |R|, is not tried: its line search could only halve it into the noise.
    """
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    coef = U.T @ R
    full = s > noise
    strong = s > max(noise, _RELATIVE_CUTOFF * s[0])
    weak = full & ~strong
    if not weak.any():
        keeps = [full]
    elif np.linalg.norm(coef[weak]) > 0.5 * np.linalg.norm(coef):
        keeps = [full, strong]
    else:
        keeps = [strong, full]
    steps = [-Vt[k].T @ (coef[k] / s[k]) for k in keeps]
    bound = (1.0 - _ARMIJO_C) * np.linalg.norm(R)
    return ([d for d in steps if np.linalg.norm(R + J @ d) <= bound],
            s[0] / s[-1] if s[-1] > 0.0 else np.inf)


def _line_search(evaluate, z, delta, nR, flow_tol):
    """Armijo backtracking along ``delta``; (z, R, J, |R|) of the accepted point."""
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        z_try = z + alpha * delta
        R_try, J_try = evaluate(z_try, flow_tol)
        n_try = float(np.linalg.norm(R_try))
        if n_try <= (1.0 - _ARMIJO_C * alpha) * nR:
            return z_try, R_try, J_try, n_try
        alpha *= 0.5
    return None


def _newton(evaluate, z0, tol, max_iter):
    """Damped minimum-norm Newton; returns (z, |R|, iterations).

    ``evaluate(z, flow_tol)`` returns the residual and its Jacobian at z from
    a flow integrated at ``flow_tol``.  Flows run coarse, at max(fine,
    ``_COARSE_FLOW_TOL``), until |R| is at its noise floor, at most
    ``_NOISE_RATIO`` times the coarse tolerance, or no step decreases it; that
    state is re-evaluated fine, at ``_FLOW_TOL_RATIO * tol``, and every later
    flow is fine.  The re-evaluation is not an iteration.  The steps are
    :func:`_min_norm_steps` of the current J, with the noise set by the flow
    tolerance, each searched with up to ``_MAX_BACKTRACKS`` halvings.  When
    none decreases a fine |R|, :class:`SingularJacobianError` is raised.
    """
    fine = _FLOW_TOL_RATIO * tol
    flow_tol = max(fine, _COARSE_FLOW_TOL)
    z = np.asarray(z0, dtype=float).copy()
    R, J = evaluate(z, flow_tol)
    nR = float(np.linalg.norm(R))
    it = 0
    while True:
        step = None
        if flow_tol == fine or nR > _NOISE_RATIO * flow_tol:
            if nR <= tol:
                return z, nR, it
            if it == max_iter:
                raise MaxIterationsError(
                    f"no convergence in {max_iter} iterations; residual {nR:.3e}")
            steps, cond = _min_norm_steps(J, R, _NOISE_RATIO * flow_tol)
            for delta in steps:
                step = _line_search(evaluate, z, delta, nR, flow_tol)
                if step is not None:
                    break
        if step is not None:
            z, R, J, nR = step
            it += 1
        elif flow_tol > fine:
            # the coarse phase ends at its noise floor or stall
            flow_tol = fine
            R, J = evaluate(z, flow_tol)
            nR = float(np.linalg.norm(R))
        else:
            raise SingularJacobianError(
                f"line search stalled at residual {nR:.3e} (cond ~ {cond:.3e})")


# --------------------------------------------------------------------------
# shooting
# --------------------------------------------------------------------------

def _wrap_x(d, M):
    """``d`` with its M angular (x) components wrapped to (-pi, pi], in place."""
    d[:M] = wrap_angle_diff(d[:M])
    return d


def _problem(sys):
    """Window (t0, t1), unknown components and defect rows of ``sys``."""
    M, n = sys.M, sys.dim
    if sys.mode == "periodic":
        return (0.0, sys.T), np.arange(n), np.arange(n)
    return tuple(sys.interval), np.r_[0:M, 2 * M], np.r_[M:2 * M, 2 * M + 1]


def _defect(sys, z, zt):
    """Shooting residual: the defect rows of wrap_x(zt - z) for the flow z -> zt."""
    return _wrap_x(zt - z, sys.M)[_problem(sys)[2]]


def solution_flow(sys, z0, newton_tol):
    """Dense flow from ``z0`` over the shooting window at the fine tolerance of
    the shooting flows for ``newton_tol``: the orbit a solution record reports."""
    (t0, t1), _, _ = _problem(sys)
    return integrate(assemble_field(sys), z0, t0, t1, _FLOW_TOL_RATIO * newton_tol,
                     switch=sys.switch)


def _shoot(sys, z_guess, newton_tol, max_iter):
    """Newton shooting core shared by both modes.

    ``z_guess`` is a full initial state; only its ``cols`` components move.
    Returns (z0, |R|, iterations).
    """
    (t0, t1), cols, rows = _problem(sys)
    n = sys.dim
    aug = variational(sys, cols)
    base = np.asarray(z_guess, dtype=float)
    eye = np.eye(n)[:, cols]

    def state(p):
        z = base.copy()
        z[cols] = p
        return z

    def evaluate(p, flow_tol):
        # one flow of the state and its sensitivity: the defect and its Jacobian
        z = state(p)
        end = integrate(aug, np.concatenate([z, eye.ravel()]), t0, t1,
                        flow_tol, dense=False, switch=sys.switch).ys[-1]
        return _defect(sys, z, end[:n]), (end[n:].reshape(n, len(cols)) - eye)[rows]

    p, res, iters = _newton(evaluate, base[cols], newton_tol, max_iter)
    return state(p), res, iters


def shoot_periodic(sys, z_guess, newton_tol=1e-9, max_iter=40):
    """Newton shooting for a T-periodic solution from ``z_guess``.

    Returns a :class:`SolutionRecord`; raises a
    :class:`ShootingError` subclass on failure.
    """
    if sys.mode != "periodic":
        raise ValueError("shoot_periodic requires a periodic-mode system")
    z, res, iters = _shoot(sys, z_guess, newton_tol, max_iter)
    M = sys.M
    try:
        turns = winding(solution_flow(sys, z, newton_tol), (2 * M, 2 * M + 1),
                        _WINDING_MIN_RADIUS).turns
    except OriginTooCloseError:
        turns = None
    return SolutionRecord(z0=z, residual=res, iterations=iters, M=M, turns=turns)


def shoot_neumann(sys, guess, newton_tol=1e-9, max_iter=40):
    """Newton shooting for the Neumann problem from guess (x_a, u_a).

    The initial state is (x_a, 0, u_a, 0) by construction; the residual is
    (y(b), v(b)) over the free unknowns in R^{M+1}; the record's ``turns`` is None.
    """
    if sys.mode != "neumann":
        raise ValueError("shoot_neumann requires a Neumann-mode system")
    M = sys.M
    z = np.zeros(sys.dim)
    z[:M], z[2 * M] = guess
    z, res, iters = _shoot(sys, z, newton_tol, max_iter)
    return SolutionRecord(z0=z, residual=res, iterations=iters, M=M)


def revalidate(sys, record):
    """Residual re-computed by an independent integration at tolerance 1e-12."""
    (t0, t1), _, _ = _problem(sys)
    zt = integrate(assemble_field(sys), record.z0, t0, t1, 1e-12, dense=False,
                   switch=sys.switch).ys[-1]
    return float(np.linalg.norm(_defect(sys, record.z0, zt)))


# --------------------------------------------------------------------------
# distinctness
# --------------------------------------------------------------------------

def _union_find_partition(n, same):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = find(i), find(j)
            if ri != rj and same(i, j):
                parent[max(ri, rj)] = min(ri, rj)

    labels = np.empty(n, dtype=int)
    roots = {}
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        labels[i] = roots[r]
    classes = tuple(tuple(np.nonzero(labels == c)[0]) for c in range(len(roots)))
    return labels, classes


def classify_distinct(records, tol=1e-6):
    """Partition solution records into geometrically distinct classes.

    Two records coincide when their initial states agree within ``tol``
    componentwise, every x_i modulo 2pi.  Union-find makes the relation a
    true equivalence regardless of input order.
    """
    records = list(records)

    def same(i, j):
        d = _wrap_x(records[i].z0 - records[j].z0, records[i].M)
        return np.max(np.abs(d)) <= tol

    labels, classes = _union_find_partition(len(records), same)
    reps = tuple(min((records[i] for i in cls), key=lambda r: (r.residual, _canon_key(r)))
                 for cls in classes)
    return DistinctnessPartition(labels=labels, classes=classes, representatives=reps)


def _canon_key(rec):
    return tuple(np.round(np.concatenate([rec.x0_normalized, rec.z0[rec.M:]]), 9))


def classify_distinct_neumann(records, tol=1e-6):
    """Neumann distinctness: x_a modulo 2pi, u_a compared directly."""
    return classify_distinct(records, tol)


# --------------------------------------------------------------------------
# multistart
# --------------------------------------------------------------------------

def _grid(axes, budget, jitter, seed):
    """The first ``budget`` points of the product of ``axes``, in order.

    Each point concatenates one entry (a number or an array) per axis; with
    ``jitter`` > 0 it gets ``jitter`` times standard normals, drawn per point
    from one generator seeded by ``seed``.
    """
    rng = np.random.default_rng(seed)
    for combo in itertools.islice(itertools.product(*axes), max(budget, 0)):
        z = np.hstack(combo)
        if jitter > 0.0:
            z = z + jitter * rng.standard_normal(z.size)
        yield z


def _x_axes(x_points, M):
    return [np.linspace(0.0, 2 * np.pi, x_points, endpoint=False)] * M


@dataclass(frozen=True)
class MultistartSpec:
    """Grid of shooting starts: x over [0,2pi)^M, y over a rectangle, w polar."""

    x_points: int = 4
    y_ranges: tuple = ((-1.0, 1.0),)
    y_points: int = 3
    w_radii: tuple = (0.25,)
    w_angles: int = 4
    budget: int = 2000
    jitter: float = 0.0

    def starts(self, M, seed=0):
        if len(self.y_ranges) not in (1, M) and M > 0:
            raise ValueError("y_ranges must have length 1 (shared) or M")
        ranges = self.y_ranges if len(self.y_ranges) == M else [self.y_ranges[0]] * M
        y_axes = [grid_axis(lo, hi, self.y_points) for lo, hi in ranges]
        ws = []
        for r in self.w_radii:
            if r == 0.0:
                ws.append(np.zeros(2))
                continue
            for k in range(self.w_angles):
                a = 2 * np.pi * k / self.w_angles
                ws.append(np.array([r * np.cos(a), r * np.sin(a)]))
        if not ws:
            ws = [np.zeros(2)]
        return _grid(_x_axes(self.x_points, M) + y_axes + [ws], self.budget, self.jitter, seed)


@dataclass(frozen=True)
class NeumannStartSpec:
    """Grid of Neumann starts: x_a over [0,2pi)^M, u_a over a range."""

    x_points: int = 4
    u_range: tuple = (-1.0, 1.0)
    u_points: int = 5
    budget: int = 2000
    jitter: float = 0.0

    def starts(self, M, seed=0):
        us = grid_axis(*self.u_range, self.u_points)
        grid = _grid(_x_axes(self.x_points, M) + [us], self.budget, self.jitter, seed)
        return ((z[:M], float(z[M])) for z in grid)


@dataclass(frozen=True)
class MultistartResult:
    records: tuple             # one representative per distinct class
    partition: DistinctnessPartition
    all_records: tuple
    stats: dict


def _multistart(sys, starts, shoot, newton_tol, max_iter):
    """Run ``shoot`` from every start and deduplicate.

    Failures are dropped and counted in ``stats`` by reason; a start whose
    flow leaves an expression's domain counts under ``domain_error``, present
    once one does.  Successes are partitioned into geometrically distinct
    classes (canonical order for determinism).
    """
    successes = []
    stats = {"attempted": 0, "converged": 0, "max_iterations": 0,
             "singular_stall": 0, "integration_failure": 0}
    for guess in starts:
        stats["attempted"] += 1
        try:
            successes.append(shoot(sys, guess, newton_tol=newton_tol, max_iter=max_iter))
            stats["converged"] += 1
        except SingularJacobianError:
            stats["singular_stall"] += 1
        except MaxIterationsError:
            stats["max_iterations"] += 1
        except IntegrationError:
            stats["integration_failure"] += 1
        except DomainError:
            stats["domain_error"] = stats.get("domain_error", 0) + 1
    successes.sort(key=_canon_key)
    scale = max((float(np.max(np.abs(r.z0))) for r in successes), default=0.0)
    partition = classify_distinct(successes, tol=1e-6 * (1.0 + scale))
    return MultistartResult(records=partition.representatives, partition=partition,
                            all_records=tuple(successes), stats=stats)


def multistart_periodic(sys, spec=None, newton_tol=1e-9, max_iter=40, seed=0):
    """Run :func:`shoot_periodic` from every grid start and deduplicate."""
    starts = (spec or MultistartSpec()).starts(sys.M, seed=seed)
    return _multistart(sys, starts, shoot_periodic, newton_tol, max_iter)


def multistart_neumann(sys, spec=None, newton_tol=1e-9, max_iter=40, seed=0):
    """Run :func:`shoot_neumann` from every grid start and deduplicate."""
    starts = (spec or NeumannStartSpec()).starts(sys.M, seed=seed)
    return _multistart(sys, starts, shoot_neumann, newton_tol, max_iter)
