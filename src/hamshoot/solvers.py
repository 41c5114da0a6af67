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
to the unknowns, Phi' = D_z f Phi, integrated together at the residual
tolerance.  It gives the defect and the exact Jacobian Phi[rows] - I[rows, cols]
along the actual trajectory.  An expression-built system computes f and
D_z f Phi in one compiled function (0 at a pos/neg/abs kink, the one-sided
value elsewhere); a plain-callable block is differenced forward, F over w,
grad_H over (x, y) and grad_P over all of z.
The field is continuous across the kink u = 0, so Phi needs no jump there, and
the one-sided Jacobian makes the iteration a semismooth Newton method, which
converges superlinearly at kinks too.

Damped Newton with Armijo backtracking; the line search keeps the Jacobian
of the point it accepts.  A Jacobian with condition number beyond 1e12, or
a Newton step that needs more than 4 halvings, switches the step to
Levenberg-Marquardt with fixed damping 1e-6.  Singular Jacobians are
expected at resonance (continua of solutions): the LM step then returns a
point on the continuum instead of failing.

Solutions are geometrically distinct when they are not related by shifting
some x_i by an integer multiple of 2pi; records are compared by their
initial state (in Neumann mode: x_a modulo 2pi and u_a), which identifies
orbits provided the right-hand side is locally Lipschitz (uniqueness of the
IVP).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import integrate, winding
from .errors import (DomainError, IntegrationError, MaxIterationsError, OriginTooCloseError,
                     SingularJacobianError)
from .systems import assemble_field, variational

__all__ = [
    "PeriodicSolutionRecord", "NeumannSolutionRecord", "DistinctnessPartition",
    "MultistartSpec", "NeumannStartSpec", "MultistartResult",
    "shoot_periodic", "multistart_periodic", "classify_distinct",
    "shoot_neumann", "multistart_neumann", "classify_distinct_neumann",
    "wrap_angle_diff", "solution_flow",
]

_COND_LIMIT = 1e12
_LM_DAMPING = 1e-6
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 30
# A Newton step that needs more halvings than this is taken as stalled and
# replaced by the LM step: near a continuum of solutions the step follows a
# near-null direction of J and the line search would crawl.
_NEWTON_BACKTRACKS = 4
_WINDING_MIN_RADIUS = 1e-8
_FLOW_TOL_RATIO = 0.1  # shooting flows run at 0.1 newton_tol, below the residual goal


def wrap_angle_diff(d):
    """Wrap angle differences into (-pi, pi] componentwise."""
    r = np.mod(np.asarray(d, dtype=float), 2 * np.pi)
    return np.where(r > np.pi, r - 2 * np.pi, r)


@dataclass(frozen=True)
class PeriodicSolutionRecord:
    z0: np.ndarray
    residual: float
    iterations: int
    turns: int | None          # clockwise turns of w over [0, T]; None if w nears 0
    x0_normalized: np.ndarray  # x(0) wrapped to [0, 2pi)
    M: int

    @property
    def y0(self):
        return self.z0[self.M:2 * self.M]

    @property
    def w0(self):
        return self.z0[2 * self.M:]


@dataclass(frozen=True)
class NeumannSolutionRecord:
    x_a: np.ndarray
    u_a: float
    residual: float
    iterations: int
    z0: np.ndarray             # full state (x_a, 0, u_a, 0)
    x_a_normalized: np.ndarray


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

def _lm_step(J, R):
    """Levenberg-Marquardt step with Marquardt-scaled fixed damping 1e-6.

    The damping multiplies diag(J^T J) so it stays proportionate to the
    local curvature; a tiny floor keeps the system solvable when columns
    vanish (neutral directions on a solution continuum get a zero step).
    """
    JtJ = J.T @ J
    d = np.diag(JtJ)
    floor = 1e-16 * max(1.0, float(np.max(d, initial=0.0)))
    A = JtJ + np.diag(_LM_DAMPING * np.maximum(d, floor))
    return np.linalg.solve(A, -J.T @ R)


def _line_search(evaluate, z, delta, nR, backtracks=_MAX_BACKTRACKS):
    """Armijo backtracking along ``delta``; (z, R, J, |R|) of the accepted point."""
    alpha = 1.0
    for _ in range(backtracks):
        z_try = z + alpha * delta
        R_try, J_try = evaluate(z_try)
        n_try = float(np.linalg.norm(R_try))
        if n_try <= (1.0 - _ARMIJO_C * alpha) * nR:
            return z_try, R_try, J_try, n_try
        alpha *= 0.5
    return None


def _newton(evaluate, z0, tol, max_iter):
    """Damped Newton with LM fallback; returns (z, |R|, iterations).

    ``evaluate(z)`` returns the residual and its Jacobian at z.
    """
    z = np.asarray(z0, dtype=float).copy()
    R, J = evaluate(z)
    nR = float(np.linalg.norm(R))
    for it in range(max_iter):
        if nR <= tol:
            return z, nR, it
        use_lm = False
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            use_lm = True
        else:
            try:
                delta = np.linalg.solve(J, -R)
            except np.linalg.LinAlgError:
                use_lm = True
        if use_lm:
            delta = _lm_step(J, R)

        step = _line_search(evaluate, z, delta, nR,
                            _MAX_BACKTRACKS if use_lm else _NEWTON_BACKTRACKS)
        if step is None and not use_lm:
            # stalled Newton direction: retry the same iteration with LM
            step = _line_search(evaluate, z, _lm_step(J, R), nR)
        if step is None:
            raise SingularJacobianError(
                f"LM fallback stalled at residual {nR:.3e} (cond ~ {cond:.3e})")
        z, R, J, nR = step
    if nR <= tol:
        return z, nR, max_iter
    raise MaxIterationsError(f"no convergence in {max_iter} iterations; residual {nR:.3e}")


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
    """Dense flow from ``z0`` over the shooting window at the tolerance of the
    shooting flows for ``newton_tol``: the orbit a solution record reports."""
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

    def evaluate(p):
        # one flow of the state and its sensitivity: the defect and its Jacobian
        z = state(p)
        end = integrate(aug, np.concatenate([z, eye.ravel()]), t0, t1,
                        _FLOW_TOL_RATIO * newton_tol, dense=False, switch=sys.switch).ys[-1]
        return _defect(sys, z, end[:n]), (end[n:].reshape(n, len(cols)) - eye)[rows]

    p, res, iters = _newton(evaluate, base[cols], newton_tol, max_iter)
    return state(p), res, iters


def shoot_periodic(sys, z_guess, newton_tol=1e-9, max_iter=40):
    """Newton shooting for a T-periodic solution from ``z_guess``.

    Returns a :class:`PeriodicSolutionRecord`; raises a
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
    return PeriodicSolutionRecord(
        z0=z, residual=res, iterations=iters, turns=turns,
        x0_normalized=np.mod(z[:M], 2 * np.pi), M=M)


def shoot_neumann(sys, guess, newton_tol=1e-9, max_iter=40):
    """Newton shooting for the Neumann problem from guess (x_a, u_a).

    The initial state is (x_a, 0, u_a, 0) by construction; the residual is
    (y(b), v(b)) over the free unknowns in R^{M+1}.
    """
    if sys.mode != "neumann":
        raise ValueError("shoot_neumann requires a Neumann-mode system")
    M = sys.M
    z = np.zeros(sys.dim)
    z[:M], z[2 * M] = guess
    z, res, iters = _shoot(sys, z, newton_tol, max_iter)
    return NeumannSolutionRecord(
        x_a=z[:M], u_a=float(z[2 * M]), residual=res, iterations=iters,
        z0=z, x_a_normalized=np.mod(z[:M], 2 * np.pi))


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
    M = records[0].z0.size // 2 - 1 if records else 0

    def same(i, j):
        d = _wrap_x(records[i].z0 - records[j].z0, M)
        return np.max(np.abs(d)) <= tol

    labels, classes = _union_find_partition(len(records), same)
    reps = tuple(min((records[i] for i in cls), key=lambda r: (r.residual, _canon_key(r)))
                 for cls in classes)
    return DistinctnessPartition(labels=labels, classes=classes, representatives=reps)


def _canon_key(rec):
    M = rec.z0.size // 2 - 1
    return tuple(np.round(np.concatenate([np.mod(rec.z0[:M], 2 * np.pi), rec.z0[M:]]), 9))


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
        y_axes = []
        for i in range(M):
            lo, hi = self.y_ranges[i] if len(self.y_ranges) == M else self.y_ranges[0]
            y_axes.append(np.array([0.5 * (lo + hi)]) if self.y_points == 1
                          else np.linspace(lo, hi, self.y_points))
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
        us = np.linspace(self.u_range[0], self.u_range[1], self.u_points)
        grid = _grid(_x_axes(self.x_points, M) + [us], self.budget, self.jitter, seed)
        return ((z[:M], float(z[M])) for z in grid)


@dataclass(frozen=True)
class MultistartResult:
    records: tuple             # one representative per distinct class
    partition: DistinctnessPartition
    all_records: tuple
    stats: dict


def _multistart(sys, starts, shoot, **kw):
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
            successes.append(shoot(sys, guess, **kw))
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


def multistart_periodic(sys, spec=None, newton_tol=1e-9, max_iter=40, seed=0, **kw):
    """Run :func:`shoot_periodic` from every grid start and deduplicate."""
    starts = (spec or MultistartSpec()).starts(sys.M, seed=seed)
    return _multistart(sys, starts, shoot_periodic, newton_tol=newton_tol,
                       max_iter=max_iter, **kw)


def multistart_neumann(sys, spec=None, newton_tol=1e-9, max_iter=40, seed=0, **kw):
    """Run :func:`shoot_neumann` from every grid start and deduplicate."""
    starts = (spec or NeumannStartSpec()).starts(sys.M, seed=seed)
    return _multistart(sys, starts, shoot_neumann, newton_tol=newton_tol,
                       max_iter=max_iter, **kw)
