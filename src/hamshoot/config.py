"""Experiment configuration: a single YAML file describing system + runs.

Top-level keys::

    mode: periodic | neumann
    M: <int>
    T: <float>                # periodic mode
    interval: [a, b]          # neumann mode
    seed: <int>               # drives all randomized sampling (default 0)
    params: {name: value}     # constants usable inside every expression

    hamiltonian:              # the (x, y) block
      preset: pendulum | free_rotator | expr
      A: 1.0                  # pendulum stiffness
      E: "0"                  # pendulum forcing primitive, expression in t
      expr: "..."             # when preset: expr (variables t, x1.., y1..)

    coupling:                 # optional P block, expression in t, x.., y.., u, v
      expr: "eps*sin(x)*sin(u)"

    planar:                   # the w block
      preset: asymmetric | expr
      mu1: 4.0                # asymmetric stiffness pairs (mu2, nu2 optional)
      nu1: 1.0
      h: "0"                  # bounded remainder, expression in t, u
      K: "..."                # when preset: expr, F = grad_w K(t, u, v)
      components: ["...", "..."]   # alternative to K: F components directly
      H1: "..."               # optional decomposition for expr planar blocks
      H2: "..."
      Q: "0"

    solver:
      newton_tol: 1.0e-9
      max_iter: 40
      multistart: {x_points, y_ranges, y_points, w_radii, w_angles, budget, jitter}
      neumann_multistart: {x_points, u_range, u_points, budget, jitter}

    conditions:
      resonance_tol: 1.0e-9
      mbar: {n_samples, y_box, w_box}
      ll: {enabled, theta_points, lambda_min, lambda_max, lambda_points,
           s_points, t_nodes, mbar}
      twist: {enabled, D, sigma, x_points, y_points,
              ensemble: {constants: [[u,v], ...], fourier: {count, amplitude, modes}}}
      avoiding_rays: {enabled, center, radius, sigma, boundary_points, x_points, ensemble}
      indefinite_twist: {enabled, center, radius, A, boundary_points, x_points, ensemble}

    output:
      trajectory_stride: <float>  # row spacing of --dump-trajectories (default span/1000)

Loading builds the system.  Everything that fails to read or to build is
collected, under its YAML path, into one :class:`ValidationError`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigParseError, ExprSyntaxError, UnboundVariableError, ValidationError
from .presets import (asymmetric_field, coupling_from_expr, free_rotator,
                      hamiltonian_block_from_expr, pendulum_hamiltonian,
                      planar_field_from_expr)
from .solvers import MultistartSpec, NeumannStartSpec
from .systems import CoupledSystem

__all__ = ["ExperimentConfig", "load_config", "loads_config"]

_ALLOWED_TOP = {"mode", "M", "T", "interval", "seed", "params", "hamiltonian",
                "coupling", "planar", "solver", "conditions", "output"}


@dataclass
class ExperimentConfig:
    path: str
    config_hash: str
    mode: str
    M: int
    T: float | None
    interval: tuple | None
    seed: int
    params: dict
    newton_tol: float
    max_iter: int
    multistart: MultistartSpec
    neumann_multistart: NeumannStartSpec
    conditions: dict
    trajectory_stride: float  # time between rows of dumped trajectories
    system: CoupledSystem = field(default=None, repr=False)
    # (mu1, nu1, mu2, nu2) of the asymmetric planar preset, None for other blocks
    _stiffness: tuple = field(default=None, repr=False)


def _number(section, key, default, kind=float):
    """``section[key]``, or ``default`` when absent, as ``kind``: float, int,
    or the shape of a float array, where None admits any length."""
    value = section.get(key, default)
    try:
        if not isinstance(kind, tuple):
            return kind(value)
        arr = np.asarray(value, dtype=float)
        if arr.ndim == len(kind) and all(k in (None, m) for k, m in zip(kind, arr.shape)):
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    what = {int: "an integer", float: "a number"}.get(
        kind, f"numbers in shape {str(kind).replace('None', 'n')}")
    raise ValidationError([f"{key} must be {what}, got {value!r}"])


def _mapping(section, key, problems, where=""):
    """``section[key]`` as a mapping, {} when absent or null; anything else is
    added to ``problems`` under ``where + key``."""
    value = section.get(key)
    if value is None or isinstance(value, dict):
        return value or {}
    problems.append(f"{where}{key} must be a mapping, got {value!r}")
    return {}


# the keys of each start grid, each with its kind for _number
_START_KEYS = {
    "multistart": (MultistartSpec, {
        "x_points": int, "y_ranges": (None, 2), "y_points": int, "w_radii": (None,),
        "w_angles": int, "budget": int, "jitter": float}),
    "neumann_multistart": (NeumannStartSpec, {
        "x_points": int, "u_range": (2,), "u_points": int, "budget": int, "jitter": float}),
}


def _known(section, keys, where, problems):
    """Add every key of ``section`` that is not in ``keys`` to ``problems``."""
    problems.extend(f"{where}.{k} must be one of the keys {', '.join(keys)}"
                    for k in section if k not in keys)


def _start_spec(solver, key, M, problems):
    """The start grid ``solver[key]``; what fails to read goes to ``problems``."""
    spec, kinds = _START_KEYS[key]
    where = f"solver.{key}"
    block = _mapping(solver, key, problems, "solver.")
    _known(block, kinds, where, problems)
    values = {}
    for name in (k for k in kinds if k in block):
        with _reading(where, problems):
            value = _number(block, name, None, kinds[name])
            if isinstance(value, np.ndarray):
                value = tuple(map(tuple, value.tolist()) if value.ndim == 2 else value.tolist())
            if name == "y_ranges" and M and len(value) not in (1, M):
                raise ValidationError([f"y_ranges must have 1 (shared) or M={M} rows"])
            values[name] = value
    return spec(**values)


@contextmanager
def _reading(where, problems=None):
    """Name what fails inside by the YAML path ``where``: a ValidationError's
    problems (each starts with its key) as ``where.problem``, an expression
    error as ``where: error``; add them to ``problems``, or raise them."""
    try:
        yield
        return
    except ValidationError as exc:
        found = [f"{where}.{p}" for p in exc.problems]
    except (ExprSyntaxError, UnboundVariableError) as exc:
        found = [f"{where}: {exc}"]
    if problems is None:
        raise ValidationError(found) from None
    problems.extend(found)


def load_config(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from None
    return loads_config(data.decode("utf-8"), path=str(path))


def loads_config(text, path="<string>"):
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid YAML in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config {path} must be a mapping")
    cfg_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()

    problems = []
    unknown = set(raw) - _ALLOWED_TOP
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")
    blocks = {key: _mapping(raw, key, problems) for key in
              ("hamiltonian", "coupling", "planar", "solver", "conditions", "output")}

    mode = raw.get("mode", "periodic")
    if mode not in ("periodic", "neumann"):
        problems.append(f"mode must be 'periodic' or 'neumann', got {mode!r}")

    M = raw.get("M", 1)
    if not isinstance(M, int) or M < 0:
        problems.append(f"M must be a nonnegative integer, got {M!r}")
        M = max(int(M), 0) if isinstance(M, (int, float)) else 1

    T = raw.get("T")
    interval = raw.get("interval")
    if mode == "periodic":
        if T is None:
            problems.append("periodic mode requires T")
        elif not (isinstance(T, (int, float)) and T > 0):
            problems.append(f"T must be a positive number, got {T!r}")
        if interval is not None:
            problems.append("periodic mode must not set interval")
    else:
        if interval is None:
            problems.append("neumann mode requires interval: [a, b]")
        elif not (isinstance(interval, (list, tuple)) and len(interval) == 2
                  and all(isinstance(c, (int, float)) for c in interval)
                  and interval[0] < interval[1]):
            problems.append(f"interval must be [a, b] with a < b, got {interval!r}")
        if T is not None:
            problems.append("neumann mode must not set T")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    params = raw.get("params", {}) or {}
    if not isinstance(params, dict):
        problems.append("params must be a mapping of name -> number")
        params = {}
    for k, v in params.items():
        if not isinstance(v, (int, float)):
            problems.append(f"params.{k} must be a number, got {v!r}")
    params = {k: v for k, v in params.items() if isinstance(v, (int, float))}

    twist = _mapping(blocks["conditions"], "twist", problems, "conditions.")
    if twist.get("enabled", False):
        with _reading("conditions.twist", problems):
            D = _number(twist, "D", None, (M, 2))
            if not np.all(D[:, 0] < D[:, 1]):
                raise ValidationError([f"D must be M={M} ranges [a_i, b_i] with a_i < b_i"])
        with _reading("conditions.twist", problems):
            if not np.all(np.abs(_number(twist, "sigma", None, (M,))) == 1):
                raise ValidationError([f"sigma must be M={M} entries of +-1"])

    solver = blocks["solver"]
    _known(solver, ("newton_tol", "max_iter", *_START_KEYS), "solver", problems)
    with _reading("solver", problems):
        newton_tol = _number(solver, "newton_tol", 1e-9)
    with _reading("solver", problems):
        max_iter = _number(solver, "max_iter", 40, int)
    starts = {key: _start_spec(solver, key, M, problems) for key in _START_KEYS}

    stride = None
    if "trajectory_stride" in blocks["output"]:
        with _reading("output", problems):
            stride = _number(blocks["output"], "trajectory_stride", None)
            if not 0.0 < stride < np.inf:
                raise ValidationError([f"trajectory_stride must be positive, got {stride!r}"])

    system, stiffness = _build_system(blocks, M, params, T, interval, problems)

    if problems:
        raise ValidationError(problems)

    return ExperimentConfig(
        path=path, config_hash=cfg_hash, mode=mode, M=M,
        T=system.T, interval=system.interval,
        seed=seed, params=dict(params),
        newton_tol=newton_tol, max_iter=max_iter, **starts,
        conditions=blocks["conditions"],
        trajectory_stride=system.span / 1000.0 if stride is None else stride,
        system=system, _stiffness=stiffness,
    )


def _build_system(blocks, M, params, T, interval, problems):
    """Build the system from the top-level ``blocks``, adding what fails to
    ``problems`` under its YAML path.  Returns the CoupledSystem (None if there
    are problems) and the stiffness pairs of an asymmetric planar preset."""
    ham = blocks["hamiltonian"]
    hpreset = ham.get("preset", "free_rotator")
    grad_H = None
    with _reading("hamiltonian", problems):
        if hpreset == "pendulum":
            if M != 1:
                raise ValidationError(["preset pendulum requires M = 1"])
            grad_H = pendulum_hamiltonian(_number(ham, "A", 1.0), ham.get("E", "0"), params)
        elif hpreset == "expr":
            if "expr" not in ham:
                raise ValidationError(["expr is required by preset expr"])
            grad_H = hamiltonian_block_from_expr(ham["expr"], M, params)
        elif hpreset == "free_rotator":
            grad_H = free_rotator(M)
        else:
            raise ValidationError([f"preset {hpreset!r} is unknown"])

    grad_P = None
    coupling = blocks["coupling"].get("expr", "0")
    if coupling != "0":
        with _reading("coupling", problems):
            grad_P = coupling_from_expr(coupling, M, params)

    planar = blocks["planar"]
    ppreset = planar.get("preset", "asymmetric")
    block = stiffness = None
    with _reading("planar", problems):
        if ppreset == "asymmetric":
            mu1, nu1 = _number(planar, "mu1", 1.0), _number(planar, "nu1", 1.0)
            stiffness = (mu1, nu1, _number(planar, "mu2", mu1), _number(planar, "nu2", nu1))
            block = asymmetric_field(*stiffness, planar.get("h", "0"), params)
        elif ppreset == "expr":
            block = planar_field_from_expr(
                K_src=planar.get("K"), components=planar.get("components"),
                params=params, H1_src=planar.get("H1"), H2_src=planar.get("H2"),
                Q_src=planar.get("Q"))
        else:
            raise ValidationError([f"preset {ppreset!r} is unknown"])

    if problems:
        return None, None
    F, dec, w_kink = block
    return CoupledSystem(M=M, F=F, grad_H=grad_H, grad_P=grad_P,
                         T=None if T is None else float(T),
                         interval=None if interval is None else tuple(map(float, interval)),
                         decomposition=dec, w_kink=w_kink,
                         label=f"{hpreset}+{ppreset}"), stiffness
