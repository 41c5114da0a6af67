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

Loading reads every block, ``conditions`` included, by one table
(``_FORMAT``) that gives each key its kind and default (null reads as the
default), and builds the system.  Unknown keys, blocks that are not
mappings, bad values and expressions that fail to build are collected under
their YAML paths into one :class:`ValidationError`.  So that no check passes
on zero samples, every count is at least 1; ``enabled`` is a YAML boolean,
``radius`` positive, the avoiding-rays ``sigma`` +1 or -1, ``constants``
rows of two numbers; an enabled twist needs ``D`` and ``sigma``; and ``A``
passes :func:`~hamshoot.conditions.check_twist_matrix`.  Arrays read as
nested tuples of floats.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from .conditions import check_twist_matrix
from .errors import (ConfigParseError, ExprSyntaxError, SingularMatrixError,
                     UnboundVariableError, ValidationError)
from .presets import (asymmetric_field, coupling_from_expr, free_rotator,
                      hamiltonian_block_from_expr, pendulum_hamiltonian,
                      planar_field_from_expr)
from .solvers import MultistartSpec, NeumannStartSpec
from .systems import CoupledSystem

__all__ = ["ExperimentConfig", "load_config", "loads_config"]


@dataclass
class ExperimentConfig:
    path: str
    config_hash: str
    mode: str
    M: int
    seed: int
    newton_tol: float
    max_iter: int
    multistart: MultistartSpec
    neumann_multistart: NeumannStartSpec
    conditions: dict  # the parsed conditions block, defaults filled in
    trajectory_stride: float  # time between rows of dumped trajectories
    system: CoupledSystem = field(default=None, repr=False)
    # (mu1, nu1, mu2, nu2) of the asymmetric planar preset, None for other blocks
    _stiffness: tuple = field(default=None, repr=False)


# Value kinds besides float, int and bool: an integer >= 1, a positive finite
# number, a value passed on as written (preset names and expressions), and a
# float array given by its shape, where "M" is M and None admits any length.
_COUNT, _POSITIVE, _AS_IS = "count", "positive", None
_WHAT = {float: "a number", int: "an integer", bool: "true or false",
         _COUNT: "a positive integer", _POSITIVE: "a positive number"}
_NEEDED = "needed"  # no default: a check that is enabled needs the key


def _parse(value, kind):
    """``value`` as ``kind``, an array as nested tuples; None if it is not one."""
    try:
        if isinstance(kind, tuple):
            arr = np.asarray(value, dtype=float)
            if arr.ndim == len(kind) and all(k in (None, m) for k, m in zip(kind, arr.shape)):
                return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())
            return None
        if kind in (bool, _AS_IS):
            return value if kind is _AS_IS or isinstance(value, bool) else None
        number = (int if kind in (int, _COUNT) else float)(value)
        ok = kind in (int, float) or (number >= 1 if kind == _COUNT else 0.0 < number < np.inf)
        return number if ok else None
    except (TypeError, ValueError, OverflowError):
        return None


# Each key of a block: a nested block (read with its defaults when absent), or
# (kind, default[, check]).  A default may be a function of M; a block kind
# with default None is read only when given.  check(value, M) returns what is
# wrong with a given value that parsed, starting with its key, or None, or
# raises SingularMatrixError with such a message.
_ENSEMBLE = {"constants": ((None, 2), [[0.0, 0.0]]),
             "fourier": ({"count": (_COUNT, 2), "amplitude": (float, 1.0),
                          "modes": (_COUNT, 3)}, None)}
_CHECK = {"enabled": (bool, False), "x_points": (_COUNT, 3), "ensemble": _ENSEMBLE}
_BALL = {**_CHECK, "center": (("M",), np.zeros), "radius": (_POSITIVE, 1.0),
         "boundary_points": (_COUNT, 16)}
_FORMAT = {
    "hamiltonian": {"preset": (_AS_IS, "free_rotator"), "A": (float, 1.0),
                    "E": (_AS_IS, "0"), "expr": (_AS_IS, None)},
    "coupling": {"expr": (_AS_IS, "0")},
    "planar": {"preset": (_AS_IS, "asymmetric"), "mu1": (float, 1.0), "nu1": (float, 1.0),
               "mu2": (float, None), "nu2": (float, None), "h": (_AS_IS, "0"),
               **dict.fromkeys(("K", "components", "H1", "H2", "Q"), (_AS_IS, None))},
    "solver": {  # a start-grid key left out takes the grid's own default
        "newton_tol": (float, 1e-9), "max_iter": (int, 40),
        "multistart": {"x_points": (int, None), "y_points": (int, None),
                       "y_ranges": ((None, 2), None, lambda v, M: None if not M or len(v) in (1, M)
                                    else f"y_ranges must have 1 (shared) or M={M} rows"),
                       "w_radii": ((None,), None), "w_angles": (int, None),
                       "budget": (int, None), "jitter": (float, None)},
        "neumann_multistart": {"x_points": (int, None), "u_range": ((2,), None),
                               "u_points": (int, None), "budget": (int, None),
                               "jitter": (float, None)}},
    "conditions": {
        "resonance_tol": (float, 1e-9),
        "mbar": {"n_samples": (_COUNT, 10000),
                 "y_box": (("M", 2), lambda M: np.full((M, 2), (-1.0, 1.0))),
                 "w_box": ((2, 2), [[-2.0, 2.0]] * 2)},
        "ll": {"enabled": (bool, False), "theta_points": (_COUNT, 64),
               "lambda_min": (_POSITIVE, 1e2), "lambda_max": (_POSITIVE, 1e6),
               "lambda_points": (_COUNT, 9), "s_points": (_COUNT, 5),
               "t_nodes": (_COUNT, 512), "mbar": (float, None)},  # None: estimated
        "twist": {**_CHECK, "y_points": (_COUNT, 3),
                  "D": (("M", 2), _NEEDED, lambda D, M: None if all(a < b for a, b in D)
                        else f"D must be M={M} ranges [a_i, b_i] with a_i < b_i"),
                  "sigma": (("M",), _NEEDED, lambda s, M: None if all(abs(c) == 1 for c in s)
                            else f"sigma must be M={M} entries of +-1")},
        "avoiding_rays": {**_BALL, "sigma": (float, 1, lambda s, M: None if s in (1, -1)
                                             else f"sigma must be +1 or -1, got {s:g}")},
        "indefinite_twist": {**_BALL, "A": (("M", "M"), np.eye, check_twist_matrix)}},
    "output": {"trajectory_stride": (_POSITIVE, None)},  # None: span / 1000
}
_ALLOWED_TOP = {"mode", "M", "T", "interval", "seed", "params", *_FORMAT}


def _read(section, table, where, M, problems):
    """The block ``section`` at YAML path ``where``, read by ``table``: each
    key's value, or its default when absent or null.  What does not read goes
    to ``problems`` under its path and reads as the default."""
    if not isinstance(section, (dict, type(None))):
        problems.append(f"{where} must be a mapping, got {section!r}")
    section = section if isinstance(section, dict) else {}
    problems.extend(f"{where}.{k} must be one of the keys {', '.join(table)}"
                    for k in section if k not in table)
    values = {}
    for key, entry in table.items():
        value = section.get(key)
        kind, default, check = (entry, {}, None) if isinstance(entry, dict) else (*entry, None)[:3]
        if isinstance(kind, dict):
            values[key] = None if value is None and default is None else \
                _read(value, kind, f"{where}.{key}", M, problems)
            continue
        default = default(M) if callable(default) else default
        if value is None:
            if default is None or default is _NEEDED and not values.get("enabled"):
                values[key] = None
                continue
            if default is not _NEEDED:  # a needed key is read as None: reported missing
                value, check = default, None
        shape = tuple(M if k == "M" else k for k in kind) if isinstance(kind, tuple) else kind
        parsed = _parse(value, shape)
        what = _WHAT.get(kind) or f"numbers in shape {str(shape).replace('None', 'n')}"
        try:
            wrong = f"{key} must be {what}, got {value!r}" if parsed is None else \
                check and check(parsed, M)
        except SingularMatrixError as exc:
            wrong = str(exc)
        if wrong:
            problems.append(f"{where}.{wrong}")
            parsed = _parse(default, shape)  # None for no default
        values[key] = parsed
    return values


@contextmanager
def _reading(where, problems):
    """Add what fails inside to ``problems`` under the YAML path ``where``: a
    ValidationError's problems (each starts with its key) as ``where.problem``,
    an expression error as ``where: error``."""
    try:
        yield
    except ValidationError as exc:
        problems.extend(f"{where}.{p}" for p in exc.problems)
    except (ExprSyntaxError, UnboundVariableError) as exc:
        problems.append(f"{where}: {exc}")


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

    blocks = {key: _read(raw.get(key), table, key, M, problems)
              for key, table in _FORMAT.items()}
    system, stiffness = _build_system(blocks, M, params, T, interval, problems)

    if problems:
        raise ValidationError(problems)

    solver, stride = blocks["solver"], blocks["output"]["trajectory_stride"]
    starts = {key: spec(**{k: v for k, v in solver[key].items() if v is not None})
              for key, spec in (("multistart", MultistartSpec),
                                ("neumann_multistart", NeumannStartSpec))}
    return ExperimentConfig(
        path=path, config_hash=cfg_hash, mode=mode, M=M, seed=seed,
        newton_tol=solver["newton_tol"], max_iter=solver["max_iter"], **starts,
        conditions=blocks["conditions"],
        trajectory_stride=system.span / 1000.0 if stride is None else stride,
        system=system, _stiffness=stiffness,
    )


def _build_system(blocks, M, params, T, interval, problems):
    """Build the system from the top-level ``blocks``, adding what fails to
    ``problems`` under its YAML path.  Returns the CoupledSystem (None if there
    are problems) and the stiffness pairs of an asymmetric planar preset."""
    ham = blocks["hamiltonian"]
    hpreset = ham["preset"]
    grad_H = None
    with _reading("hamiltonian", problems):
        if hpreset == "pendulum":
            if M != 1:
                raise ValidationError(["preset pendulum requires M = 1"])
            grad_H = pendulum_hamiltonian(ham["A"], ham["E"], params)
        elif hpreset == "expr":
            if ham["expr"] is None:
                raise ValidationError(["expr is required by preset expr"])
            grad_H = hamiltonian_block_from_expr(ham["expr"], M, params)
        elif hpreset == "free_rotator":
            grad_H = free_rotator(M)
        else:
            raise ValidationError([f"preset {hpreset!r} is unknown"])

    grad_P = None
    coupling = blocks["coupling"]["expr"]
    if coupling != "0":
        with _reading("coupling", problems):
            grad_P = coupling_from_expr(coupling, M, params)

    planar = blocks["planar"]
    ppreset = planar["preset"]
    block = stiffness = None
    with _reading("planar", problems):
        if ppreset == "asymmetric":
            mu1, nu1, mu2, nu2 = (planar[k] for k in ("mu1", "nu1", "mu2", "nu2"))
            stiffness = (mu1, nu1, mu1 if mu2 is None else mu2, nu1 if nu2 is None else nu2)
            block = asymmetric_field(*stiffness, planar["h"], params)
        elif ppreset == "expr":
            block = planar_field_from_expr(
                K_src=planar["K"], components=planar["components"], params=params,
                H1_src=planar["H1"], H2_src=planar["H2"], Q_src=planar["Q"])
        else:
            raise ValidationError([f"preset {ppreset!r} is unknown"])

    if problems:
        return None, None
    F, dec, w_kink = block
    return CoupledSystem(M=M, F=F, grad_H=grad_H, grad_P=grad_P,
                         T=None if T is None else float(T),
                         interval=None if interval is None else tuple(map(float, interval)),
                         decomposition=dec, w_kink=w_kink), stiffness
