"""Experiment configuration: a single YAML file describing system + runs.

Top-level keys::

    mode: periodic | neumann  # default periodic
    M: <int>                  # default 1
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

Loading reads the whole document, top-level keys and every block with
``conditions`` included, by one table (``_FORMAT``) that gives each key its
kind and default (null reads as the default), and builds the system.  Unknown
keys, blocks that are not mappings, bad values and expressions that fail to
build are collected under their YAML paths into one :class:`ValidationError`.
A number, in an array too, is a finite YAML int or float, never a boolean or
a string; an integer is integral (4 or 4.0; 2.7 is refused, not truncated),
seed at least 0, M from 0 to 256 (loading builds arrays and expressions of
size M: at 256 it takes 0.4 s, from about 500 the default Hamiltonian is too
deep to compile), and every count at least 1, so that neither a check nor the solver
runs on zero samples: the counts include ``max_iter`` and the points and
budgets of the start grids, and ``newton_tol`` is positive.
Periodic mode needs T and no interval, neumann mode the reverse.
``enabled`` is a YAML boolean, ``radius`` positive, the avoiding-rays
``sigma`` +1 or -1, ``constants`` rows of two numbers; an enabled twist needs
``D`` and ``sigma``; and ``A`` passes
:func:`~hamshoot.conditions.check_twist_matrix`.  Arrays read as nested
tuples of floats.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from .conditions import check_twist_matrix
from .errors import ConfigParseError, ExprError, SingularMatrixError, ValidationError
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


# Value kinds besides float, int (an integer >= 0) and bool: an integer >= 1,
# a positive number, a mapping, a value passed on as written (preset names and
# expressions), and a float array given by its shape, where "M" is M and None
# admits any length.
_COUNT, _POSITIVE, _AS_IS = "count", "positive", None
_WHAT = {float: "a number", int: "a nonnegative integer", bool: "true or false",
         dict: "a mapping of name -> number", _COUNT: "a positive integer",
         _POSITIVE: "a positive number"}
_NEEDED = "needed"  # no default: a check that is enabled needs the key


def _is_number(value):
    """Whether ``value`` is a number: a finite int or float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _parse(value, kind):
    """``value`` as ``kind``, an array as nested tuples of floats; None if it
    is not one.  Every number, in an array too, must pass :func:`_is_number`;
    an int or count must be integral (4 or 4.0, not 2.7): none is converted
    from a string or a boolean, none truncated."""
    try:
        if isinstance(kind, tuple):
            arr = np.asarray(value, dtype=object)
            if arr.ndim != len(kind) or any(k not in (None, m) for k, m in zip(kind, arr.shape)) \
                    or not all(map(_is_number, arr.flat)):
                return None
            arr = arr.astype(float)
            return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())
        if kind in (bool, dict, _AS_IS):
            return value if kind is _AS_IS or isinstance(value, kind) else None
        integral = kind in (int, _COUNT)
        if not _is_number(value) or integral and value != int(value):
            return None
        number = (int if integral else float)(value)
        return number if {int: number >= 0, _COUNT: number >= 1,
                          _POSITIVE: number > 0}.get(kind, True) else None
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
# the twist-type checks judge the drift of x, which M = 0 does not have
_CHECK = {"enabled": (bool, False, lambda on, M: "enabled needs M >= 1, there is no x block"
                      if on and M == 0 else None),
          "x_points": (_COUNT, 3), "ensemble": _ENSEMBLE}
_BALL = {**_CHECK, "center": (("M",), np.zeros), "radius": (_POSITIVE, 1.0),
         "boundary_points": (_COUNT, 16)}
_FORMAT = {
    "mode": (_AS_IS, "periodic", lambda mode, M: None if mode in ("periodic", "neumann")
             else f"mode must be 'periodic' or 'neumann', got {mode!r}"),
    "M": (int, 1, lambda M, _: None if M <= 256 else f"M must be at most 256, got {M}"),
    "T": (_POSITIVE, None),
    "interval": ((2,), None, lambda ab, M: None if ab[0] < ab[1]
                 else f"interval must be [a, b] with a < b, got {list(ab)}"),
    "seed": (int, 0), "params": (dict, {}),  # each value a number, see loads_config
    "hamiltonian": {"preset": (_AS_IS, "free_rotator"), "A": (float, 1.0),
                    "E": (_AS_IS, "0"), "expr": (_AS_IS, None)},
    "coupling": {"expr": (_AS_IS, "0")},
    "planar": {"preset": (_AS_IS, "asymmetric"), "mu1": (float, 1.0), "nu1": (float, 1.0),
               "mu2": (float, None), "nu2": (float, None), "h": (_AS_IS, "0"),
               **dict.fromkeys(("K", "components", "H1", "H2", "Q"), (_AS_IS, None))},
    "solver": {  # a start-grid key left out takes the grid's own default
        "newton_tol": (_POSITIVE, 1e-9), "max_iter": (_COUNT, 40),
        "multistart": {"x_points": (_COUNT, None), "y_points": (_COUNT, None),
                       "y_ranges": ((None, 2), None, lambda v, M: None if not M or len(v) in (1, M)
                                    else f"y_ranges must have 1 (shared) or M={M} rows"),
                       "w_radii": ((None,), None), "w_angles": (_COUNT, None),
                       "budget": (_COUNT, None), "jitter": (float, None)},
        "neumann_multistart": {"x_points": (_COUNT, None), "u_range": ((2,), None),
                               "u_points": (_COUNT, None), "budget": (_COUNT, None),
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


def _read(section, table, where, M, problems):
    """The block ``section`` at YAML path ``where`` ("" for the document),
    read by ``table``: each key's value, or its default when absent or null.
    What does not read goes to ``problems`` under its path and reads as the
    default."""
    if not isinstance(section, (dict, type(None))):
        problems.append(f"{where} must be a mapping, got {section!r}")
    section = section if isinstance(section, dict) else {}
    at = f"{where}." if where else ""
    problems.extend(f"{at}{k} must be one of the keys {', '.join(table)}"
                    for k in section if k not in table)
    values = {}
    for key, entry in table.items():
        value = section.get(key)
        kind, default, check = (entry, {}, None) if isinstance(entry, dict) else (*entry, None)[:3]
        if isinstance(kind, dict):
            values[key] = None if value is None and default is None else \
                _read(value, kind, at + key, M, problems)
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
            problems.append(at + wrong)
            parsed = _parse(default, shape)  # None for no default
        values[key] = parsed
    return values


def read_top_key(key, value, problems):
    """``value`` read by the rule of the top-level ``key`` (its default if it
    does not read; what is wrong goes to ``problems``)."""
    return _read({key: value}, {key: _FORMAT[key]}, "", None, problems)[key]


@contextmanager
def _reading(where, problems):
    """Add what fails inside to ``problems`` under the YAML path ``where``: a
    ValidationError's problems (each starts with its key) as ``where.problem``,
    an expression error as ``where: error``."""
    try:
        yield
    except ValidationError as exc:
        problems.extend(f"{where}.{p}" for p in exc.problems)
    except ExprError as exc:
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

    # shapes depend on M: read it first, its problems with the rest
    M = read_top_key("M", raw.get("M"), [])
    problems = []
    top = _read(raw, _FORMAT, "", M, problems)
    mode, params = top["mode"], top["params"]
    need, refuse = ("T", "interval") if mode == "periodic" else ("interval", "T")
    if raw.get(need) is None:
        problems.append(f"{mode} mode requires {need}")
    if raw.get(refuse) is not None:
        problems.append(f"{mode} mode must not set {refuse}")
    problems.extend(f"params.{k} must be a number, got {v!r}"
                    for k, v in params.items() if not _is_number(v))
    top["params"] = {k: v for k, v in params.items() if _is_number(v)}
    system, stiffness = _build_system(top, problems)

    if problems:
        raise ValidationError(problems)

    solver, stride = top["solver"], top["output"]["trajectory_stride"]
    starts = {key: spec(**{k: v for k, v in solver[key].items() if v is not None})
              for key, spec in (("multistart", MultistartSpec),
                                ("neumann_multistart", NeumannStartSpec))}
    return ExperimentConfig(
        path=path, config_hash=cfg_hash, mode=mode, M=M, seed=top["seed"],
        newton_tol=solver["newton_tol"], max_iter=solver["max_iter"], **starts,
        conditions=top["conditions"],
        trajectory_stride=system.span / 1000.0 if stride is None else stride,
        system=system, _stiffness=stiffness,
    )


def _build_system(top, problems):
    """Build the system from the document ``top`` as read, adding what fails to
    ``problems`` under its YAML path.  Returns the CoupledSystem (None if there
    are problems) and the stiffness pairs of an asymmetric planar preset."""
    M, params = top["M"], top["params"]
    ham = top["hamiltonian"]
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
    coupling = top["coupling"]["expr"]
    if coupling != "0":
        with _reading("coupling", problems):
            grad_P = coupling_from_expr(coupling, M, params)

    planar = top["planar"]
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
    F, dec = block
    return CoupledSystem(M=M, F=F, grad_H=grad_H, grad_P=grad_P, T=top["T"],
                         interval=top["interval"], decomposition=dec), stiffness
