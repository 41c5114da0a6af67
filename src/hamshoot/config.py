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

Validation collects every violation and raises :class:`ValidationError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import yaml

from . import expr as xp
from .errors import ConfigParseError, ValidationError
from .presets import (asymmetric_field, coupling_from_expr, free_rotator,
                      hamiltonian_block_from_expr, pendulum_hamiltonian,
                      planar_field_from_expr, xy_names)
from .solvers import MultistartSpec, NeumannStartSpec
from .systems import CoupledSystem

__all__ = ["ExperimentConfig", "load_config", "loads_config"]

_ALLOWED_TOP = {"mode", "M", "T", "interval", "seed", "params", "hamiltonian",
                "coupling", "planar", "solver", "conditions", "output"}


@dataclass
class ExperimentConfig:
    raw: dict
    path: str
    config_hash: str
    mode: str
    M: int
    T: float | None
    interval: tuple | None
    seed: int
    params: dict
    solver: dict
    conditions: dict
    output: dict
    _system: CoupledSystem = field(default=None, repr=False)

    @property
    def system(self):
        if self._system is None:
            self._system = _build_system(self)
        return self._system

    def multistart_spec(self):
        ms = dict(self.solver.get("multistart", {}))
        ms.setdefault("y_ranges", [[-1.0, 1.0]])
        ms["y_ranges"] = tuple(tuple(map(float, r)) for r in ms["y_ranges"])
        if "w_radii" in ms:
            ms["w_radii"] = tuple(float(r) for r in ms["w_radii"])
        return MultistartSpec(**ms)

    def neumann_spec(self):
        ms = dict(self.solver.get("neumann_multistart", {}))
        if "u_range" in ms:
            ms["u_range"] = tuple(map(float, ms["u_range"]))
        return NeumannStartSpec(**ms)


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
        elif not T > 0:
            problems.append(f"T must be positive, got {T}")
        if interval is not None:
            problems.append("periodic mode must not set interval")
    else:
        if interval is None:
            problems.append("neumann mode requires interval: [a, b]")
        elif not (isinstance(interval, (list, tuple)) and len(interval) == 2
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
    else:
        for k, v in params.items():
            if not isinstance(v, (int, float)):
                problems.append(f"params.{k} must be a number, got {v!r}")

    problems += _validate_blocks(raw, M, params)

    if problems:
        raise ValidationError(problems)

    return ExperimentConfig(
        raw=raw, path=path, config_hash=cfg_hash, mode=mode, M=M,
        T=float(T) if T is not None else None,
        interval=tuple(map(float, interval)) if interval is not None else None,
        seed=seed, params=dict(params),
        solver=raw.get("solver", {}) or {},
        conditions=raw.get("conditions", {}) or {},
        output=raw.get("output", {}) or {},
    )


def _check_expr(src, allowed, params, where, problems):
    if src is None:
        return None
    try:
        ast = xp.parse_expr(str(src))
    except Exception as exc:
        problems.append(f"{where}: {exc}")
        return None
    extra = xp.free_variables(ast) - set(allowed) - set(params)
    if extra:
        problems.append(f"{where}: unknown variables {sorted(extra)} "
                        f"(allowed: {sorted(allowed)} plus params)")
    return ast


def _validate_blocks(raw, M, params):
    problems = []
    xn, yn = xy_names(M)
    alias = ["x", "y"] if M == 1 else []

    ham = raw.get("hamiltonian", {}) or {}
    hpreset = ham.get("preset", "free_rotator")
    if hpreset == "pendulum":
        if M != 1:
            problems.append("hamiltonian.preset pendulum requires M = 1")
        if not ham.get("A", 1.0) > 0:
            problems.append("hamiltonian.A must be positive")
        _check_expr(ham.get("E", "0"), ["t"], params, "hamiltonian.E", problems)
    elif hpreset == "expr":
        if "expr" not in ham:
            problems.append("hamiltonian.preset expr requires hamiltonian.expr")
        _check_expr(ham.get("expr"), ["t"] + xn + yn + alias, params,
                    "hamiltonian.expr", problems)
    elif hpreset != "free_rotator":
        problems.append(f"unknown hamiltonian.preset {hpreset!r}")

    coup = raw.get("coupling")
    if coup:
        _check_expr(coup.get("expr", "0"), ["t", "u", "v"] + xn + yn + alias,
                    params, "coupling.expr", problems)

    planar = raw.get("planar", {}) or {}
    ppreset = planar.get("preset", "asymmetric")
    if ppreset == "asymmetric":
        mu1 = planar.get("mu1", 1.0)
        nu1 = planar.get("nu1", 1.0)
        mu2 = planar.get("mu2", mu1)
        nu2 = planar.get("nu2", nu1)
        for name, val in (("mu1", mu1), ("nu1", nu1), ("mu2", mu2), ("nu2", nu2)):
            if not (isinstance(val, (int, float)) and val > 0):
                problems.append(f"planar.{name} must be a positive number, got {val!r}")
        if isinstance(mu1, (int, float)) and isinstance(mu2, (int, float)) and mu2 < mu1:
            problems.append(f"planar stiffness ordering violated: mu2 = {mu2} < mu1 = {mu1}")
        if isinstance(nu1, (int, float)) and isinstance(nu2, (int, float)) and nu2 < nu1:
            problems.append(f"planar stiffness ordering violated: nu2 = {nu2} < nu1 = {nu1}")
        _check_expr(planar.get("h", "0"), ["t", "u"], params, "planar.h", problems)
    elif ppreset == "expr":
        has_K = "K" in planar
        has_comp = "components" in planar
        if has_K == has_comp:
            problems.append("planar.preset expr requires exactly one of K or components")
        _check_expr(planar.get("K"), ["t", "u", "v"], params, "planar.K", problems)
        for i, c in enumerate(planar.get("components", []) or []):
            _check_expr(c, ["t", "u", "v"], params, f"planar.components[{i}]", problems)
        for key in ("H1", "H2", "Q"):
            _check_expr(planar.get(key), ["t", "u", "v"], params, f"planar.{key}", problems)
        if ("H1" in planar) != ("H2" in planar):
            problems.append("planar decomposition requires both H1 and H2")
    else:
        problems.append(f"unknown planar.preset {ppreset!r}")

    cond = raw.get("conditions", {}) or {}
    twist = cond.get("twist", {}) or {}
    if twist.get("enabled", False):
        D = twist.get("D")
        if not (isinstance(D, (list, tuple)) and len(D) == M
                and all(len(r) == 2 and r[0] < r[1] for r in D)):
            problems.append(f"conditions.twist.D must be M={M} ranges [a_i, b_i]")
        sig = twist.get("sigma")
        if not (isinstance(sig, (list, tuple)) and len(sig) == M
                and all(s in (-1, 1) for s in sig)):
            problems.append(f"conditions.twist.sigma must be M={M} entries of +-1")
    return problems


def _build_system(cfg):
    raw = cfg.raw
    params = cfg.params
    M = cfg.M

    ham = raw.get("hamiltonian", {}) or {}
    hpreset = ham.get("preset", "free_rotator")
    if hpreset == "pendulum":
        grad_H = pendulum_hamiltonian(float(ham.get("A", 1.0)), str(ham.get("E", "0")), params)
    elif hpreset == "expr":
        grad_H = hamiltonian_block_from_expr(ham["expr"], M, params)
    else:
        grad_H = free_rotator(M)

    grad_P = None
    coup = raw.get("coupling")
    if coup and coup.get("expr", "0") != "0":
        grad_P = coupling_from_expr(coup["expr"], M, params)

    planar = raw.get("planar", {}) or {}
    ppreset = planar.get("preset", "asymmetric")
    if ppreset == "asymmetric":
        mu1 = float(planar.get("mu1", 1.0))
        nu1 = float(planar.get("nu1", 1.0))
        F, dec, w_kink = asymmetric_field(
            mu1, nu1,
            float(planar.get("mu2", mu1)), float(planar.get("nu2", nu1)),
            str(planar.get("h", "0")), params)
    else:
        F, dec, w_kink = planar_field_from_expr(
            K_src=planar.get("K"), components=planar.get("components"),
            params=params, H1_src=planar.get("H1"), H2_src=planar.get("H2"),
            Q_src=planar.get("Q"))

    return CoupledSystem(M=M, F=F, grad_H=grad_H, grad_P=grad_P,
                         T=cfg.T, interval=cfg.interval, decomposition=dec,
                         w_kink=w_kink,
                         label=f"{hpreset}+{ppreset}")
