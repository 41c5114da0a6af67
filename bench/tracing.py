"""Spans and counters around hamshoot's public functions, patched from outside.

Nothing in ``src/`` is edited: every wrapper is installed by rebinding the
module attributes that hold the original function (``from .x import f``
copies included), so calls made through any module see the wrapper.

Two levels:

* ``coarse`` (every run): the stage boundaries that the end-to-end metrics
  need, a few dozen calls per pass, so the timing cost is negligible;
* ``full`` (``--trace 1`` only): also every integrator call, RHS evaluation,
  expression walk and reference-orbit lookup.

Coarse layers record spans (name, start, end, parent, attributes).  The
hottest layers (RHS, ``grad_expr``, ``eval_expr``, ``ReferenceOrbit.points``)
record call counts and time, added to the enclosing span, so the trace stays
small while ratios are still taken where the work happens.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

# the spans that make up ``diagnostics_s``: the cli stages, and the blocks
# the library-driven workload opens itself
DIAGNOSTICS_PREFIX = "diagnostics."


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs", "child_s", "child_n")

    def __init__(self, sid, name, start, parent, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs
        self.child_s = defaultdict(float)   # time in counted calls made inside
        self.child_n = defaultdict(int)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self.calls = defaultdict(int)      # counted (span-less) layers
        self.seconds = defaultdict(float)
        self.items = defaultdict(int)      # e.g. points handed to orbit lookups

    # -- spans --------------------------------------------------------------
    def open(self, name, **attrs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf(), parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = perf()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def wrap_span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                span.attrs["message"] = str(exc)
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        return wrapper

    # -- counted calls -------------------------------------------------------
    def add(self, name, dt, items=0):
        self.calls[name] += 1
        self.seconds[name] += dt
        self.items[name] += items
        if self._stack:
            top = self._stack[-1]
            top.child_s[name] += dt
            top.child_n[name] += 1

    def wrap_count(self, name, fn):
        def wrapper(*args, **kwargs):
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, perf() - t)
        return wrapper

    # -- output -------------------------------------------------------------
    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return sum((s.duration for s in self.named(name)), 0.0)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent}
                if s.attrs:
                    rec["attrs"] = s.attrs
                if s.child_n:
                    rec["counted"] = {k: [s.child_n[k], s.child_s[k]] for k in s.child_n}
                fh.write(json.dumps(rec, default=str) + "\n")


# --------------------------------------------------------------------------
# patching
# --------------------------------------------------------------------------

def rebind(orig, new):
    """Point every ``hamshoot`` module attribute that holds ``orig`` at ``new``."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if name != "hamshoot" and not name.startswith("hamshoot."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module attribute holds {orig!r}")


def install(tracer, level):
    """Wrap hamshoot's public functions; ``level`` is "coarse" or "full"."""
    from hamshoot import (cli, conditions, config, dynamics, expr, homogeneous,
                          solvers, systems)

    def span(mod, attr, name, on_result=None):
        orig = getattr(mod, attr)
        rebind(orig, tracer.wrap_span(name, orig, on_result))

    # ---- coarse: end-to-end spans and per-start outcomes ----
    span(cli, "main", "cli.main")
    span(cli, "_periods_stage", DIAGNOSTICS_PREFIX + "periods")
    span(cli, "_classify_stage", DIAGNOSTICS_PREFIX + "classify")
    span(cli, "_conditions_stage", DIAGNOSTICS_PREFIX + "conditions")
    span(cli, "_ll_stage", DIAGNOSTICS_PREFIX + "ll")
    span(cli, "_solve_stage", "cli.solve_stage")
    span(config, "load_config", "config.load")
    span(config, "_build_system", "config.system_build")
    span(solvers, "multistart_periodic", "solvers.multistart")
    span(solvers, "multistart_neumann", "solvers.multistart")

    def start_done(span_, args, kwargs, result):
        span_.attrs["z0"] = [float(c) for c in result.z0]
        span_.attrs["residual"] = float(result.residual)
        span_.attrs["iterations"] = int(result.iterations)

    span(solvers, "shoot_periodic", "solvers.start", start_done)
    span(solvers, "shoot_neumann", "solvers.start", start_done)
    if level == "coarse":
        return

    # ---- full: every layer ----
    rebind(expr.grad_expr, tracer.wrap_count("expr.grad", expr.grad_expr))
    rebind(expr.eval_expr, tracer.wrap_count("expr.eval", expr.eval_expr))

    orig_assemble = systems.assemble_field

    def assemble_field(sys_):
        vf = orig_assemble(sys_)
        return dynamics.VectorField(vf.n, tracer.wrap_count("systems.rhs", vf.f))

    rebind(orig_assemble, assemble_field)

    orig_integrate = dynamics.integrate

    def integrate(f, z0, t0, t1, tol, *args, **kwargs):
        span_ = tracer.open("dynamics.integrate", tol=float(tol))
        try:
            traj = orig_integrate(f, z0, t0, t1, tol, *args, **kwargs)
        except BaseException as exc:
            span_.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span_)
        st = traj.stats
        span_.attrs.update(steps=st.steps, rejected=st.rejected, splits=st.splits,
                           nfev=st.nfev)
        return traj

    rebind(orig_integrate, integrate)

    span(solvers, "classify_distinct", "solvers.classify")
    span(solvers, "classify_distinct_neumann", "solvers.classify")
    span(homogeneous, "minimal_period", "homogeneous.period")
    span(homogeneous, "half_periods", "homogeneous.period")
    span(homogeneous, "reference_orbit", "homogeneous.reference_orbit")
    span(conditions, "estimate_mbar", "conditions.mbar")
    span(conditions, "twist_check", "conditions.twist")
    span(conditions, "ll_margin", "conditions.ll")

    orig_points = homogeneous.ReferenceOrbit.points

    def points(self, ss):
        t = perf()
        try:
            return orig_points(self, ss)
        finally:
            tracer.add("homogeneous.orbit_points", perf() - t, items=np.size(ss))

    homogeneous.ReferenceOrbit.points = points

    orig_vectorized = conditions._vectorized_field

    def vectorized_field(F):
        def counted(t, w):
            kind = "conditions.ll_field_array" if getattr(w, "ndim", 1) > 1 \
                else "conditions.ll_field_point"
            t0 = perf()
            try:
                return F(t, w)
            finally:
                tracer.add(kind, perf() - t0)
        return orig_vectorized(counted)

    rebind(orig_vectorized, vectorized_field)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def self_time(tracer, span):
    """Duration of ``span`` minus its direct child spans."""
    return span.duration - sum(s.duration for s in tracer.spans if s.parent == span.id)


def start_outcomes(tracer):
    """One (converged, error name, message) triple per shooting start."""
    return [("error" not in s.attrs, s.attrs.get("error"), s.attrs.get("message", ""))
            for s in tracer.named("solvers.start")]


def converged_states(tracer):
    """Initial state of every converged start."""
    return [s.attrs["z0"] for s in tracer.named("solvers.start") if "error" not in s.attrs]


def end_to_end_spans(tracer):
    diag = sum(s.duration for s in tracer.spans if s.name.startswith(DIAGNOSTICS_PREFIX))
    return {"solve_s": tracer.total("solvers.multistart"), "diagnostics_s": diag}


def _mean_us(tracer, name):
    n = tracer.calls[name]
    return 1e6 * tracer.seconds[name] / n if n else 0.0


# per-layer metrics of one traced pass.  "/call" figures are means over the
# calls of the pass, other times are totals over the pass
LAYER_UNITS = {
    "config.load_ms": "ms", "config.system_build_ms": "ms",
    "expr.grad_calls": "count", "expr.grad_us": "us/call",
    "expr.eval_calls": "count", "expr.eval_us": "us/call",
    "systems.rhs_calls": "count", "systems.rhs_us": "us/call",
    "dynamics.integrate_calls": "count", "dynamics.integrate_ms": "ms/call",
    "dynamics.steps": "count", "dynamics.rejected": "count", "dynamics.splits": "count",
    "dynamics.nfev": "count", "dynamics.overhead_us_per_rhs": "us",
    "solvers.starts": "count", "solvers.converged": "count", "solvers.start_s.p50": "s",
    "solvers.flows_per_start": "count", "solvers.jacobian_flows_per_start": "count",
    "solvers.residual_flows_per_start": "count", "solvers.nfev_per_start": "count",
    "solvers.classify_ms": "ms",
    "homogeneous.period_ms": "ms/call", "homogeneous.reference_orbit_ms": "ms/call",
    "homogeneous.orbit_points_calls": "count",
    "homogeneous.orbit_points_us_per_point": "us",
    "conditions.mbar_s": "s", "conditions.twist_s": "s", "conditions.ll_s": "s",
    "conditions.ll_field_array_calls": "count", "conditions.ll_field_point_calls": "count",
    "cli.self_s": "s",
    "diagnostics_s": "s",
    "run.cpu_s": "s", "run.wait_s": "s",
}


def layer_metrics(tracer):
    """Per-layer figures of one traced pass, except the ``run.*`` ones."""
    m = {}
    m["config.load_ms"] = 1e3 * tracer.total("config.load")
    m["config.system_build_ms"] = 1e3 * tracer.total("config.system_build")

    m["expr.grad_calls"] = tracer.calls["expr.grad"]
    m["expr.grad_us"] = _mean_us(tracer, "expr.grad")
    m["expr.eval_calls"] = tracer.calls["expr.eval"]
    m["expr.eval_us"] = _mean_us(tracer, "expr.eval")

    m["systems.rhs_calls"] = tracer.calls["systems.rhs"]
    m["systems.rhs_us"] = _mean_us(tracer, "systems.rhs")

    flows = [s for s in tracer.named("dynamics.integrate") if "error" not in s.attrs]
    m["dynamics.integrate_calls"] = len(tracer.named("dynamics.integrate"))
    m["dynamics.integrate_ms"] = (1e3 * sum(s.duration for s in flows) / len(flows)
                                  if flows else 0.0)
    for key in ("steps", "rejected", "splits", "nfev"):
        m[f"dynamics.{key}"] = sum(s.attrs[key] for s in flows)
    # step-loop cost: only flows of the assembled field, where every
    # evaluation is a timed RHS call
    pure = [s for s in flows if s.child_n.get("systems.rhs", 0) == s.attrs["nfev"]]
    nfev = sum(s.attrs["nfev"] for s in pure)
    m["dynamics.overhead_us_per_rhs"] = (
        1e6 * sum(s.duration - s.child_s["systems.rhs"] for s in pure) / nfev
        if nfev else 0.0)

    starts = tracer.named("solvers.start")
    by_parent = defaultdict(list)
    for s in flows:
        by_parent[s.parent].append(s)
    n_start = len(starts)
    jac = res = nfev_starts = 0
    for s in starts:
        own = by_parent[s.id]
        if not own:
            continue
        floor = min(f.attrs["tol"] for f in own)
        res += sum(1 for f in own if f.attrs["tol"] == floor)
        jac += sum(1 for f in own if f.attrs["tol"] != floor)
        nfev_starts += sum(f.attrs["nfev"] for f in own)
    m["solvers.starts"] = n_start
    m["solvers.converged"] = sum(1 for s in starts if "error" not in s.attrs)
    m["solvers.start_s.p50"] = (statistics.median(s.duration for s in starts)
                                if starts else 0.0)
    m["solvers.flows_per_start"] = (jac + res) / n_start if n_start else 0.0
    m["solvers.jacobian_flows_per_start"] = jac / n_start if n_start else 0.0
    m["solvers.residual_flows_per_start"] = res / n_start if n_start else 0.0
    m["solvers.nfev_per_start"] = nfev_starts / n_start if n_start else 0.0
    m["solvers.classify_ms"] = 1e3 * tracer.total("solvers.classify")

    periods = tracer.named("homogeneous.period")
    m["homogeneous.period_ms"] = (1e3 * sum(s.duration for s in periods) / len(periods)
                                  if periods else 0.0)
    orbits = tracer.named("homogeneous.reference_orbit")
    m["homogeneous.reference_orbit_ms"] = (1e3 * sum(s.duration for s in orbits)
                                           / len(orbits) if orbits else 0.0)
    m["homogeneous.orbit_points_calls"] = tracer.calls["homogeneous.orbit_points"]
    pts = tracer.items["homogeneous.orbit_points"]
    m["homogeneous.orbit_points_us_per_point"] = (
        1e6 * tracer.seconds["homogeneous.orbit_points"] / pts if pts else 0.0)

    m["conditions.mbar_s"] = tracer.total("conditions.mbar")
    m["conditions.twist_s"] = tracer.total("conditions.twist")
    m["conditions.ll_s"] = tracer.total("conditions.ll")
    m["conditions.ll_field_array_calls"] = tracer.calls["conditions.ll_field_array"]
    m["conditions.ll_field_point_calls"] = tracer.calls["conditions.ll_field_point"]

    m["cli.self_s"] = sum((self_time(tracer, s) for s in tracer.named("cli.main")), 0.0)
    return m
