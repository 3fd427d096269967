"""Out-of-tree tracing of the bosegas layers.

``Tracer.install()`` replaces every public function of the six layer
modules (``cli``, ``condensate``, ``thermo``, ``quadrature``, ``specfun``,
``oracles``) with a timing wrapper, in every module namespace that binds
it (``thermo.integrate_radial``, ``oracles.bessel_i_scaled``, ...), and
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

Two kinds of record are kept in memory:

* a span (id, parent id, job, name, start, end, self time, integrals and
  integrand nodes inside it, note) for each call of a public function;
* for leaf calls that run up to ~1e6 times per list -- the ``specfun``
  functions and the integrands handed to ``integrate_radial`` -- only a
  call count and the summed self time per name.

Self time is a call's duration minus the time of the instrumented calls
it made.  Integrand time is charged to the layer that defined the
integrand, so ``quadrature`` self time is the engine's own overhead.
``integrate_radial`` is additionally wrapped to count integrals, and the
integrand it receives is wrapped to count the points it is evaluated at
(15 per Gauss-Kronrod panel): the work counters.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import time

import bosegas
from bosegas import (cli, condensate, errors, oracles, quadrature, specfun,
                     thermo)
from bosegas.errors import ConvergenceError

LAYERS = ("cli", "condensate", "thermo", "quadrature", "specfun", "oracles")
_MODULES = {"cli": cli, "condensate": condensate, "thermo": thermo,
            "quadrature": quadrature, "specfun": specfun, "oracles": oracles}
_LEAF_LAYERS = ("specfun",)
_BINDERS = (bosegas, errors, *_MODULES.values())

SPEC_CALLS = ("bessel_i_scaled", "bessel_j", "polylog", "gamma_upper")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if parts[0] == "bosegas" and len(parts) > 1 else "other"


class Tracer:
    """Spans and leaf aggregates for one traced pass over a job list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = {}     # name -> [calls, self_s]
        self.integrals = 0
        self.nodes = 0
        self.scalar_calls = 0
        self.errors = 0
        self.job = ""
        self._stack: list[list] = [[0.0, 0]]  # [child time, nearest span id]
        self._next_id = 1
        self._raised: list[BaseException] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _error(self, exc: ConvergenceError) -> None:
        """Count each ConvergenceError/QuadratureError once, where raised."""
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors += 1

    def _span(self, fn, name: str, note=None):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            i0, n0 = tracer.integrals, tracer.nodes
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except ConvergenceError as exc:
                tracer._error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                tracer.spans.append((
                    sid, parent, tracer.job, name, t0, t1,
                    t1 - t0 - frame[0], tracer.integrals - i0,
                    tracer.nodes - n0,
                    note(result) if note and result is not None else None))
        return wrapper

    def _leaf(self, fn, name: str, count_nodes: bool = False):
        clock = time.perf_counter
        tracer = self
        agg = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                tracer._error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt - frame[0]
            if count_nodes:          # points actually evaluated
                x = args[0]
                if isinstance(x, float):
                    tracer.nodes += 1
                    tracer.scalar_calls += 1
                else:
                    tracer.nodes += x.size
            return result
        return wrapper

    def _counting_radial(self, fn):
        tracer = self

        def integrate_radial(spec):
            tracer.integrals += 1
            f = spec.integrand
            layer = _layer_of(getattr(f, "__module__", None) or "")
            counted = tracer._leaf(f, f"{layer}.integrand", count_nodes=True)
            return fn(dataclasses.replace(spec, integrand=counted))
        return integrate_radial

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, module in _MODULES.items():
            for name, fn in _public_functions(module):
                full = f"{layer}.{name}"
                if layer in _LEAF_LAYERS:
                    wrappers[id(fn)] = (fn, self._leaf(fn, full))
                    continue
                inner = fn
                if fn is quadrature.integrate_radial:
                    inner = self._counting_radial(fn)
                wrappers[id(fn)] = (fn, self._span(inner, full,
                                                   _NOTES.get(full)))
        for module in _BINDERS:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- summary ------------------------------------------------------------

    def self_time_by_layer(self) -> dict[str, float]:
        """Per-layer self time, summed from the spans and leaf aggregates."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            layer = span[3].split(".")[0]
            if layer in out:
                out[layer] += span[6]
        for name, (_calls, self_s) in self.leaves.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += self_s
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass this tracer recorded."""
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[3], []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def p50(name, scale):
            durations = [s[5] - s[4] for s in spans(name)]
            return statistics.median(durations) * scale if durations else 0.0

        def total(name, field):
            return sum(s[field] for s in spans(name))

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = self.self_time_by_layer()
        m: dict[str, float] = {}
        m["quadrature.integrals"] = self.integrals
        m["quadrature.nodes"] = self.nodes
        m["quadrature.nodes_per_integral"] = ratio(self.nodes, self.integrals)
        m["quadrature.integral_us_p50"] = p50("quadrature.integrate_radial",
                                              1e6)
        m["quadrature.us_per_node"] = 1e6 * ratio(
            total("quadrature.integrate_radial", 6), self.nodes)
        m["quadrature.scalar_calls"] = self.scalar_calls
        m["quadrature.sums"] = len(spans("quadrature.sum_bilateral"))
        m["quadrature.sum_ms_p50"] = p50("quadrature.sum_bilateral", 1e3)
        m["quadrature.errors"] = self.errors

        sweeps = spans("condensate.sweep")
        m["condensate.integrals_per_row"] = ratio(
            sum(s[7] for s in sweeps), sum(s[9] or 0 for s in sweeps))
        m["condensate.solve_ms_p50"] = p50(
            "condensate.solve_chemical_potential", 1e3)
        m["condensate.tc_integrals"] = total("condensate.critical_temperature",
                                             7)
        m["condensate.jump_integrals"] = total(
            "condensate.discontinuity_estimate", 7)
        m["condensate.stencil_levels"] = sum(
            s[9] or 0 for s in spans("condensate.discontinuity_estimate"))
        m["condensate.jump_ms_p50"] = p50("condensate.discontinuity_estimate",
                                          1e3)

        reports = (spans("thermo.mutual_info_neutral")
                   + spans("thermo.mutual_info_charged"))
        m["thermo.reports"] = len(reports)
        m["thermo.integrals_per_report"] = ratio(
            sum(s[7] for s in reports), len(reports))
        durations = [s[5] - s[4] for s in reports]
        m["thermo.report_ms_p50"] = (statistics.median(durations) * 1e3
                                     if durations else 0.0)
        m["thermo.matsubara_ms_p50"] = p50("thermo.boundary_thermal_matsubara",
                                           1e3)

        spec_calls = 0
        for name, (calls, _self_s) in self.leaves.items():
            if name.startswith("specfun."):
                spec_calls += calls
        for name in SPEC_CALLS:
            m[f"specfun.{name}.calls"] = self.leaves.get(
                f"specfun.{name}", [0])[0]
        m["specfun.us_per_call"] = 1e6 * ratio(layer_self["specfun"],
                                               spec_calls)

        checks = [s for name, group in by_name.items()
                  if name.startswith("oracles.check_") for s in group]
        m["oracles.checks"] = len(checks)
        durations = [s[5] - s[4] for s in checks]
        m["oracles.check_ms_p50"] = (statistics.median(durations) * 1e3
                                     if durations else 0.0)

        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.wall_s"] = wall_s
        m["harness.self_s"] = wall_s - sum(layer_self.values())
        return m

    def span_records(self):
        for (sid, parent, job, name, t0, t1, self_s, integrals, nodes,
             note) in self.spans:
            yield {"id": sid, "parent": parent, "job": job, "name": name,
                   "start": t0, "end": t1, "self_s": self_s,
                   "integrals": integrals, "nodes": nodes, "note": note}
        for name, (calls, self_s) in self.leaves.items():
            yield {"leaf": name, "calls": calls, "self_s": self_s}


def _sweep_rows(table) -> int:
    return len(table.rows)


def _stencil_levels(result) -> int:
    orders = result.stencil_orders
    return orders["left"]["levels"] + orders["right"]["levels"]


_NOTES = {
    "condensate.sweep": _sweep_rows,
    "condensate.discontinuity_estimate": _stencil_levels,
}
