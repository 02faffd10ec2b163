"""Layer tracing of putboundary from outside the package.

`Tracer.install` wraps every function a layer module lists in `__all__`,
plus `cli.main`, and rebinds each wrapper wherever a putboundary module
holds the original, so calls between modules are traced too.  It must run
before `putboundary.cli` is imported, because the CLI copies functions into
its own namespace at import time; the package `__init__` does not import
the CLI.  No file of the package changes.

A wrapped call records a span: name, start, end, parent span and request
id.  Functions called once per quadrature node or curve point (PER_NODE)
record no span; their calls are aggregated into the enclosing span as a
count, a total time and a self time, so the trace stays small.  Spans stay
in memory until the run ends.  `summarise` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from stats import median, tail

LAYERS = ("core", "asymptotics", "zhu", "ssch", "psor", "pricing", "cli")

#: functions of the package as first traced; names that a refactor removes
#: are reported as absent rather than failing the run
EXPECTED = {
    "core": ("norm_cdf", "integrate_newton_cotes", "integrate_semi_infinite",
             "find_root_bracketed", "interp_linear"),
    "asymptotics": ("eta_lowest_order", "rho_kk", "rho_ekk", "rho_ssc_analytic",
                    "rho_zhu_asymptote", "rho_chen_chadam", "chen_chadam_alpha",
                    "rho_asymptotic"),
    "zhu": ("zhu_kernels", "rho_zhu", "zhu_second_derivative", "f2_max", "gamma_critical"),
    "ssch": ("build_mesh", "g_eval", "big_f_eval", "solve_eta_at", "solve_boundary"),
    "psor": ("psor_solve", "extract_boundary", "price_at"),
    "pricing": ("green_kernel", "european_put", "price_gap_at_boundary", "price_gap_full",
                "mispricing_err", "boundary_rel_err"),
    "cli": ("main",),
}

#: called once per node or point: aggregated into the parent span
PER_NODE = {"core.norm_cdf", "core.interp_linear", "zhu.zhu_kernels", "ssch.g_eval",
            "ssch.big_f_eval"} | {f"asymptotics.{n}" for n in EXPECTED["asymptotics"]}

#: spans opened by the benchmark itself around each request
REQUEST = "bench.request"


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "request",
                 "self_s", "error", "info", "agg")

    def __init__(self, sid, name, layer, parent, request):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = self.end = self.self_s = 0.0
        self.error = ""
        self.info = None
        # name -> [calls, total_s, self_s, outermost_s, outermost_calls, outermost_errors]
        self.agg = {}


def _config_probe(cls_name, fields):
    """Read a config object passed to a call; fields maps it to span info."""
    def probe(args, kwargs):
        for value in (*args, *kwargs.values()):
            if type(value).__name__ == cls_name:
                return fields(value)
        return None
    return probe


PROBES = {
    "psor.psor_solve": _config_probe("PsorConfig", lambda c: {
        "cells": (2 * c.n + 1) * c.m, "u_bytes": 8 * (2 * c.n + 1) * (c.m + 1)}),
    "core.integrate_newton_cotes": _config_probe("QuadratureConfig", lambda c: {
        "nodes": c.finite_subintervals + 1}),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.request = None
        self._next_id = 1
        root = Span(0, "bench.idle", "bench", None, None)
        # frame: [owning span, time covered by children, layer]
        self._stack = [[root, 0.0, "bench"]]

    # -- installation -----------------------------------------------------
    def install(self):
        if "putboundary.cli" in sys.modules:
            raise RuntimeError("tracing must be installed before putboundary.cli is imported")
        importlib.import_module("putboundary")
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"putboundary.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            names = tuple(getattr(mod, "__all__", ()))
            for name in dict.fromkeys(EXPECTED[layer] + names):
                fn = getattr(mod, name, None)
                if fn is None or name not in names:
                    self.absent.append(f"{layer}.{name}")
                elif inspect.isfunction(fn):
                    self._rebind(fn, self._wrap(fn, f"{layer}.{name}", layer))

    @staticmethod
    def _rebind(original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "putboundary" or mod_name.startswith("putboundary.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, qualname, layer):
        if qualname in PER_NODE:
            return self._wrap_per_node(fn, qualname, layer)
        return self._wrap_span(fn, qualname, layer, PROBES.get(qualname))

    def _wrap_span(self, fn, qualname, layer, probe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = Span(self._next_id, qualname, layer, parent[0].id, self.request)
            self._next_id += 1
            if probe is not None:
                span.info = probe(args, kwargs)
            frame = [span, 0.0, layer]
            stack.append(frame)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                dur = span.end - span.start
                span.self_s = dur - frame[1]
                parent[1] += dur
                self.spans.append(span)

        return traced

    def _wrap_per_node(self, fn, qualname, layer):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0, layer]
            stack.append(frame)
            error = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = parent[0].agg.get(qualname)
                if rec is None:
                    rec = parent[0].agg[qualname] = [0, 0.0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if parent[2] != layer:
                    rec[3] += dur
                    rec[4] += 1
                    rec[5] += error is not None and any(
                        c.__name__ == "DomainError" for c in type(error).__mro__)
        return traced

    # -- requests ---------------------------------------------------------
    def run_request(self, request_id, fn, *args):
        """Call fn inside a request span; exceptions propagate."""
        self.request = request_id
        wrapped = self._wrap_span(fn, REQUEST, "bench", None)
        try:
            return wrapped(*args)
        finally:
            self.request = None

    def reset(self):
        self.spans.clear()
        self._stack[0][0].agg.clear()


def _outermost(spans, by_id):
    """Spans with no ancestor in the same layer."""
    out = []
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.layer != s.layer:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def _has_ancestor(span, name, by_id):
    p = by_id.get(span.parent)
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent)
    return False


def summarise(tracer: Tracer, small_tau_subs: int) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).  The
    tracing overhead needs an untraced run and is added by the runner."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.end - s.start for s in named.get(name, ()))

    def self_of(*names):
        return sum(s.self_s for n in names for s in named.get(n, ()))

    def count(name, errors_only=False):
        return sum(1 for s in named.get(name, ()) if s.error or not errors_only)

    def agg(prefix, field):
        return sum(v[field] for s in spans for k, v in s.agg.items() if k.startswith(prefix))

    request_s = dur(REQUEST)
    layer_self = {layer: sum(s.self_s for s in spans if s.layer == layer) + agg(layer + ".", 2)
                  for layer in LAYERS}
    outer = _outermost([s for s in spans if s.layer in LAYERS], by_id)
    layer_incl = {layer: sum(s.end - s.start for s in outer if s.layer == layer)
                  + agg(layer + ".", 3) for layer in LAYERS}

    solve_s = dur("psor.psor_solve")
    cells = sum(s.info["cells"] for s in named.get("psor.psor_solve", ()) if s.info)
    u_bytes = max((s.info["u_bytes"] for s in named.get("psor.psor_solve", ()) if s.info), default=0)

    ssch_busy = dur("ssch.solve_boundary")
    nodes = sum(1 for s in named.get("ssch.solve_eta_at", ()) if not s.error)
    f_evals = agg("ssch.big_f_eval", 0)

    zhu_ms = [1e3 * (s.end - s.start) for s in named.get("zhu.rho_zhu", ())]
    zhu_tail = tail(zhu_ms)
    zhu_nodes = sum(s.info["nodes"] for s in named.get("core.integrate_newton_cotes", ())
                    if s.info and _has_ancestor(s, "zhu.rho_zhu", by_id))

    curve_evals = sum(v[4] for s in spans if s.layer == "pricing"
                      for k, v in s.agg.items() if k.startswith("asymptotics."))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "psor.solves": (count("psor.psor_solve"), "count"),
        "psor.solve_s": (solve_s, "s"),
        "psor.extract_s": (dur("psor.extract_boundary"), "s"),
        "psor.cells": (cells, "count"),
        "psor.cells_per_s": (ratio(cells, solve_s), "1/s"),
        "psor.u_bytes": (u_bytes, "bytes-computed"),
        "ssch.solves": (count("ssch.solve_boundary"), "count"),
        "ssch.busy_s": (ssch_busy, "s"),
        "ssch.self_s": (layer_self["ssch"], "s"),
        "ssch.nodes": (nodes, "count"),
        "ssch.f_evals": (f_evals, "count"),
        "ssch.f_evals_per_node": (ratio(f_evals, nodes), "ratio"),
        "ssch.ms_per_node": (ratio(ssch_busy, nodes, 1e3), "ms"),
        "ssch.errors": (count("ssch.solve_boundary", errors_only=True), "count"),
        "zhu.rho_zhu.calls": (len(zhu_ms), "count"),
        "zhu.rho_zhu.self_s": (self_of("zhu.rho_zhu"), "s"),
        "zhu.rho_zhu.ms_p50": (median(zhu_ms), "ms"),
        "zhu.rho_zhu.ms_tail": (zhu_tail.value, "ms"),
        "zhu.nodes_per_call": (ratio(zhu_nodes, len(zhu_ms)), "count"),
        "zhu.small_tau_subs": (small_tau_subs, "count"),
        "core.quad_calls": (count("core.integrate_newton_cotes"), "count"),
        "core.quad_nodes": (sum(s.info["nodes"] for s in named.get("core.integrate_newton_cotes", ())
                                if s.info), "count"),
        "core.quad_self_s": (self_of("core.integrate_newton_cotes", "core.integrate_semi_infinite"), "s"),
        "core.semi_inf_calls": (count("core.integrate_semi_infinite"), "count"),
        "core.tail_rejects": (sum(1 for s in named.get("core.integrate_semi_infinite", ())
                                  if s.error == "TailTooHeavyError"), "count"),
        "core.root_calls": (count("core.find_root_bracketed"), "count"),
        "pricing.gap_calls": (count("pricing.price_gap_at_boundary"), "count"),
        "pricing.gap_self_s": (self_of("pricing.price_gap_at_boundary"), "s"),
        "pricing.full_calls": (count("pricing.price_gap_full"), "count"),
        "pricing.full_self_s": (self_of("pricing.price_gap_full"), "s"),
        "pricing.curve_evals": (curve_evals, "count"),
        "asymptotics.calls": (agg("asymptotics.", 0), "count"),
        "asymptotics.self_s": (layer_self["asymptotics"], "s"),
        "asymptotics.domain_errors": (agg("asymptotics.", 5), "count"),
        "cli.requests": (count("cli.main"), "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.request_s": (request_s, "s"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (ratio(layer_incl[layer], request_s, 100.0), "%")
    notes = {
        "zhu.rho_zhu.ms_tail": zhu_tail.describe(),
        "psor.u_bytes": "computed as 8*(2n+1)*(m+1) from PsorConfig, not measured",
        "share": "time inside a layer's outermost spans, children included, over request time",
        "absent": tracer.absent,
    }
    return {"metrics": m, "notes": notes}
