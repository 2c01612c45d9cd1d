"""Spans around the program's layers, recorded from the benchmark's side.

:func:`install` wraps public functions and methods of the serving,
query, kernel, ingest and adaptive modules (the table :data:`TARGETS`)
so that every call records a span: name, start, end, parent span and
request id.  The request id is set when ``ServingServer._dispatch``
starts handling a request and travels with the request through a
``contextvars`` variable, including into worker threads, because the
traced run also wraps ``run_in_executor`` to carry the caller's context.

Spans stay in memory in a :class:`Tracer` and are written out when the
server exits.  :func:`layer_metrics` turns them, with the load
generator's own record of the run, into the per-layer metrics.
Nothing in the program itself changes, and only a server launched with
``--trace`` installs the wrappers.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections.abc import Callable
from typing import Any

from workloads import request_class

#: ``(layer, module, qualified name, kind)``.  ``kind`` is ``call`` for
#: plain and async callables, ``root`` for the per-request entry point,
#: ``acquire`` for async context managers timed until entered (lock
#: waits, not holds) and ``iterate`` for generators timed per item.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("serving.http", "repro.serving.http", "ServingServer._dispatch", "root"),
    ("serving.http", "repro.serving.http", "ServingServer._write_response",
     "call"),
    ("serving.admission", "repro.serving.admission",
     "AdmissionController.acquire", "call"),
    ("serving.cache", "repro.serving.cache", "ResultCache.get", "call"),
    ("serving.cache", "repro.serving.cache", "ResultCache.put", "call"),
    ("serving.cache", "repro.serving.cache", "ResultCache.invalidate_cube",
     "call"),
    ("serving.coalesce", "repro.serving.coalesce", "RequestCoalescer.submit",
     "call"),
    ("serving.coalesce", "repro.serving.coalesce",
     "RequestCoalescer._run_batch", "call"),
    ("serving.rwlock", "repro.serving.rwlock", "ReadWriteLock.read_locked",
     "acquire"),
    ("serving.rwlock", "repro.serving.rwlock", "ReadWriteLock.write_locked",
     "acquire"),
    ("serving.router", "repro.serving.router", "TieredRouter.choose_scalar",
     "call"),
    ("serving.router", "repro.serving.router", "TieredRouter.choose_batch",
     "call"),
    ("serving.router", "repro.serving.router", "TieredRouter.run_scalar",
     "call"),
    ("serving.router", "repro.serving.router", "TieredRouter.run_batch",
     "call"),
    ("serving.service", "repro.serving.service", "QueryService.query", "call"),
    ("serving.service", "repro.serving.service", "QueryService.query_batch",
     "call"),
    ("serving.service", "repro.serving.service", "QueryService.rollup",
     "call"),
    ("serving.service", "repro.serving.service", "QueryService.update",
     "call"),
    ("serving.service", "repro.serving.service", "QueryService.register_cube",
     "call"),
    ("serving.service", "repro.serving.service", "QueryService.plan_delta",
     "call"),
    ("serving.adaptive", "repro.serving.adaptive", "AdaptiveController.step",
     "call"),
    ("serving.adaptive", "repro.serving.adaptive",
     "AdaptiveController.actuate", "call"),
    ("optimizer.advisor", "repro.optimizer.advisor", "re_advise", "call"),
    ("optimizer.materialize", "repro.optimizer.materialize",
     "MaterializedCuboidSet.__init__", "call"),
    ("optimizer.materialize", "repro.optimizer.materialize",
     "MaterializedCuboidSet.from_accumulated", "call"),
    ("optimizer.materialize", "repro.optimizer.materialize",
     "MaterializedCuboidSet.range_sum", "call"),
    ("optimizer.materialize", "repro.optimizer.materialize",
     "MaterializedCuboidSet.apply_updates", "call"),
    *(
        ("query.engine", "repro.query.engine", f"RangeQueryEngine.{name}",
         "call")
        for name in (
            "__init__", "sum", "count", "average", "max", "min",
            "sum_many", "count_many", "average_many", "max_many", "min_many",
            "apply_updates",
        )
    ),
    ("query.batch", "repro.query.batch", "blocked_sum_many", "call"),
    ("query.batch", "repro.query.batch", "prefix_sum_many", "call"),
    ("query.batch", "repro.query.batch", "batch_max_index", "call"),
    *(
        ("kernels", module, f"{cls}.{name}", "call")
        for module, cls in (
            ("repro.kernels.numpy_kernel", "NumpyKernel"),
            ("repro.kernels.numba_kernel", "NumbaKernel"),
            ("repro.kernels.threaded", "ThreadedKernel"),
        )
        for name in ("corner_gather", "segment_reduce", "scatter")
    ),
    ("core.range_max", "repro.core.range_max", "RangeMaxTree.__init__",
     "call"),
    ("core.range_max", "repro.core.range_max", "RangeMaxTree.max_index",
     "call"),
    ("core.range_max", "repro.core.range_max", "RangeMaxTree.max_index_many",
     "call"),
    ("query.naive", "repro.query.naive", "naive_range_sum", "call"),
    ("query.naive", "repro.query.naive", "naive_max_index", "call"),
    ("ingest.batches", "repro.ingest.batches", "iter_csv_batches",
     "iterate"),
    ("ingest.accumulate", "repro.ingest.accumulate",
     "MultiCuboidAccumulator.absorb", "call"),
    ("ingest.build", "repro.ingest.build", "_finalize", "call"),
    ("index.backend", "repro.index.backend", "MemmapBackend.empty", "call"),
    ("index.backend", "repro.index.backend", "MemmapBackend.flush", "call"),
    ("index.backend", "repro.index.backend", "MemmapBackend.release", "call"),
)

#: Layers in request-path order (the per-layer self-time metrics).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Span attributes worth keeping, by span name: a function of the
#: call's positional arguments (``self`` first).
ATTRS: dict[str, Callable[[tuple], object]] = {
    "TieredRouter.run_scalar": lambda a: a[2],
    "TieredRouter.run_batch": lambda a: a[2],
    "RequestCoalescer.submit": lambda a: a[2],
    "RequestCoalescer._run_batch": lambda a: a[1].op,
    "QueryService.query": lambda a: a[1].get("op", "sum"),
}


class Tracer:
    """In-memory span store for one server process."""

    def __init__(self) -> None:
        #: ``(id, parent, request, name, start, end, phase, attr)``.
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.span_var: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self.request_var: contextvars.ContextVar[int] = (
            contextvars.ContextVar("perfbench_request", default=0)
        )

    def wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        attr_of = ATTRS.get(name.split(":", 1)[1])
        tracer = self

        def begin(args: tuple) -> tuple[int, int, object, contextvars.Token]:
            sid = next(tracer._ids)
            parent = tracer.span_var.get()
            token = tracer.span_var.set(sid)
            attr = attr_of(args) if attr_of is not None else None
            return sid, parent, attr, token

        def end(sid: int, parent: int, attr: object, start: float) -> None:
            tracer.spans.append(
                (sid, parent, tracer.request_var.get(), name, start,
                 time.perf_counter(), tracer.phase, attr)
            )

        if kind == "acquire":

            @functools.wraps(fn)
            def acquiring(*args: Any, **kwargs: Any) -> Any:
                return _TimedEnter(tracer, name, fn(*args, **kwargs))

            return acquiring

        if kind == "iterate":

            @functools.wraps(fn)
            def iterating(*args: Any, **kwargs: Any) -> Any:
                inner = iter(fn(*args, **kwargs))
                while True:
                    sid, parent, attr, token = begin(args)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.span_var.reset(token)
                        end(sid, parent, attr, start)
                    yield item

            return iterating

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awaiting(*args: Any, **kwargs: Any) -> Any:
                if kind == "root":
                    tracer.request_var.set(next(tracer._requests))
                sid, parent, attr, token = begin(args)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.span_var.reset(token)
                    end(sid, parent, attr, start)

            return awaiting

        @functools.wraps(fn)
        def calling(*args: Any, **kwargs: Any) -> Any:
            sid, parent, attr, token = begin(args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_var.reset(token)
                end(sid, parent, attr, start)

        return calling


class _TimedEnter:
    """An async context manager proxy that times only ``__aenter__``."""

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    async def __aenter__(self) -> Any:
        tracer = self._tracer
        sid = next(tracer._ids)
        parent = tracer.span_var.get()
        start = time.perf_counter()
        try:
            return await self._inner.__aenter__()
        finally:
            tracer.spans.append(
                (sid, parent, tracer.request_var.get(), self._name, start,
                 time.perf_counter(), tracer.phase, None)
            )

    async def __aexit__(self, *exc: object) -> Any:
        return await self._inner.__aexit__(*exc)


def install(tracer: Tracer) -> None:
    """Wrap every target and carry contexts into executor threads.

    A module-level function is also replaced wherever a ``repro`` module
    imported it by name or keeps it in a module-level dict (a dispatch
    table), so callers reach the wrapper.
    """
    for layer, module_name, qualname, kind in TARGETS:
        module = importlib.import_module(module_name)
        name = f"{layer}:{qualname}"
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue  # inherited: the defining class is wrapped
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, kind))
            else:
                wrapped = tracer.wrap(name, raw, kind)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, kind)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                elif isinstance(value, dict):
                    for entry, target in list(value.items()):
                        if target is original:
                            value[entry] = wrapped
    _carry_context_into_executors()


def _carry_context_into_executors() -> None:
    """Run executor work inside the submitting task's context."""
    base = asyncio.BaseEventLoop
    original = base.run_in_executor

    def run_in_executor(self, executor, func, *args):  # type: ignore[no-untyped-def]
        context = contextvars.copy_context()
        return original(self, executor, context.run, func, *args)

    base.run_in_executor = run_in_executor  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _union_ms(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Milliseconds of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered * 1e3


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id → self time (ms): duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4]) * 1e3
        - _union_ms(children.get(span[0], []), span[4], span[5])
        for span in spans
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def layer_metrics(
    spans: list[tuple], counters: dict[str, float], gen: dict, setup_s: float
) -> dict[str, tuple[float, str]]:
    """The span- and counter-based per-layer metrics: ``name → (value, unit)``.

    ``gen`` is the load generator's record of the traced phase and
    ``setup_s`` the traced server's set-up time.  A layer the workload
    does not exercise reads 0.
    """
    timed = [s for s in spans if s[6] == "timed"]
    setup = [s for s in spans if s[6] == "setup"]
    selfs = self_times(timed)

    def durations(
        span_list: list[tuple], *names: str, attr: object = None
    ) -> list[float]:
        return [
            (s[5] - s[4]) * 1e3
            for s in span_list
            if s[3].split(":", 1)[1] in names
            and (attr is None or s[7] == attr)
        ]

    def mean_ms(*names: str, attr: object = None) -> float:
        return _mean(durations(timed, *names, attr=attr))

    def total_s(*names: str) -> float:
        return sum(durations(setup, *names)) / 1e3

    out: dict[str, tuple[float, str]] = {}
    before, after = gen["stats_before"], gen["stats_after"]
    completed = max(1, gen["completed"])

    # HTTP: client round trip minus the service endpoint span.
    endpoints = {
        "query": "QueryService.query",
        "query_batch": "QueryService.query_batch",
        "rollup": "QueryService.rollup",
        "update": "QueryService.update",
    }
    client = sum(sum(v) for v in gen["service_latency_ms"].values())
    served = sum(sum(durations(timed, n)) for n in endpoints.values())
    out["http.overhead_ms"] = ((client - served) / completed, "ms")
    by_class: dict[str, list[float]] = {"main": [], "side": []}
    for s in timed:
        kind = next((k for k, n in endpoints.items() if s[3].endswith(":" + n)), None)
        if kind is not None:
            cls = request_class(gen["workload"], kind, s[7] or "")
            by_class[cls].append((s[5] - s[4]) * 1e3)
    out["service.main_ms"] = (_mean(by_class["main"]), "ms")
    out["service.side_ms"] = (_mean(by_class["side"]), "ms")
    for kind, span_name in endpoints.items():
        out[f"service.{kind}_ms"] = (mean_ms(span_name), "ms")
        spent = durations(timed, span_name)
        own = sum(
            selfs[s[0]] for s in timed if s[3].endswith(":" + span_name)
        )
        out[f"unaccounted.{kind}_share"] = (
            own / sum(spent) if spent else 0.0, "ratio"
        )

    out["admission.wait_ms"] = (mean_ms("AdmissionController.acquire"), "ms")
    out["admission.shed"] = (_delta(after, before, "admission", "shed"),
                             "count")
    out["admission.timeouts"] = (
        _delta(after, before, "admission", "timeouts"), "count"
    )

    hits = _delta(after, before, "cache", "hits")
    lookups = hits + _delta(after, before, "cache", "misses")
    out["cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["cache.invalidated"] = (
        _delta(after, before, "cache", "invalidations"), "count"
    )

    # Coalescer: a submit waits for its window, then for its batch.
    batches = sorted(
        (s[5], s[4], s[7]) for s in timed
        if s[3].endswith(":RequestCoalescer._run_batch")
    )
    waits = []
    for s in timed:
        if not s[3].endswith(":RequestCoalescer.submit"):
            continue
        ran = [b for b in batches
               if b[2] == s[7] and s[4] <= b[1] and b[0] <= s[5]]
        if ran:
            end, start, _ = ran[-1]
            waits.append(((s[5] - s[4]) - (end - start)) * 1e3)
    out["coalesce.window_wait_ms"] = (_mean(waits), "ms")
    submitted = _delta(after, before, "coalescer", "submitted")
    flushed = _delta(after, before, "coalescer", "batches")
    out["coalesce.rows_per_batch"] = (
        submitted / flushed if flushed else 0.0, "rows"
    )
    out["coalesce.window_flush_share"] = (
        _delta(after, before, "coalescer", "window_flushes") / flushed
        if flushed else 0.0,
        "ratio",
    )

    out["rwlock.read_wait_ms"] = (mean_ms("ReadWriteLock.read_locked"), "ms")
    out["rwlock.write_wait_ms"] = (mean_ms("ReadWriteLock.write_locked"), "ms")

    answered = max(1, sum(gen["tiers"].values()))
    for tier in ("cache", "materialized", "indexed", "fallback"):
        out[f"router.tier_share.{tier}"] = (
            gen["tiers"].get(tier, 0) / answered, "ratio"
        )
    out["router.compute_ms.cache"] = (mean_ms("ResultCache.get"), "ms")
    for tier in ("materialized", "indexed", "fallback"):
        out[f"router.compute_ms.{tier}"] = (
            _mean(
                durations(timed, "TieredRouter.run_scalar", attr=tier)
                + durations(timed, "TieredRouter.run_batch", attr=tier)
            ),
            "ms",
        )

    scalar = [f"RangeQueryEngine.{op}"
              for op in ("sum", "count", "average", "max", "min")]
    many = [f"RangeQueryEngine.{op}_many"
            for op in ("sum", "count", "average", "max", "min")]
    out["engine.scalar_ms"] = (mean_ms(*scalar), "ms")
    out["engine.many_ms"] = (mean_ms(*many), "ms")
    cells = nodes = 0.0
    for cube in after.get("cubes", {}):
        cells += _delta(after, before, "cubes", cube, "access_counts",
                        "total")
        nodes += _delta(after, before, "cubes", cube, "access_counts",
                        "tree_nodes")
    indexed = gen["indexed_boxes"]
    total_indexed = indexed["sum"] + indexed["extreme"]
    out["engine.cells_per_query"] = (
        cells / total_indexed if total_indexed else 0.0, "cells"
    )
    out["engine.apply_updates_ms"] = (
        mean_ms("RangeQueryEngine.apply_updates"), "ms"
    )
    out["materialize.apply_updates_ms"] = (
        mean_ms("MaterializedCuboidSet.apply_updates"), "ms"
    )
    out["kernel.corner_gather_ms"] = (
        mean_ms(*(f"{k}.corner_gather" for k in
                  ("NumpyKernel", "NumbaKernel", "ThreadedKernel"))),
        "ms",
    )
    out["kernel.segment_reduce_ms"] = (
        mean_ms(*(f"{k}.segment_reduce" for k in
                  ("NumpyKernel", "NumbaKernel", "ThreadedKernel"))),
        "ms",
    )
    out["batch.blocked_sum_many_ms"] = (mean_ms("blocked_sum_many"), "ms")
    out["range_max.max_index_ms"] = (mean_ms("RangeMaxTree.max_index"), "ms")
    out["range_max.max_index_many_ms"] = (
        mean_ms("RangeMaxTree.max_index_many"), "ms"
    )
    out["range_max.nodes_per_query"] = (
        nodes / indexed["extreme"] if indexed["extreme"] else 0.0, "nodes"
    )
    out["materialize.range_sum_ms"] = (
        mean_ms("MaterializedCuboidSet.range_sum"), "ms"
    )
    out["naive.scan_ms"] = (
        mean_ms("naive_range_sum", "naive_max_index"), "ms"
    )

    # Set-up: ingest and index builds.
    scan_s = total_s("iter_csv_batches")
    out["ingest.scan_s"] = (scan_s, "s")
    out["ingest.scatter_s"] = (total_s("MultiCuboidAccumulator.absorb"), "s")
    out["ingest.finalize_s"] = (total_s("_finalize"), "s")
    for step in ("scan", "scatter", "finalize"):
        out[f"ingest.{step}_share"] = (
            out[f"ingest.{step}_s"][0] / setup_s, "ratio"
        )
    out["ingest.spill_bytes"] = (counters.get("spill_bytes", 0.0), "bytes")
    ingest_s = counters.get("ingest_s", 0.0)
    out["ingest.rows_per_s"] = (
        counters.get("rows", 0.0) / ingest_s if ingest_s else 0.0, "1/s"
    )
    out["build.index_s"] = (total_s("QueryService.register_cube"), "s")

    # Adaptive: one step, triggered mid-phase.
    out["adaptive.advise_ms"] = (mean_ms("QueryService.plan_delta"), "ms")
    history = [
        entry
        for cube in gen["design_after"].values()
        for entry in cube.get("swap_history", [])
    ]
    out["adaptive.build_ms"] = (
        sum(h["build_s"] for h in history) * 1e3, "ms"
    )
    installs = []
    for act in (s for s in timed if s[3].endswith(":AdaptiveController.actuate")):
        locks = [s for s in timed
                 if s[1] == act[0] and s[3].endswith("write_locked")]
        if locks:
            installs.append((act[5] - locks[-1][5]) * 1e3)
    out["adaptive.install_ms"] = (sum(installs), "ms")
    out["adaptive.replayed_updates"] = (
        float(sum(h["replayed_updates"] for h in history)), "count"
    )

    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in timed:
        layer = span[3].split(":", 1)[0]
        layer_self[layer] += selfs[span[0]]
    traced = sum(layer_self.values()) or 1.0
    for layer, spent in layer_self.items():
        out[f"self_ms.{layer}"] = (spent / completed, "ms")
        out[f"self_share.{layer}"] = (spent / traced, "ratio")
    return out
