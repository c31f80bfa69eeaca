"""Span tracing around the calls into each layer of ``repro``.

The wrappers live here, in the benchmark, and are installed by patching
the public functions and methods of the program's modules from outside:
nothing under ``src/`` knows it is being traced.  A span is
``(id, name, start, end, parent id, request id, attrs)``; spans are kept
in memory and written as JSON lines when the process ends.

Tracing is switched on and off at run time (``enable``/``disable``, or
SIGUSR1/SIGUSR2 in a served process and its shards), so one process can
measure the same work traced and untraced; a disabled wrapper costs one
flag test and one extra call.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import signal
import time

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder, one per process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        #: (enabled_at, disabled_at) wall intervals, for busy fractions.
        self.intervals: list[list[float]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    # -- switching -------------------------------------------------------
    def enable(self) -> None:
        if not self.enabled:
            self.intervals.append([_perf(), None])
            self.enabled = True

    def disable(self) -> None:
        if self.enabled:
            self.enabled = False
            self.intervals[-1][1] = _perf()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- span plumbing ---------------------------------------------------
    def _open(self, rid):
        parent = self._current.get()
        sid = next(self._ids)
        if rid is None and parent is not None:
            rid = parent[1]
        token = self._current.set((sid, rid))
        return sid, (parent[0] if parent else None), rid, token

    def wrap(self, name, fn, rid=None, pre=None, attrs=None):
        """Synchronous wrapper: one span per call.

        ``rid(args, kwargs)`` names the request (default: the parent's);
        ``pre(args, kwargs)`` runs before the call and ``attrs(args,
        kwargs, result, pre_value)`` after it, to record counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            sid, parent, request, token = tracer._open(
                rid(args, kwargs) if rid else None
            )
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                tracer._current.reset(token)
            tracer.spans.append((
                sid, name, start, end, parent, request,
                attrs(args, kwargs, result, before) if attrs else None,
            ))
            return result

        return wrapper

    def wrap_async(self, name, fn, attrs=None):
        """Coroutine wrapper: the span covers the whole await, so time
        spent suspended (waiting on a barrier or a peer) is inside it."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            sid, parent, request, token = tracer._open(None)
            start = _perf()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = _perf()
                tracer._current.reset(token)
            tracer.spans.append((
                sid, name, start, end, parent, request,
                attrs(args, kwargs, result, None) if attrs else None,
            ))
            return result

        return wrapper

    def wrap_iter(self, name, fn, counter):
        """Wrap a generator function: one span per ``next`` (the work a
        lazy source does happens there), one ``counter`` per pass."""
        tracer = self

        def timed(iterator):
            while True:
                if not tracer.enabled:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    yield item
                    continue
                sid, parent, request, token = tracer._open(None)
                start = _perf()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = _perf()
                    tracer._current.reset(token)
                tracer.spans.append((sid, name, start, end, parent, request, None))
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.count(counter)
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- output ----------------------------------------------------------
    def dump(self, directory: str) -> str:
        """Write every span, the counters and the traced intervals."""
        self.disable()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.role}-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "role": self.role, "pid": os.getpid(),
                "counts": self.counts, "intervals": self.intervals,
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return path


def read_dump(path: str) -> tuple[dict, list[tuple]]:
    """``(header, spans)`` of one :meth:`Tracer.dump` file."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return header, spans


# ---------------------------------------------------------------------------
# Installation: which program functions are wrapped, under which names
# ---------------------------------------------------------------------------
def _patch(owner, attr, wrapper, static=False):
    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every ``repro`` module a cohort
    engine or a detection service calls into."""
    import queue

    from repro import kernels
    from repro.core.labeling import APosterioriLabeler
    from repro.data.sources import SyntheticRecordSource
    from repro.engine import cache, executor
    from repro.engine.store import DiskFeatureStore
    from repro.features.paper10 import Paper10FeatureExtractor
    from repro.selflearning.detector import RealTimeDetector
    from repro.service import admission, fleet, framing, ingest, manager
    from repro.service.telemetry import ServiceTelemetry

    T = tracer
    # data: lazy synthesis (work happens per chunk drawn from the stream).
    _patch(SyntheticRecordSource, "iter_chunks", T.wrap_iter(
        "data.synth", SyntheticRecordSource.iter_chunks, "data.synth_passes"))

    # engine: per-record task, cache lookup, digest, store, extract, score.
    W = executor._WorkerContext
    _patch(W, "process", T.wrap(
        "engine.record", W.process,
        rid=lambda a, k: "record:%d-%d-%d" % a[1].key))
    _patch(W, "_score", T.wrap("engine.score", W._score))
    C = cache.FeatureCache
    _patch(C, "get_or_extract_source", T.wrap(
        "engine.cache", C.get_or_extract_source,
        pre=lambda a, k: a[0].misses,
        attrs=lambda a, k, r, before: {"miss": a[0].misses > before}))
    _patch(cache, "record_content_digest", T.wrap(
        "engine.digest", cache.record_content_digest))
    _patch(cache, "extract_features_from_source", T.wrap(
        "engine.extract", cache.extract_features_from_source))
    _patch(DiskFeatureStore, "load", T.wrap(
        "engine.store_load", DiskFeatureStore.load,
        attrs=lambda a, k, r, _: {"hit": r is not None}))

    # core: Algorithm 1 over a feature matrix.
    _patch(APosterioriLabeler, "label_matrix", T.wrap(
        "core.label", APosterioriLabeler.label_matrix))

    # kernels: the batch funnel and every registry kernel it resolves.
    _patch(Paper10FeatureExtractor, "extract_batch", T.wrap(
        "kernels.extract_batch", Paper10FeatureExtractor.extract_batch,
        attrs=lambda a, k, r, _: {"windows": int(r.shape[0])}))
    get_kernel = kernels.get_kernel
    wrapped_kernels: dict = {}

    @functools.wraps(get_kernel)
    def traced_get_kernel(name, prefer=None):
        impl = get_kernel(name, prefer)
        if not T.enabled:
            return impl
        key = (name, impl)
        if key not in wrapped_kernels:
            wrapped_kernels[key] = T.wrap(f"kernels.{name}", impl)
        return wrapped_kernels[key]

    _patch(kernels, "get_kernel", traced_get_kernel)

    # ml: forest scoring of feature rows.
    _patch(RealTimeDetector, "row_probabilities", T.wrap(
        "ml.score", RealTimeDetector.row_probabilities,
        attrs=lambda a, k, r, _: {"rows": int(len(r))}))

    # service.framing: frame codec (module globals the transports call).
    _patch(framing, "encode_frame", T.wrap(
        "framing.encode", framing.encode_frame,
        attrs=lambda a, k, r, _: {
            "bytes": len(r), "telemetry": "telemetry" in a[0]}))
    _patch(framing, "decode_payload", T.wrap(
        "framing.decode", framing.decode_payload,
        attrs=lambda a, k, r, _: {"bytes": len(a[0]), "op": r.get("op")}))
    for module in (ingest, fleet):
        _patch(module, "decode_chunk", T.wrap(
            "framing.decode_chunk", module.decode_chunk))

    # service.admission
    G = admission.AdmissionGate
    _patch(G, "screen", T.wrap(
        "admission.screen", G.screen,
        attrs=lambda a, k, r, _: {
            "denied": r is not None and r.get("ok") is False}))

    # service.manager (+ session): admission to queue, decide, poll.
    M = manager.SessionManager

    def head_wait(args, kwargs):
        state = args[0]._sessions.get(args[1])
        if state is not None and state.queue:
            return _perf() - state.queue[0][1]
        return None

    _patch(M, "ingest", T.wrap(
        "manager.ingest", M.ingest,
        rid=lambda a, k: "%s:%s" % (a[1], k.get("seq")),
        attrs=lambda a, k, r, _: {"queued": r.queued, "accepted": r.accepted}))
    _patch(M, "pump", T.wrap(
        "manager.pump", M.pump, rid=lambda a, k: str(a[1]), pre=head_wait,
        attrs=lambda a, k, r, wait: {"wait": wait, "windows": r}))
    _patch(M, "poll_events", T.wrap("manager.poll", M.poll_events))

    # service.ingest: dispatch and the drain barrier polls wait on.
    D = ingest.DetectionService
    _patch(D, "_dispatch", T.wrap_async(
        "ingest.dispatch", D._dispatch,
        attrs=lambda a, k, r, _: {"op": a[1].get("op")}))
    _patch(D, "drain", T.wrap_async("ingest.drain", D.drain))
    _patch(fleet, "shard_dispatch", T.wrap(
        "ingest.dispatch", fleet.shard_dispatch,
        attrs=lambda a, k, r, _: {"op": a[2].get("op")}))
    if tracer.role == "shard":
        # The shard's drain barrier is its dirty queue's join().
        _patch(queue.Queue, "join", T.wrap("ingest.drain", queue.Queue.join))

    # service.fleet: parent->shard hop, journal, spawn and restart.
    _patch(fleet._ShardClient, "request", T.wrap_async(
        "fleet.hop", fleet._ShardClient.request,
        attrs=lambda a, k, r, _: {"op": a[1].get("op")}))
    add_chunk = fleet._SessionRecord.add_chunk

    def journal(self, frame, capacity):
        T.count("fleet.journal_chunks")
        return add_chunk(self, frame, capacity)

    _patch(fleet._SessionRecord, "add_chunk", journal)
    P = fleet.ServiceShardPool
    _patch(P, "start", T.wrap_async("fleet.start", P.start))
    _patch(P, "_restart_shard", T.wrap_async("fleet.restart", P._restart_shard))

    # service.telemetry
    _patch(ServiceTelemetry, "snapshot", T.wrap(
        "telemetry.snapshot", ServiceTelemetry.snapshot))
    _patch(ServiceTelemetry, "merge", T.wrap(
        "telemetry.merge", ServiceTelemetry.merge), static=True)


def start_from_env(role: str) -> Tracer | None:
    """Install tracing when ``PERFBENCH_TRACE_DIR`` is set.

    Served processes start traced (so start-up spans are kept) and
    follow SIGUSR1 (enable) / SIGUSR2 (disable) from the benchmark."""
    if not os.environ.get("PERFBENCH_TRACE_DIR"):
        return None
    tracer = Tracer(role)
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.enable())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.disable())
    tracer.enable()
    return tracer
