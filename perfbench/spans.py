"""In-memory span tracer that wraps the program's public entry points from outside.

Nothing here touches ``src/``: :class:`Tracer` replaces methods and
module functions with timing wrappers for the length of a traced run and
puts the originals back afterwards.  Every wrapped call becomes one
span (name, start, end, parent, request id, thread); spans stay in memory
and are written as JSON lines when the run ends, each with its self time
(its duration minus the time its direct children cover).

Parent links follow :mod:`contextvars`, so they hold across ``await``
inside one task.  Work the program hands to a thread pool
(``loop.run_in_executor``) does not inherit the context, so such spans
start a new root with no request id; the thread id tells them apart.

A layer that re-enters itself (a matcher's ``prepare`` calling
``super().prepare``) records one span, not two, so per-layer sums never
double count.

Entry points called hundreds of times per operation
(``Matcher.match_pair``, ``SimilaritySubstrate.matrix``) are wrapped with
``summed=True``: each call adds to a running count and time per phase
instead of keeping a span object, so tracing them costs two clock reads
and no allocation per call.  They have no self time and do not appear
in the span file, and the spans around them include their time in their
own self time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import inspect
import json
import threading
from time import perf_counter

__all__ = ["Tracer", "request"]

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_active: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_active", default=frozenset()
)
_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


@contextlib.contextmanager
def request(request_id):
    """Tag every span opened in this context with ``request_id``."""
    token = _request.set(request_id)
    try:
        yield
    finally:
        _request.reset(token)


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread",
                 "phase", "attrs")

    def __init__(self, span_id, name, parent, request, phase):
        self.id = span_id
        self.name = name
        self.phase = phase
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.attrs = None
        self.start = perf_counter()
        self.end = None


class Tracer:
    """Spans, counters and GC pauses of one traced run.

    ``phase`` is stamped on every span opened while it is set; counters
    and GC pauses accumulate only while it is ``"timed"``.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans: list[_Span] = []
        self.counters: dict[str, float] = {}
        #: (phase, name) -> [calls, seconds] of the ``summed`` entry points
        self.sums: dict[tuple[str, str], list] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        span = _Span(span_id, name, _current.get(), _request.get(), self.phase)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1) -> None:
        if self.phase == "timed":
            # wrapped calls also run on the service's and the remote
            # fan-out's threads
            with self._id_lock:
                self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _sync_wrapper(self, original, name, on_result):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            active = _active.get()
            if name in active:
                return original(*args, **kwargs)
            span = tracer._open(name)
            span_token = _current.set(span.id)
            active_token = _active.set(active | {name})
            try:
                result = original(*args, **kwargs)
            finally:
                _active.reset(active_token)
                _current.reset(span_token)
                span.end = perf_counter()
            if on_result is not None:
                on_result(tracer, span, result, args)
            return result

        return wrapper

    def _summed_wrapper(self, original, name, on_result):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                with tracer._id_lock:
                    entry = tracer.sums.setdefault((phase, name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
            if on_result is not None:
                on_result(tracer, None, result, args)
            return result

        return wrapper

    def _async_wrapper(self, original, name, on_result):
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            active = _active.get()
            if name in active:
                return await original(*args, **kwargs)
            span = tracer._open(name)
            span_token = _current.set(span.id)
            active_token = _active.set(active | {name})
            try:
                result = await original(*args, **kwargs)
            finally:
                _active.reset(active_token)
                _current.reset(span_token)
                span.end = perf_counter()
            if on_result is not None:
                on_result(tracer, span, result, args)
            return result

        return wrapper

    def _generator_wrapper(self, original, name, on_result):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            span = tracer._open(name)
            items = 0
            try:
                while True:
                    # the span is current only while the wrapped generator
                    # runs, never while its consumer does
                    token = _current.set(span.id)
                    try:
                        item = next(generator)
                    except StopIteration:
                        break
                    finally:
                        _current.reset(token)
                    items += 1
                    yield item
            finally:
                generator.close()
                span.end = perf_counter()
                if on_result is not None:
                    on_result(tracer, span, items, args)

        return wrapper

    def wrap(self, owner, attr: str, name: str, on_result=None,
             summed=False) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a
        timing wrapper recording spans called ``name``.

        ``on_result(tracer, span, result, args)`` may read the call's
        result (for generators: the number of items yielded) and
        positional arguments to add counters or span attributes.  With
        ``summed`` (plain functions only, not re-entered) calls are
        summed per phase instead of kept as spans, and ``span`` is
        ``None``.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        if inspect.isasyncgenfunction(function):
            raise TypeError(f"cannot trace async generator {attr}")
        if summed:
            if inspect.iscoroutinefunction(function) or (
                inspect.isgeneratorfunction(function)
            ):
                raise TypeError(f"cannot sum {attr}: not a plain function")
            wrapper = self._summed_wrapper(function, name, on_result)
        elif inspect.iscoroutinefunction(function):
            wrapper = self._async_wrapper(function, name, on_result)
        elif inspect.isgeneratorfunction(function):
            wrapper = self._generator_wrapper(function, name, on_result)
        else:
            wrapper = self._sync_wrapper(function, name, on_result)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_hierarchy(self, base, attr: str, name: str, on_result=None,
                       summed=False):
        """Wrap ``attr`` on ``base`` and on every loaded subclass defining it."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, on_result, summed)

    def patch(self, owner, attr: str, make_replacement) -> None:
        """Replace ``owner.attr`` by ``make_replacement(original)``."""
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_replacement(original))

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None and self.phase == "timed":
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1
            self._gc_started = None
        else:
            self._gc_started = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        """Restore every wrapped attribute and detach from the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def finished(self, phase=None) -> list[_Span]:
        return [
            span for span in self.spans
            if span.end is not None and (phase is None or span.phase == phase)
        ]

    def self_times(self) -> dict[int, float]:
        """Self time of every finished span, in seconds."""
        spans = self.finished()
        covered: dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.end - span.start
                )
        return {
            span.id: max(0.0, span.end - span.start - covered.get(span.id, 0.0))
            for span in spans
        }

    def totals(self, phase) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Summed entry points have calls and inclusive seconds only.
        """
        self_time = self.self_times()
        totals: dict[str, dict[str, float]] = {}
        for span in self.finished(phase):
            entry = totals.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += self_time[span.id]
        for (sum_phase, name), (calls, seconds) in self.sums.items():
            if sum_phase == phase:
                totals[name] = {"calls": calls, "total_s": seconds}
        return totals

    def write_jsonl(self, path) -> None:
        """Write every finished span as one JSON object per line."""
        self_time = self.self_times()
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                record = {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "request": span.request,
                    "thread": span.thread,
                    "start_ms": round((span.start - origin) * 1e3, 4),
                    "end_ms": round((span.end - origin) * 1e3, 4),
                    "self_ms": round(self_time[span.id] * 1e3, 4),
                    "phase": span.phase,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record) + "\n")
