"""Per-layer attribution from the benchmark's own files.

The program is not edited: :class:`LayerTracer` wraps the public entry
points of each layer (``optimizer``, ``cube``, ``distribution``,
``mapreduce``, ``local``, ``parallel``, ``serving``) while it is
installed, and restores the originals when it is removed, so untraced
runs execute the unmodified code.

Every wrapped call is a span: it knows the span that caused it through
a context variable (``asyncio.to_thread`` copies the context, so spans
of the serving daemon's worker threads still find their parent).  A
span's *self* time is its duration minus the time of the wrapped calls
made inside it, so self times of all layers in one scope add up to the
scope's wall time, minus what no wrapper covers.

The *scope* names the executor the benchmark is timing (``central``,
``inproc``, ``mp`` or ``serve``); the workload code sets it around
each call with :func:`scope`.  Spans are aggregated in memory per
``(scope, layer)``.  Report objects the layers already return
(``ParallelResult``, ``MultiprocessReport``, ``AppendReport``) are read
by the workload code from the calls it makes itself.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

_SCOPE: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_scope", default="other"
)
#: The open spans of the current context, innermost last.  Each span is
#: a one-element list holding the time its wrapped children took.
_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_stack", default=()
)


@contextlib.contextmanager
def scope(name: str):
    """Attribute every span opened inside the block to *name*."""
    token = _SCOPE.set(name)
    try:
        yield
    finally:
        _SCOPE.reset(token)


@dataclass
class LayerTotals:
    """Aggregated spans of one layer in one scope."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class _Span:
    """One wrapped call: times it and charges it to its parent span."""

    __slots__ = ("record", "layer", "parent", "frame", "token", "started")

    def __init__(self, record, layer: str):
        self.record = record
        self.layer = layer

    def __enter__(self):
        self.parent = _STACK.get()
        self.frame = [0.0]
        self.token = _STACK.set(self.parent + (self.frame,))
        self.started = time.perf_counter()

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self.started
        _STACK.reset(self.token)
        self.record(self.layer, elapsed, self.frame, self.parent)


class LayerTracer:
    """Installs timing wrappers on the layers' public entry points."""

    def __init__(self):
        self.totals: dict[tuple[str, str], LayerTotals] = defaultdict(
            LayerTotals
        )
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- aggregation ------------------------------------------------------

    def _record(self, layer: str, inclusive: float, frame: list,
                parent: tuple) -> None:
        # Worker threads record concurrently, and a span opened in a
        # thread may charge a parent opened in another.
        with self._lock:
            if parent:
                parent[-1][0] += inclusive
            totals = self.totals[(_SCOPE.get(), layer)]
            totals.calls += 1
            totals.inclusive_s += inclusive
            totals.self_s += inclusive - frame[0]

    def get(self, scope_name: str, layer: str) -> LayerTotals:
        return self.totals.get((scope_name, layer), LayerTotals())

    # -- wrappers ---------------------------------------------------------

    def timed(self, layer: str, fn):
        """*fn* wrapped in a span named *layer*."""
        record = self._record

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with _Span(record, layer):
                    return await fn(*args, **kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(record, layer):
                return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_method(self, cls, name: str, layer: str):
        self._patch(cls, name, self.timed(layer, getattr(cls, name)))

    def _patch_factory(self, cls, name: str, layer: str):
        """Wrap the callables a factory method returns (block routers)."""
        factory = getattr(cls, name)
        timed = self.timed

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return timed(layer, factory(*args, **kwargs))

        self._patch(cls, name, make)

    def install(self) -> None:
        """Wrap every layer entry point; idempotent."""
        if self._restore:
            return
        from repro.cube.batches import RecordBatch
        from repro.distribution.clustering import BlockScheme
        from repro.local.sortscan import BlockEvaluator
        from repro.mapreduce import engine
        from repro.optimizer.optimizer import Optimizer
        from repro.parallel import executor, multiprocess
        from repro.serving.daemon import QueryService
        from repro.serving.incremental import IncrementalMaintainer

        # The executors plan through plan_query, the daemon through
        # plan; nested calls split into self times, so both share a name.
        self._patch_method(Optimizer, "plan_query", "optimizer.plan")
        self._patch_method(Optimizer, "plan", "optimizer.plan")
        from_records = RecordBatch.__dict__["from_records"].__func__
        self._patch(
            RecordBatch,
            "from_records",
            classmethod(self.timed("cube.batch", from_records)),
        )
        self._patch_factory(
            BlockScheme, "make_batch_router", "distribution.route"
        )
        self._patch_factory(BlockScheme, "make_mapper", "distribution.route")
        # The engine calls the sorter through its own module binding.
        self._patch(
            engine,
            "sort_group_pairs",
            self.timed("mapreduce.sort", engine.sort_group_pairs),
        )
        self._patch_method(engine.MapReduceJob, "run", "mapreduce.job")
        self._patch_method(BlockEvaluator, "evaluate", "local.eval")
        for module in (executor, multiprocess):
            self._patch(
                module,
                "union_outputs",
                self.timed("parallel.union", module.union_outputs),
            )
        self._patch_method(
            executor.ParallelEvaluator, "evaluate", "parallel.inproc"
        )
        self._patch_method(
            multiprocess.MultiprocessEvaluator, "evaluate", "parallel.mp"
        )
        self._patch_method(QueryService, "append", "serving.append")
        self._patch_method(IncrementalMaintainer, "apply", "serving.patch")

    def remove(self) -> None:
        """Restore every original entry point."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()
