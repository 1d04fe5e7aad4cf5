"""A process-parallel local backend with real fault tolerance.

The simulated cluster measures *what the paper measured*; this backend
demonstrates the paper's closing remark that the algorithm "can be
implemented in any OLAP system which supports scatter-and-gather": the
same plan -- feasible key, clustering factor, overlapping
redistribution, one local sort/scan per reduce task keeping the rows its
blocks own (:mod:`repro.parallel.reduce`) -- executed across real OS
processes with :mod:`concurrent.futures`.

Unlike a plain ``pool.map``, the gather side survives real failures the
way a MapReduce master does:

* a task attempt that raises is retried with exponential backoff and
  deterministic jitter, up to :class:`~repro.faults.RetryPolicy.
  max_attempts`;
* an attempt that outlives ``straggler_timeout`` earns a speculative
  duplicate; the first result wins and the loser is ignored, so the
  final union stays duplicate-free (home-block filtering already
  guarantees task-disjoint outputs);
* a worker process dying (``BrokenProcessPool``) rebuilds the pool and
  re-runs only the unfinished tasks;
* an attempt exceeding ``task_timeout`` is abandoned and re-dispatched;
* when a task exhausts its budget the evaluator degrades gracefully:
  it falls back to :func:`repro.local.evaluate_centralized`, so the
  answer never changes -- only the speedup is lost.

Chaos is injected through the same :class:`~repro.faults.FaultPlan`
the simulator uses (see :func:`repro.faults.apply_chaos`): seeded
worker kills, injected failures, and stragglers exercise every one of
those recovery paths deterministically.

Workers rebuild the workflow from its serialized form (see
:mod:`repro.io`), so measures must use registry aggregates and *named*
combine expressions; anonymous lambdas cannot cross process boundaries.
Parameterized aggregates (quantiles, sketches) re-register themselves in
each worker through the factory list passed at pool start.

The result is bit-identical to :func:`repro.local.evaluate_centralized`
-- asserted by the test suite, including under chaos -- because the plan
machinery is shared with the simulated executor; only the transport (and
what can go wrong with it) differs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_module
import time
from collections import defaultdict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cube.batches import (
    ColumnPayload,
    RecordBatch,
    compact_array,
    decode_buffer,
    encode_buffer,
    estimated_pickle_bytes,
)
from repro.cube.records import Record, Schema
from repro import kernels
from repro.faults.inject import apply_chaos
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.io.serialize import workflow_from_dict, workflow_to_dict
from repro.local.measure_table import ResultSet
from repro.local.sortscan import evaluate_centralized
from repro.local.vectorized import vectorized_supports
from repro.mapreduce.engine import stable_hash
from repro.obs.telemetry import NULL_TELEMETRY, sample_resources
from repro.obs.tracectx import (
    SpanCollector,
    TraceContext,
    fork_context,
    wire_span,
)
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.query.functions import Expression
from repro.query.workflow import Workflow, connected_components
from repro.parallel.cancel import CancellationToken
from repro.parallel.executor import union_outputs
from repro.parallel.reduce import TaskReducer
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    shm_available,
)

#: Valid values of the transport knob.
TRANSPORT_MODES = ("auto", "shm", "pickle")

logger = logging.getLogger(__name__)

#: How often the gather loop wakes to check retries/stragglers (seconds).
_POLL_SECONDS = 0.02

# Worker-process state, set up once per pool by _init_worker.
_WORKER: dict = {}

#: Counters each worker flushes per finished task attempt; the driver
#: settles them to the attempts it accepted once a run is over.
_TASK_COUNTERS = ("tasks", "rows", "blocks")


#: Codec applied to every columnar wire buffer shipped to workers.
#: Block keys and sorted row indices are highly repetitive, so deflate
#: roughly halves the shipped bytes on top of dtype compaction.
_WIRE_CODEC = "zlib"

_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class _ColumnarBucket:
    """One reduce task's input in compact columnar wire form.

    The payload holds each record the task needs exactly once (its
    blocks overlap heavily under annotated keys).  Next to it travel
    the block keys the task owns -- a :class:`ColumnPayload`, each key
    column in its smallest covering dtype -- and, per plan component,
    the payload rows that component evaluates: one concatenated index
    buffer plus one count per component.
    """

    payload: ColumnPayload
    keys: ColumnPayload
    row_counts: tuple
    rows_dtype: str
    rows: bytes
    codec: str = "raw"

    @staticmethod
    def build(
        payload: ColumnPayload,
        keys: np.ndarray,
        component_rows: list,
        codec: str = "raw",
    ) -> "_ColumnarBucket":
        """Pack owned block keys and per-component payload rows."""
        rows_dtype, rows = compact_array(np.concatenate(component_rows))
        return _ColumnarBucket(
            payload=payload,
            keys=ColumnPayload.from_matrix(keys, codec=codec),
            row_counts=tuple(len(rows) for rows in component_rows),
            rows_dtype=rows_dtype,
            rows=encode_buffer(rows, codec),
            codec=codec,
        )

    @property
    def num_blocks(self) -> int:
        return self.keys.length

    def component_rows(self) -> list:
        """Each component's payload row indices."""
        rows = np.frombuffer(
            decode_buffer(self.rows, self.codec),
            dtype=np.dtype(self.rows_dtype),
        )
        return np.split(rows, np.cumsum(self.row_counts)[:-1])


@dataclass(frozen=True)
class _RecordBucket:
    """One reduce task's input as record lists (the typed fallback).

    ``keys`` are the block keys the task owns; ``records`` holds, per
    plan component, the records its blocks need -- each once, in input
    order.
    """

    keys: tuple
    records: tuple

    @property
    def num_blocks(self) -> int:
        return len(self.keys)


def _init_worker(
    workflow_data: dict,
    schema: Schema,
    scheme_specs: list,
    expressions: Optional[Mapping[str, Expression]],
    function_factories: Sequence[tuple],
    telemetry_queue=None,
    kernels_mode: str = "auto",
    trace_ctx: Optional[dict] = None,
) -> None:
    """Rebuild the workflow and its task reducer inside a worker."""
    # The driver's kernels knob must cross the process boundary: a
    # forced mode ("on"/"off") applies to worker evaluation too.
    kernels.set_kernels_mode(kernels_mode)
    for factory_path, args in function_factories:
        module_name, _, attr = factory_path.rpartition(".")
        module = __import__(module_name, fromlist=[attr])
        getattr(module, attr)(*args)

    workflow = workflow_from_dict(workflow_data, schema, expressions)
    from repro.distribution.clustering import BlockScheme
    from repro.distribution.keys import DistributionKey, KeyComponent

    # Serialization may reorder measures (topological emit), so the
    # rebuilt components can come back in a different order than the
    # driver enumerated them; match by measure-name set, never by
    # position -- block keys carry the DRIVER's component indices.
    by_names = {
        frozenset(component.names): component
        for component in connected_components(workflow)
    }
    components = []
    for names, key_spec, factors in scheme_specs:
        key = DistributionKey(
            schema, tuple(KeyComponent(*spec) for spec in key_spec)
        )
        components.append(
            (by_names[frozenset(names)], BlockScheme(key, dict(factors)))
        )
    _WORKER["schema"] = schema
    _WORKER["reducer"] = TaskReducer(components)
    # Telemetry channel: cumulative totals since worker start, flushed
    # with a monotone sequence number after every finished task.
    _WORKER["telemetry_queue"] = telemetry_queue
    _WORKER["telemetry_seq"] = 0
    _WORKER["telemetry_counters"] = dict.fromkeys(_TASK_COUNTERS, 0)
    # Trace propagation: the driver's execution-span context, received
    # on the wire.  Task-attempt spans parent under it and ride the
    # telemetry channel inside a bounded ring (the worker-side flight
    # recorder) as (seq, span) pairs, so redelivery dedups cleanly.
    _WORKER["trace_ctx"] = trace_ctx
    _WORKER["trace_spans"] = deque(maxlen=128)
    _WORKER["trace_seq"] = 0


def _worker_name() -> str:
    """This worker's name on the telemetry channel."""
    return f"w{os.getpid()}"


def _flush_worker_telemetry() -> None:
    """Push this worker's cumulative totals to the driver, best-effort.

    Totals (never increments) ride with a per-worker sequence number,
    so the driver's merge is idempotent: a flush delivered twice or a
    worker killed before its next flush can neither double-count nor
    corrupt what was already acknowledged -- at worst the final window
    of a dead worker goes unreported.  Queue trouble (driver gone,
    shutdown races) is swallowed: telemetry must never fail a task.
    """
    channel = _WORKER.get("telemetry_queue")
    if channel is None:
        return
    _WORKER["telemetry_seq"] += 1
    delta = {
        "worker": _worker_name(),
        "seq": _WORKER["telemetry_seq"],
        "counters": dict(_WORKER["telemetry_counters"]),
        "resources": sample_resources().to_dict(),
    }
    ring = _WORKER.get("trace_spans")
    if ring:
        # The whole recent window every flush: at-least-once delivery,
        # deduplicated driver-side by per-span sequence number.
        delta["spans"] = list(ring)
    try:
        channel.put_nowait(delta)
    except Exception:
        pass


def _record_task_span(task: int, attempt: int, started: float,
                      **attributes) -> None:
    """Ring one finished (or failed) task attempt as a context span."""
    ctx = _WORKER.get("trace_ctx")
    ring = _WORKER.get("trace_spans")
    if ctx is None or ring is None:
        return
    _WORKER["trace_seq"] += 1
    span = wire_span(
        ctx,
        "mp-task",
        started,
        time.time(),
        process=_worker_name(),
        task=task,
        attempt=attempt,
        **attributes,
    )
    ring.append((_WORKER["trace_seq"], span))


def _reduce_bucket(bucket) -> list:
    """Evaluate one reduce task; runs inside a worker process."""
    if isinstance(bucket, ShmBucket):
        view = bucket.attach()
        try:
            return _reduce_shm_view(view)
        finally:
            view.close()
    if isinstance(bucket, _ColumnarBucket):
        batch = bucket.payload.to_batch(_WORKER["schema"])
        return _reduce_task(
            bucket.keys.to_matrix(),
            [batch.take(rows) for rows in bucket.component_rows()],
        )
    return _reduce_task(
        np.array(bucket.keys, dtype=np.int64), bucket.records
    )


def _reduce_shm_view(view) -> list:
    """Evaluate an attached shm bucket.

    Separated from :func:`_reduce_bucket` so that when this frame
    returns, every array view into the shared mapping is dead and the
    caller's ``close()`` can actually unmap the segment.
    """
    batch = view.batch(_WORKER["schema"])
    return _reduce_task(
        view.keys(), [batch.take(rows) for rows in view.component_rows()]
    )


def _reduce_task(keys: np.ndarray, inputs) -> list:
    """One evaluation per component over the task's deduplicated input.

    *keys* holds the owned block keys (component index first), and
    *inputs* each component's records or batch.
    """
    reducer = _WORKER["reducer"]
    rows: list = []
    for index, component_input in enumerate(inputs):
        owned = keys[keys[:, 0] == index, 1:]
        if len(owned):
            rows.extend(
                reducer.reduce(index, owned, records=component_input)[0]
            )
    return rows


def _run_task(
    task: int,
    attempt: int,
    bucket: list,
    plan: Optional[FaultPlan],
) -> tuple[int, list, str]:
    """One task attempt inside a worker: inject chaos, then evaluate.

    Returns the task, its rows, and the worker that produced them.
    """
    tracing = _WORKER.get("trace_ctx") is not None
    started = time.time() if tracing else 0.0
    try:
        if plan is not None:
            apply_chaos(plan, task, attempt)
        rows = _reduce_bucket(bucket)
    except BaseException as exc:
        # A failed attempt still leaves a span behind -- best effort:
        # the flush may not land before the process dies, but a chaos
        # *exception* (as opposed to a kill) usually gets through.
        if tracing:
            _record_task_span(task, attempt, started, error=repr(exc))
            _flush_worker_telemetry()
        raise
    if tracing:
        _record_task_span(task, attempt, started, rows=len(rows))
    counters = _WORKER.get("telemetry_counters")
    if _WORKER.get("telemetry_queue") is not None:
        if counters is not None:
            counters["tasks"] += 1
            counters["rows"] += len(rows)
            counters["blocks"] += bucket.num_blocks
        _flush_worker_telemetry()
    return task, rows, _worker_name()


@dataclass
class MultiprocessReport:
    """What the process-parallel run actually did, recovery included."""

    processes: int
    partitions: int
    blocks: int
    replicated_records: int
    transport: str = "records"
    shipped_bytes: int = 0
    #: Bytes written into shared-memory segments (0 on pickle paths);
    #: the descriptors that still cross the pipe count as
    #: ``shipped_bytes``.
    shm_bytes: int = 0
    #: Driver wall seconds spent materializing the transport (pickling
    #: buckets, or writing shm segments).
    transport_seconds: float = 0.0
    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    injected_failures: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    degraded: bool = False
    #: Wall seconds of retry backoff the driver sat out -- the latency
    #: ledger's ``retry_overhead`` phase.
    retry_wall_seconds: float = 0.0
    attempts_per_task: dict = field(default_factory=dict)
    #: Context-tagged span dicts for this run (the driver's execution
    #: span, retry events, and worker task attempts collected over the
    #: telemetry channel); empty unless a trace context was passed.
    trace_spans: list = field(default_factory=list)
    #: Per-worker telemetry sections (cumulative counters + final
    #: resource odometer), merged from the telemetry channel; empty
    #: when telemetry was off.  Shape matches
    #: :meth:`repro.obs.telemetry.TelemetryRegistry.worker_totals`.
    workers: dict = field(default_factory=dict)

    @property
    def transport_bytes(self) -> int:
        """Total bytes the scatter materialized (pipe + shm)."""
        return self.shipped_bytes + self.shm_bytes

    @property
    def transport_bytes_per_second(self) -> float:
        """Scatter throughput: transport bytes over driver wall time."""
        if self.transport_seconds <= 0:
            return 0.0
        return self.transport_bytes / self.transport_seconds

    def fault_summary(self) -> dict:
        """Recovery accounting in the shape run manifests record."""
        return {
            "tasks": self.tasks,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.injected_failures,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "speculative_launched": self.speculative_launched,
            "speculative_wins": self.speculative_wins,
            "degraded": self.degraded,
            "attempts_per_task": {
                str(task): count
                for task, count in sorted(self.attempts_per_task.items())
            },
        }


@dataclass
class _TaskState:
    """Driver-side bookkeeping for one gather task."""

    bucket: list
    failures: int = 0
    next_attempt: int = 0
    inflight: int = 0
    done: bool = False
    rows: Optional[list] = None


class MultiprocessEvaluator:
    """Evaluates workflows across OS processes (no simulation).

    Args:
        processes: Worker pool size; defaults to the CPU count.
        optimizer: Plan-search configuration (shared with the simulated
            executor -- the plan is identical, only execution differs).
        expressions: Named combine expressions needed to rebuild the
            workflow in workers (beyond the built-ins).
        function_factories: For parameterized registry aggregates
            (quantiles, sketches), ``("module.factory", (args,))`` pairs
            re-run in every worker so lookups by name succeed there.
        retry_policy: Retry/backoff/speculation knobs (wall-clock
            semantics); defaults to :class:`~repro.faults.RetryPolicy`.
        fault_plan: Optional chaos to inject into worker attempts --
            seeded kills, failures, stragglers (see
            :func:`repro.faults.apply_chaos`).
        tracer: Optional :class:`repro.obs.Tracer`; receives dispatch
            and recovery spans on the wall clock.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; receives
            attempt/retry/speculation counters.
        telemetry: Optional
            :class:`repro.obs.telemetry.TelemetryRegistry`; turns on
            the worker->driver channel -- workers flush cumulative
            counters and resource samples after every task, the gather
            loop merges them live, and the report/manifest gain a
            per-worker section.  Defaults to the no-op
            :data:`~repro.obs.telemetry.NULL_TELEMETRY`.
        transport: How columnar buckets reach workers: ``"auto"``
            (shared memory when the platform supports it, else
            deflated pickles), ``"shm"`` (require shared memory; raise
            when unavailable), or ``"pickle"`` (force the
            deflated-pickle path).  Record-list buckets always travel
            by pickle.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        optimizer: OptimizerConfig | None = None,
        expressions: Optional[Mapping[str, Expression]] = None,
        function_factories: Sequence[tuple] = (),
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        metrics=None,
        telemetry=None,
        transport: str = "auto",
    ):
        if transport not in TRANSPORT_MODES:
            raise ValueError(
                f"unknown transport {transport!r}; choose one of "
                f"{TRANSPORT_MODES}"
            )
        self.transport = transport
        self.processes = processes or os.cpu_count() or 2
        self.optimizer = Optimizer(optimizer or OptimizerConfig())
        self.expressions = expressions
        self.function_factories = tuple(function_factories)
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        #: Live span collector for the current traced run; the gather
        #: loop's telemetry drain feeds it worker span deliveries.
        self._span_collector: Optional[SpanCollector] = None

    def evaluate(
        self,
        workflow: Workflow,
        records: Sequence[Record],
        num_partitions: Optional[int] = None,
        columnar: Optional[bool] = None,
        cancel: CancellationToken | None = None,
        trace: Optional[TraceContext] = None,
    ) -> tuple[ResultSet, MultiprocessReport]:
        """Run the one-round plan over *records* with real processes.

        *columnar* selects the compact column-buffer transport for the
        scatter (default ``None`` auto-enables it when the workflow has
        vectorized aggregate support); data that cannot be represented
        as an integer batch falls back to record-list transport either
        way.

        *cancel* (a :class:`repro.parallel.cancel.CancellationToken`)
        is checked before the scatter and on every poll of the gather
        loop; a tripped token abandons the outstanding attempts (worker
        processes cannot be interrupted mid-task, so their results are
        simply ignored) and raises
        :class:`~repro.parallel.cancel.DeadlineExceededError`.

        *trace* (a :class:`repro.obs.tracectx.TraceContext`) propagates
        a query trace across the process boundary: the run records an
        execution span under it, workers tag every task attempt with
        the same trace id, and the collected spans come back on
        :attr:`MultiprocessReport.trace_spans`.
        """
        if cancel is not None:
            cancel.check()
        records = list(records)
        partitions = num_partitions or self.processes * 4
        sample = None
        if self.optimizer.config.use_sampling:
            from repro.optimizer.skew import sample_records

            sample = sample_records(
                records,
                self.optimizer.config.sample_size,
                self.optimizer.config.sample_seed,
            )
        plan = self.optimizer.plan_query(
            workflow, len(records), num_reducers=partitions, records=sample
        )
        logger.info(
            "dispatching %d records over %d processes: %s",
            len(records),
            self.processes,
            plan.describe(),
        )

        # Scatter: replicate records into blocks (driver side), then
        # group blocks into per-partition buckets by stable hash.
        use_columnar = (
            columnar
            if columnar is not None
            else vectorized_supports(workflow)
        )
        batch = (
            RecordBatch.from_records(workflow.schema, records)
            if use_columnar
            else None
        )
        if batch is not None and not batch.routable():
            # Typed dimension columns (strings/nulls) cannot be mapped
            # through hierarchy level arrays; ship record lists instead.
            batch = None
        if self.transport == "shm" and not shm_available():
            raise RuntimeError(
                "transport='shm' requested but POSIX shared memory is "
                "unavailable on this platform; use 'auto' or 'pickle'"
            )
        registry = None
        if batch is not None and self.transport != "pickle" and (
            self.transport == "shm" or shm_available()
        ):
            registry = SegmentRegistry()
        try:
            return self._evaluate_scattered(
                workflow, records, batch, plan, partitions, registry,
                cancel, trace,
            )
        finally:
            if registry is not None:
                registry.unlink_all()

    def _evaluate_scattered(
        self,
        workflow: Workflow,
        records: list,
        batch: Optional[RecordBatch],
        plan,
        partitions: int,
        registry: Optional[SegmentRegistry],
        cancel: CancellationToken | None,
        trace: Optional[TraceContext] = None,
    ) -> tuple[ResultSet, MultiprocessReport]:
        """Scatter into buckets, gather resiliently, union the answer.

        *registry*, when given, selects shared-memory transport for the
        columnar buckets; the caller guarantees ``unlink_all`` runs
        whatever happens here.
        """
        if batch is not None:
            buckets, num_blocks, replicated, transport_seconds = (
                self._scatter_columnar(batch, plan, partitions, registry)
            )
            transport = "shm" if registry is not None else "columnar"
        else:
            buckets, num_blocks, replicated = self._scatter_records(
                records, plan, partitions
            )
            transport = "records"
            transport_seconds = None

        scheme_specs = [
            (
                tuple(component.names),
                tuple(
                    (c.level, c.low, c.high)
                    for c in subplan.scheme.key.components
                ),
                tuple(sorted(subplan.scheme.clustering_factors.items())),
            )
            for component, subplan in plan.subplans
        ]
        # Telemetry channel: a managed queue is picklable into worker
        # initargs (a plain multiprocessing.Queue is not); the manager
        # process only exists while telemetry or tracing is on (worker
        # spans ride the same channel as counters).
        manager = None
        telemetry_queue = None
        if self.telemetry.enabled or trace is not None:
            manager = multiprocessing.Manager()
            telemetry_queue = manager.Queue()

        exec_ctx = None
        collector = None
        if trace is not None:
            exec_ctx = fork_context(trace)
            collector = SpanCollector()
            self._span_collector = collector
        exec_start = time.time()

        init_args = (
            workflow_to_dict(workflow, expressions=self.expressions),
            workflow.schema,
            scheme_specs,
            self.expressions,
            self.function_factories,
            telemetry_queue,
            kernels.kernels_mode(),
            exec_ctx.to_wire() if exec_ctx is not None else None,
        )

        # Gather: one task per non-empty bucket, with retries,
        # speculation, pool rebuilds and a centralized fallback.
        work = [bucket for bucket in buckets if bucket]
        measure_started = time.perf_counter()
        shipped_bytes = sum(
            estimated_pickle_bytes(bucket) for bucket in work
        )
        if transport_seconds is None:
            # Record-list transport: serializing the buckets IS the
            # materialization cost, so the measurement doubles as it.
            transport_seconds = time.perf_counter() - measure_started
        report = MultiprocessReport(
            processes=self.processes,
            partitions=partitions,
            blocks=num_blocks,
            replicated_records=replicated,
            transport=transport,
            shipped_bytes=shipped_bytes,
            shm_bytes=registry.created_bytes if registry else 0,
            transport_seconds=transport_seconds,
            tasks=len(work),
        )
        self.telemetry.phase("mp-tasks", 0, len(work))
        self.telemetry.set_gauge("mp.shipped_bytes", report.shipped_bytes)
        self.telemetry.set_gauge("mp.shm_bytes", report.shm_bytes)
        self.telemetry.set_gauge(
            "mp.transport_bytes_per_s", report.transport_bytes_per_second
        )

        def release_bucket(bucket) -> None:
            # Eager reclamation: the moment a task's result is in, its
            # segment can go -- Linux keeps the memory alive for any
            # straggling duplicate that already mapped it.
            if registry is not None and isinstance(bucket, ShmBucket):
                registry.release(bucket.segment)

        try:
            with self.tracer.span(
                "mp-evaluate", tasks=len(work), processes=self.processes
            ):
                accepted: dict = {}
                seen_workers: set = set()
                row_lists = self._gather_resilient(
                    work, init_args, report,
                    telemetry_queue=telemetry_queue,
                    cancel=cancel,
                    release=release_bucket,
                    trace_ctx=exec_ctx,
                    accepted=accepted,
                    seen_workers=seen_workers,
                )
                self._drain_telemetry(telemetry_queue, seen_workers)
                # Count each task once: only the attempt whose result
                # was taken, not a lost or losing duplicate.
                self.telemetry.settle_worker_counters({
                    worker: accepted.get(
                        worker, dict.fromkeys(_TASK_COUNTERS, 0)
                    )
                    for worker in seen_workers
                })
                report.workers = self.telemetry.worker_totals()
                if row_lists is None:
                    # Graceful degradation: some block exhausted its
                    # retry budget.  The centralized oracle computes
                    # the same answer -- we lose the speedup, never
                    # the result.
                    logger.warning(
                        "multiprocess gather degraded after %d retries; "
                        "falling back to centralized evaluation",
                        report.retries,
                    )
                    report.degraded = True
                    with self.tracer.span(
                        "mp-degrade", retries=report.retries
                    ):
                        result = evaluate_centralized(workflow, records)
                    self._record_metrics(report)
                    return result, report
        finally:
            if exec_ctx is not None:
                # The run's execution span closes AS the forked context
                # (id = exec_ctx.span_id), so worker task spans -- its
                # children -- attach whatever path returned above.
                report.trace_spans.extend(collector.spans)
                report.trace_spans.append({
                    "name": "mp-evaluate",
                    "trace_id": exec_ctx.trace_id,
                    "span_id": exec_ctx.span_id,
                    "parent_id": exec_ctx.parent_id,
                    "wall_start": exec_start,
                    "wall_end": time.time(),
                    "process": f"pid{os.getpid()}",
                    "links": [list(link) for link in exec_ctx.links],
                    "attributes": {
                        "tasks": len(work),
                        "processes": self.processes,
                        "retries": report.retries,
                        "degraded": report.degraded,
                    },
                })
                self._span_collector = None
            if manager is not None:
                manager.shutdown()

        result = union_outputs(
            workflow, (row for rows in row_lists for row in rows)
        )
        self._record_metrics(report)
        return result, report

    # -- columnar scatter ----------------------------------------------------------

    @staticmethod
    def _scatter_records(
        records: list, plan, partitions: int
    ) -> tuple[list, int, int]:
        """Route records into per-partition :class:`_RecordBucket` s.

        Returns ``(buckets, num_blocks, replicated_records)``; empty
        partitions are ``[]``.  Each bucket ships, per component, the
        records its blocks need once each, in input order.
        """
        keys: list[list] = [[] for _ in range(partitions)]
        members = [
            [set() for _ in plan.subplans] for _ in range(partitions)
        ]
        num_blocks = replicated = 0
        for index, (_component, subplan) in enumerate(plan.subplans):
            mapper = subplan.scheme.make_mapper()
            blocks: dict[tuple, list] = defaultdict(list)
            for position, record in enumerate(records):
                for block_key in mapper(record):
                    blocks[(index,) + block_key].append(position)
            for block_key, positions in blocks.items():
                part = stable_hash(block_key) % partitions
                keys[part].append(block_key)
                members[part][index].update(positions)
                replicated += len(positions)
            num_blocks += len(blocks)
        buckets = [
            _RecordBucket(
                tuple(part_keys),
                tuple(
                    [records[i] for i in sorted(positions)]
                    for positions in part_members
                ),
            )
            if part_keys
            else []
            for part_keys, part_members in zip(keys, members)
        ]
        return buckets, num_blocks, replicated

    @staticmethod
    def _scatter_columnar(
        batch: RecordBatch,
        plan,
        partitions: int,
        registry: Optional[SegmentRegistry] = None,
    ) -> tuple[list, int, int, float]:
        """Route one batch into per-partition columnar buckets.

        Returns ``(buckets, num_blocks, replicated_records,
        materialize_seconds)``; empty partitions are ``[]``.  Each
        bucket ships the block keys its task owns and, per component,
        the rows those blocks need -- deduplicated, since the blocks
        overlap under annotated keys -- as indices into one payload
        holding each of the task's records once: deflated column
        buffers when *registry* is ``None``, or written once into a
        shared-memory segment otherwise (only the :class:`ShmBucket`
        descriptor then crosses the pipe).  ``materialize_seconds`` is
        the wall time spent building the transport form, excluding the
        routing shared by both.
        """
        keys: list[list] = [[] for _ in range(partitions)]
        rows_of = [
            [_NO_ROWS] * len(plan.subplans) for _ in range(partitions)
        ]
        num_blocks = replicated = 0
        for index, (_component, subplan) in enumerate(plan.subplans):
            router = subplan.scheme.make_batch_router()
            block_keys, rows, counts = router(batch, (index,), flat=True)
            num_blocks += len(block_keys)
            replicated += len(rows)
            parts = [stable_hash(key) % partitions for key in block_keys]
            for key, part in zip(block_keys, parts):
                keys[part].append(key)
            # Group the replicas by partition, then drop the copies a
            # partition's overlapping blocks share.
            replica_parts = np.repeat(
                np.asarray(parts, dtype=np.int64), counts
            )
            order = np.argsort(replica_parts, kind="stable")
            bounds = np.searchsorted(
                replica_parts[order], np.arange(partitions + 1)
            ).tolist()
            sorted_rows = rows[order]
            for part in range(partitions):
                if bounds[part] < bounds[part + 1]:
                    rows_of[part][index] = np.unique(
                        sorted_rows[bounds[part]:bounds[part + 1]]
                    )

        buckets: list = []
        materialize_seconds = 0.0
        for part_keys, component_rows in zip(keys, rows_of):
            if not part_keys:
                buckets.append([])
                continue
            payload_rows = np.unique(np.concatenate(component_rows))
            local_rows = [
                np.searchsorted(payload_rows, rows) for rows in component_rows
            ]
            keys_matrix = np.asarray(part_keys, dtype=np.int64)
            started = time.perf_counter()
            sub_batch = batch.take(payload_rows)
            if registry is not None:
                buckets.append(
                    ShmBucket.build(
                        registry, sub_batch, keys_matrix, local_rows
                    )
                )
            else:
                buckets.append(
                    _ColumnarBucket.build(
                        sub_batch.to_payload(codec=_WIRE_CODEC),
                        keys_matrix,
                        local_rows,
                        codec=_WIRE_CODEC,
                    )
                )
            materialize_seconds += time.perf_counter() - started
        return buckets, num_blocks, replicated, materialize_seconds

    # -- resilient gather loop ---------------------------------------------------

    def _gather_resilient(
        self,
        work: Sequence[list],
        init_args: tuple,
        report: MultiprocessReport,
        telemetry_queue=None,
        cancel: CancellationToken | None = None,
        release=None,
        trace_ctx: Optional[TraceContext] = None,
        *,
        accepted: dict,
        seen_workers: set,
    ) -> Optional[list[list]]:
        """Run every bucket to completion; ``None`` means degrade.

        The loop mirrors a MapReduce master: dispatch, watch, retry
        with backoff, speculate on stragglers, rebuild the pool when a
        worker dies, and give up (gracefully) only when a task's whole
        budget is spent.  *accepted* collects, per worker, the task
        counters of the attempts whose results were taken; *seen_workers*
        the workers whose telemetry flushes arrived.
        """
        if not work:
            return []
        policy = self.retry_policy
        plan = self.fault_plan
        seed = plan.seed if plan is not None else 0
        tasks = {index: _TaskState(bucket) for index, bucket in
                 enumerate(work)}
        pool = self._new_pool(init_args)
        futures: dict = {}  # future -> (task, attempt, submitted_at, backup)
        retry_at: dict[int, float] = {}  # task -> wall deadline
        unfinished = set(tasks)

        def submit(task: int, *, backup: bool = False) -> None:
            state = tasks[task]
            attempt = state.next_attempt
            state.next_attempt += 1
            state.inflight += 1
            report.attempts += 1
            report.attempts_per_task[task] = (
                report.attempts_per_task.get(task, 0) + 1
            )
            future = pool.submit(
                _run_task, task, attempt, state.bucket, plan
            )
            futures[future] = (task, attempt, time.monotonic(), backup)

        def register_failure(task: int, why: str) -> bool:
            """Count a failure; ``False`` means the budget is spent."""
            state = tasks[task]
            state.failures += 1
            if state.failures >= policy.max_attempts:
                logger.error(
                    "task %d exhausted %d attempts (last: %s)",
                    task, state.failures, why,
                )
                return False
            delay = policy.backoff(
                state.failures, seed, salt=f"mp:{task}"
            )
            report.retries += 1
            report.retry_wall_seconds += delay
            retry_at[task] = time.monotonic() + delay
            with self.tracer.span(
                "mp-retry", task=task, failures=state.failures,
                backoff=delay, error=why,
            ):
                pass
            if trace_ctx is not None:
                now_wall = time.time()
                report.trace_spans.append(wire_span(
                    trace_ctx.to_wire(), "mp-retry", now_wall,
                    now_wall + delay, process=f"pid{os.getpid()}",
                    task=task, failures=state.failures,
                    backoff=round(delay, 6), error=why,
                ))
            logger.warning(
                "task %d failed (%s); retry %d/%d in %.3fs",
                task, why, state.failures, policy.max_attempts - 1, delay,
            )
            return True

        def rebuild_pool() -> None:
            nonlocal pool
            report.pool_rebuilds += 1
            with self.tracer.span(
                "mp-rebuild-pool", rebuilds=report.pool_rebuilds
            ):
                pool.shutdown(wait=False, cancel_futures=True)
                pool = self._new_pool(init_args)
            logger.warning(
                "worker pool broken; rebuilt (%d unfinished tasks)",
                len(unfinished),
            )

        try:
            for task in sorted(unfinished):
                submit(task)
            while unfinished:
                if cancel is not None:
                    # A tripped deadline abandons the gather: the
                    # finally clause tears the pool down without
                    # waiting, so in-flight worker attempts are merely
                    # orphaned, never joined.
                    cancel.check()
                now = time.monotonic()
                for task in [
                    task for task, when in retry_at.items() if when <= now
                ]:
                    del retry_at[task]
                    if task in unfinished:
                        submit(task)
                if not futures:
                    if retry_at:
                        time.sleep(
                            max(
                                _POLL_SECONDS,
                                min(retry_at.values()) - time.monotonic(),
                            )
                        )
                        continue
                    # Nothing running and nothing scheduled: every
                    # remaining task is out of budget.
                    return None
                done, _pending = wait(
                    list(futures),
                    timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                self._drain_telemetry(telemetry_queue, seen_workers)
                broken = False
                for future in done:
                    task, attempt, submitted, backup = futures.pop(future)
                    state = tasks[task]
                    state.inflight -= 1
                    if state.done:
                        continue  # late loser of a speculative race
                    try:
                        _task, rows, worker = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # injected or genuine
                        report.injected_failures += 1
                        self.telemetry.inc("mp.failures")
                        if state.inflight > 0:
                            continue  # a duplicate is still running
                        if not register_failure(task, repr(exc)):
                            return None
                    else:
                        state.done = True
                        state.rows = rows
                        counts = accepted.setdefault(
                            worker, dict.fromkeys(_TASK_COUNTERS, 0)
                        )
                        counts["tasks"] += 1
                        counts["rows"] += len(rows)
                        counts["blocks"] += state.bucket.num_blocks
                        unfinished.discard(task)
                        retry_at.pop(task, None)
                        if release is not None:
                            release(state.bucket)
                        if backup:
                            report.speculative_wins += 1
                        self.telemetry.mark("mp.rows", len(rows))
                        self.telemetry.observe(
                            "mp.task_seconds",
                            time.monotonic() - submitted,
                        )
                        self.telemetry.phase(
                            "mp-tasks",
                            len(tasks) - len(unfinished),
                            len(tasks),
                        )
                if broken:
                    # One dead worker poisons every in-flight future:
                    # drop them all, rebuild, and re-run what's left.
                    for future, (task, _a, _s, _b) in list(futures.items()):
                        tasks[task].inflight -= 1
                    futures.clear()
                    rebuild_pool()
                    for task in sorted(unfinished):
                        if tasks[task].inflight == 0 and task not in retry_at:
                            if not register_failure(task, "worker died"):
                                return None
                    continue
                now = time.monotonic()
                for future, (task, attempt, submitted, backup) in list(
                    futures.items()
                ):
                    state = tasks[task]
                    if state.done or task not in unfinished:
                        continue
                    age = now - submitted
                    if (
                        policy.task_timeout is not None
                        and age > policy.task_timeout
                    ):
                        # Abandon the attempt (workers can't be
                        # interrupted); its eventual result is ignored.
                        futures.pop(future)
                        state.inflight -= 1
                        report.timeouts += 1
                        if state.inflight > 0:
                            continue
                        if not register_failure(task, f"timeout {age:.1f}s"):
                            return None
                    elif (
                        policy.speculation
                        and not backup
                        and age > policy.straggler_timeout
                        and state.inflight == 1
                    ):
                        report.speculative_launched += 1
                        logger.info(
                            "task %d straggling (%.2fs); launching backup",
                            task, age,
                        )
                        submit(task, backup=True)
            return [tasks[task].rows for task in sorted(tasks)]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _new_pool(self, init_args: tuple) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.processes,
            initializer=_init_worker,
            initargs=init_args,
        )

    def _drain_telemetry(self, telemetry_queue, seen: set) -> None:
        """Merge every queued worker flush into the live registry.

        Runs inside the gather poll loop (so in-flight runs are
        inspectable) and once more after the pool drains.  Merge order
        does not matter: flushes are cumulative-with-seq, and
        :meth:`TelemetryRegistry.merge_worker` drops stale or
        duplicate deliveries.  Merged workers' names land in *seen*.
        """
        if telemetry_queue is None:
            return
        while True:
            try:
                delta = telemetry_queue.get_nowait()
            except queue_module.Empty:
                return
            except Exception:  # manager shutting down
                return
            collector = self._span_collector
            if collector is not None and isinstance(delta, dict):
                try:
                    collector.merge(
                        delta.get("worker", "?"), delta.get("spans", ())
                    )
                except (KeyError, TypeError, ValueError):
                    logger.debug("dropping malformed span delivery")
            try:
                self.telemetry.merge_worker(delta)
            except (KeyError, TypeError, ValueError):
                logger.warning("dropped malformed telemetry flush")
            else:
                seen.add(delta["worker"])

    def _record_metrics(self, report: MultiprocessReport) -> None:
        if self.metrics is None:
            return
        self.metrics.inc("mp.attempts", report.attempts)
        self.metrics.inc("mp.retries", report.retries)
        self.metrics.inc("mp.injected_failures", report.injected_failures)
        self.metrics.inc("mp.timeouts", report.timeouts)
        self.metrics.inc("mp.pool_rebuilds", report.pool_rebuilds)
        self.metrics.inc(
            "mp.speculative_launched", report.speculative_launched
        )
        self.metrics.inc("mp.speculative_wins", report.speculative_wins)
        self.metrics.set_gauge("mp.degraded", 1.0 if report.degraded else 0.0)
        self.metrics.set_gauge("mp.shipped_bytes", float(report.shipped_bytes))
        self.metrics.set_gauge("mp.shm_bytes", float(report.shm_bytes))
        self.metrics.set_gauge(
            "mp.transport_bytes_per_s", report.transport_bytes_per_second
        )
        self.metrics.set_gauge(
            "mp.columnar_transport",
            1.0 if report.transport in ("columnar", "shm") else 0.0,
        )
