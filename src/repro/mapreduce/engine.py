"""The MapReduce job engine.

Executes jobs for real -- mappers emit key/value pairs, pairs shuffle to
reducers by partitioned key, reducers group and reduce -- while charging
every byte and record to the simulated cluster's timing model.  One call
to :meth:`MapReduceJob.run` therefore yields both the exact job output
and a deterministic simulated response time with the paper's Figure 4(d)
phase breakdown.

The scatter/gather contract mirrors Hadoop's:

* ``mapper(record) -> iterable[(key, value)]`` -- may emit several pairs
  per record, which is what enables overlapped data redistribution;
* ``combiner(key, values) -> iterable[(key, value)]`` -- optional
  mapper-side pre-aggregation (the early-aggregation optimization);
* ``reducer(key, values, ctx) -> iterable[output]`` -- sees each group
  once, with pairs of equal key guaranteed to meet in the same task, and
  charges its internal sort/scan work through *ctx*;
* ``reduce_task(task_input, ctx) -> iterable[output]`` -- optional: sees
  a whole reduce task in one call instead, for reducers whose work spans
  groups (the composite evaluator reduces a task's overlapping blocks
  together).

A ``map_batch(records)`` hook may replace the mapper for a whole map
task.  Its :class:`MapBatchOutput` is either combiner output pairs or a
*block-grouped* map output, :class:`BlockGroups`: block keys, the
replica count of each block, and one flat array of row indices into the
task's records -- the pairs ``(keys[b], records[i])`` the mapper would
have emitted, never built as objects.  The engine then shuffles blocks,
not pairs: one ``partitioner`` call per block key, and per reducer the
blocks of every map task merged in key order into a
:class:`ReduceBlocks`.  Every charge is computed from the counts, with
each replica a copy of one input record (``record_bytes``):

* map output records and bytes: the replicas, ``KEY_BYTES +
  record_bytes`` each; map CPU per input record plus replica;
* shuffle, framework sort, spill and ``reduce_input_records``: a
  reducer's replica total and bytes, exactly what its pairs would be.

So a job's counters and simulated times are the same whichever form its
map tasks produce.  A block-grouped job needs a ``reduce_task``, which
receives the :class:`ReduceBlocks` (pair-form jobs pass it the
key-sorted ``(key, values)`` groups).  All map tasks of one job must
produce the same form.
"""

from __future__ import annotations

import dataclasses
import logging
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from repro.faults.scheduler import PhaseFaultStats
from repro.mapreduce.cluster import SimulatedCluster, makespan
from repro.mapreduce.counters import JobCounters, JobReport, PhaseBreakdown
from repro.mapreduce.dfs import DistributedFile
from repro.mapreduce.sorter import sort_group_pairs, spill_stats
from repro.mapreduce.timing import TimingModel
from repro.mapreduce.trace import schedule
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER

logger = logging.getLogger(__name__)

#: Serialized size charged per key in a key/value pair.
KEY_BYTES = 16

#: Extra per-record key width when the framework sorts on a composite
#: (distribution + local) key, Section III-D's combined-sort variant.
COMBINED_SORT_KEY_OVERHEAD = 1.1


class TaskContext:
    """Lets reduce functions charge their internal work to the clock."""

    def __init__(self, timing: TimingModel):
        self._timing = timing
        self.group_sort_seconds = 0.0
        self.eval_seconds = 0.0

    def charge_sort(self, records: int, nbytes: int) -> None:
        """Charge an in-group sort (the local algorithm's re-sort)."""
        self.group_sort_seconds += self._timing.sort(records, nbytes)

    def charge_eval(self, records: int) -> None:
        """Charge scan/evaluation CPU for *records* processed."""
        self.eval_seconds += self._timing.eval_cpu(records)


@dataclass
class JobResult:
    """Outputs plus the execution report of one job run."""

    outputs: list
    report: JobReport


@dataclass
class BlockGroups:
    """One map task's output grouped by block key (see module docstring).

    Attributes:
        keys: Block keys: equal-width tuples of plain ints.
        counts: Replicas per block, aligned with *keys*.
        rows: One flat array of indices into *source*, block-major
            (``counts[0]`` rows of ``keys[0]`` first), ascending within
            each block.
        source: What *rows* index: the map task's input records, or
            any columnar form of them the job's ``reduce_task`` reads.
    """

    keys: list
    counts: np.ndarray
    rows: np.ndarray
    source: Sequence


@dataclass
class ReduceBlocks:
    """One reduce task's block-grouped input, merged across map tasks.

    Attributes:
        keys: The task's distinct block keys in key order, one int64
            matrix row each.
        counts: Replicas per block, summed over every map task.
        inputs: Per map task, in input order, ``(source, slots, counts,
            rows)``: that task's blocks for this reducer as indices
            (*slots*) into *keys*, their replica counts, and their flat
            block-major rows into *source*.
    """

    keys: np.ndarray
    counts: np.ndarray
    inputs: list


@dataclass
class MapBatchOutput:
    """What a batched map-side fast path produced for one map task.

    Either *blocks* (block-grouped map output) or combiner output
    *pairs*.  The engine charges the simulated clock from these numbers
    exactly as it would have for the per-record path, so a batched
    implementation yields bit-identical counters, timings and results --
    only the wall-clock cost of producing them changes.

    Attributes:
        blocks: Block-grouped map output; each row is one emitted pair.
        pairs: Combiner output pairs to partition (when *blocks* is
            ``None``).
        emitted_pairs: How many pairs the per-record mapper would have
            emitted into the combiner (drives map CPU and combine
            accounting).
        combine_bytes: Serialized size of the combine input, charged as
            the mapper-side sort.
    """

    blocks: Optional[BlockGroups] = None
    pairs: list = dataclasses.field(default_factory=list)
    emitted_pairs: int = 0
    combine_bytes: int = 0


def stable_hash(key) -> int:
    """A process-independent hash (``hash()`` is randomized for strings)."""
    return zlib.crc32(repr(key).encode())


def _account_fault_stats(counters: JobCounters, stats: PhaseFaultStats) -> None:
    """Fold one phase's attempt accounting into the job counters."""
    counters.task_retries += stats.retries
    counters.extra["attempts"] += stats.attempts
    counters.extra["injected_failures"] += stats.failures
    counters.extra["crash_kills"] += stats.crash_kills
    counters.extra["stragglers"] += stats.stragglers
    counters.extra["speculated"] += stats.speculative_launched
    counters.extra["speculative_wins"] += stats.speculative_wins
    counters.extra["exhausted_tasks"] += stats.exhausted_tasks


def _add_attempt_spans(tracer, track: str, spans, *, sim_offset: float,
                       name: str) -> None:
    """Replay fault-aware attempt spans with their attempt/outcome tags."""
    for span in spans:
        tracer.record_span(
            f"{name} {span.task}.{span.attempt}",
            sim_offset + span.start,
            sim_offset + span.end,
            track=track,
            slot=span.slot,
            task=span.task,
            attempt=span.attempt,
            outcome=span.outcome,
        )


def default_partitioner(key, num_reducers: int) -> int:
    """Hash partitioning: the scheme the cost model's randomness assumes."""
    return stable_hash(key) % num_reducers


def partition_blocks(
    parts: np.ndarray, counts: np.ndarray, rows: np.ndarray, partitions: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group block-grouped map output by partition.

    *parts* holds each block's partition and *counts* its replica count;
    *rows* are the replicas, block-major.  Returns per partition
    ``(blocks, rows)``: the indices of its blocks and their rows, both
    in block order (empty arrays for a partition without blocks).
    """
    block_order = np.argsort(parts, kind="stable")
    block_bounds = np.searchsorted(
        parts[block_order], np.arange(partitions + 1)
    ).tolist()
    replica_parts = np.repeat(parts, counts)
    replica_order = np.argsort(replica_parts, kind="stable")
    replica_bounds = np.searchsorted(
        replica_parts[replica_order], np.arange(partitions + 1)
    ).tolist()
    return [
        (
            block_order[block_bounds[part]:block_bounds[part + 1]],
            rows[replica_order[replica_bounds[part]:replica_bounds[part + 1]]],
        )
        for part in range(partitions)
    ]


def _merge_blocks(inputs: list) -> ReduceBlocks:
    """Merge one reducer's ``(source, keys, counts, rows)`` map outputs."""
    keys = np.concatenate([key_matrix for _s, key_matrix, _c, _r in inputs])
    counts = np.concatenate([counts for _s, _k, counts, _r in inputs])
    # A vectorized unique over the key rows: one lexsort, then a
    # boundary scan (np.unique(axis=0) sorts a structured view, ~3x
    # slower here).
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    merged = np.bincount(inverse, weights=counts, minlength=int(first.sum()))
    bounds = np.cumsum([len(key_matrix) for _s, key_matrix, _c, _r in inputs])
    return ReduceBlocks(
        ordered[first],
        merged.astype(np.int64),
        [
            (source, slots, block_counts, rows)
            for (source, _keys, block_counts, rows), slots in zip(
                inputs, np.split(inverse, bounds[:-1])
            )
        ],
    )


@dataclass
class MapReduceJob:
    """A configured job; call :meth:`run` against a cluster and a file.

    Args:
        mapper: Map function (see module docstring).
        reducer: Per-group reduce function; may be ``None`` when
            *reduce_task* is given.
        num_reducers: Number of reduce tasks (the paper's ``m``).
        combiner: Optional mapper-side pre-aggregation.
        partitioner: ``(key, m) -> reducer index``; defaults to hashing.
        map_batch: Optional batched fast path for whole map tasks:
            ``(records) -> MapBatchOutput | None``.  When it returns an
            output, the per-record ``mapper`` (and ``combiner``) are
            bypassed for that task; returning ``None`` falls back to the
            per-record path.
        reduce_task: Optional task-level reduce:
            ``(task_input, ctx) -> iterable[output]`` over one reducer's
            :class:`ReduceBlocks` (block-grouped jobs, which need it) or
            key-sorted ``(key, values)`` groups (pair jobs).  When set,
            it replaces the per-group ``reducer`` calls.
        record_bytes: Serialized size of one map *input* record.
        value_bytes: Size function for map output values; defaults to
            ``record_bytes`` (values are copies of input records in the
            paper's scheme).
        combined_sort: Model Section III-D's combined framework/local
            sort: group re-sorts become free, the framework sort pays a
            slightly wider key.
        name: Label used in reports.
    """

    mapper: Callable
    reducer: Optional[Callable]
    num_reducers: int
    combiner: Optional[Callable] = None
    partitioner: Callable = default_partitioner
    map_batch: Optional[Callable] = None
    reduce_task: Optional[Callable] = None
    record_bytes: int = 64
    value_bytes: Optional[Callable] = None
    combined_sort: bool = False
    name: str = "job"

    def __post_init__(self):
        if self.num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        if self.reducer is None and self.reduce_task is None:
            raise ValueError("a job needs a reducer or a reduce_task")

    # -- map side ----------------------------------------------------------------

    def _run_map_task(
        self,
        records: Sequence,
        remote: bool,
        timing: TimingModel,
        counters: JobCounters,
        buckets: list[list],
        block_buckets: list[list],
    ) -> float:
        value_size = self.value_bytes or (lambda _value: self.record_bytes)
        batch_output = (
            self.map_batch(records) if self.map_batch is not None else None
        )
        counters.map_input_records += len(records)
        combine_seconds = 0.0
        if batch_output is not None and batch_output.blocks is not None:
            emitted_pairs = self._shuffle_blocks(
                batch_output.blocks, counters, block_buckets
            )
            pairs = []
        elif batch_output is not None:
            # Batched combiner output: the implementation reports the
            # per-record-equivalent counts, so the charges below mirror
            # the per-record branch exactly.
            pairs = batch_output.pairs
            emitted_pairs = batch_output.emitted_pairs
            if emitted_pairs:
                counters.combine_input_records += emitted_pairs
                combine_seconds = timing.sort(
                    emitted_pairs, batch_output.combine_bytes
                )
                counters.combine_output_records += len(pairs)
        else:
            pairs = []
            for record in records:
                pairs.extend(self.mapper(record))
            emitted_pairs = len(pairs)

            if self.combiner is not None and pairs:
                counters.combine_input_records += len(pairs)
                pair_bytes = sum(
                    KEY_BYTES + value_size(v) for _k, v in pairs
                )
                # Mapper-side grouping costs a sort (or hash) of the map
                # output -- the overhead Figure 4(e) shows dominating at
                # fine granularities.
                combine_seconds = timing.sort(len(pairs), pair_bytes)
                combined = []
                for key, values in sort_group_pairs(pairs):
                    combined.extend(self.combiner(key, values))
                pairs = combined
                counters.combine_output_records += len(pairs)

        out_bytes = 0
        for key, value in pairs:
            index = self.partitioner(key, self.num_reducers)
            buckets[index].append((key, value))
            out_bytes += KEY_BYTES + value_size(value)
        counters.map_output_records += len(pairs)
        counters.map_output_bytes += out_bytes

        read_bytes = len(records) * self.record_bytes
        # Emission CPU is paid per pair the map function produced; the
        # combiner may shrink `pairs` afterwards but the work happened.
        return (
            timing.disk_read(read_bytes, remote=remote)
            + timing.map_cpu(len(records) + emitted_pairs)
            + combine_seconds
        )

    def _shuffle_blocks(
        self,
        groups: BlockGroups,
        counters: JobCounters,
        block_buckets: list[list],
    ) -> int:
        """Partition one map task's blocks; returns its replica count."""
        if self.reduce_task is None:
            raise ValueError(
                f"job {self.name!r}: block-grouped map output needs a "
                "reduce_task"
            )
        if not groups.keys:
            return 0
        parts = np.fromiter(
            map(self.partitioner, groups.keys, repeat(self.num_reducers)),
            dtype=np.int64,
            count=len(groups.keys),
        )
        key_matrix = np.array(groups.keys, dtype=np.int64).reshape(
            len(groups.keys), -1
        )
        shuffled = partition_blocks(
            parts, groups.counts, groups.rows, self.num_reducers
        )
        for index, (blocks, rows) in enumerate(shuffled):
            if len(blocks):
                block_buckets[index].append(
                    (groups.source, key_matrix[blocks], groups.counts[blocks],
                     rows)
                )
        replicas = len(groups.rows)
        counters.map_output_records += replicas
        counters.map_output_bytes += replicas * (KEY_BYTES + self.record_bytes)
        return replicas

    # -- reduce side --------------------------------------------------------------

    def _run_reduce_task(
        self,
        pairs: list,
        blocks: list,
        cluster: SimulatedCluster,
        counters: JobCounters,
        outputs: list,
    ) -> tuple[float, float, float, float, int]:
        """Execute one reducer; returns its phase durations and load."""
        timing = cluster.timing
        if blocks and pairs:
            raise ValueError(
                f"job {self.name!r} mixed block-grouped and pair map output"
            )
        if blocks:
            task_input = _merge_blocks(blocks)
            load = int(task_input.counts.sum())
            in_bytes = load * (KEY_BYTES + self.record_bytes)
        else:
            value_size = self.value_bytes or (
                lambda _value: self.record_bytes
            )
            load = len(pairs)
            in_bytes = sum(KEY_BYTES + value_size(v) for _k, v in pairs)
        shuffle_seconds = timing.network_transfer(in_bytes)

        sort_stats = spill_stats(
            load,
            record_bytes=max(1, in_bytes // max(1, load)),
            memory_bytes=cluster.config.memory_per_task,
        )
        counters.spilled_records += sort_stats.spilled_records
        counters.sort_passes += sort_stats.passes
        fsort_bytes = in_bytes
        if self.combined_sort:
            fsort_bytes = int(in_bytes * COMBINED_SORT_KEY_OVERHEAD)
        fsort_seconds = timing.sort(load, fsort_bytes)

        context = TaskContext(timing)
        counters.reduce_input_records += load
        if blocks:
            outputs.extend(self.reduce_task(task_input, context))
        elif pairs:
            groups = sort_group_pairs(pairs)
            if self.reduce_task is not None:
                outputs.extend(self.reduce_task(groups, context))
            else:
                for key, values in groups:
                    produced = self.reducer(key, values, context)
                    if produced:
                        outputs.extend(produced)
        if self.combined_sort:
            # The local re-sort is subsumed by the composite framework key.
            context.group_sort_seconds = 0.0
        return (
            shuffle_seconds,
            fsort_seconds,
            context.group_sort_seconds,
            context.eval_seconds,
            load,
        )

    # -- whole job -----------------------------------------------------------------

    def run(
        self,
        input_file: DistributedFile,
        cluster: SimulatedCluster,
        tracer=None,
        sim_origin: float = 0.0,
        telemetry=None,
    ) -> JobResult:
        """Execute the job and return outputs plus the execution report.

        *tracer* (a :class:`repro.obs.Tracer`, disabled by default)
        receives the span tree of the run: a ``job`` span holding the
        ``map`` phase, per-slot task placements, and the ``reduce``
        phase with its ``shuffle``/``sort``/``group-sort``/``evaluate``
        children on the simulated clock.  *sim_origin* offsets every
        simulated timestamp, letting multi-job evaluations lay jobs
        end to end on one timeline.  *telemetry* (a
        :class:`repro.obs.telemetry.TelemetryRegistry`, disabled by
        default) receives live phase progress and row/byte rates while
        the job runs.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        timing = cluster.timing
        counters = JobCounters()
        chaos = cluster.fault_plan is not None
        failed = (
            cluster.machines_dead_at(sim_origin)
            if chaos
            else cluster.failed_machines
        )
        buckets: list[list] = [[] for _ in range(self.num_reducers)]
        block_buckets: list[list] = [[] for _ in range(self.num_reducers)]

        with tracer.span("job", job=self.name) as job_span:
            with tracer.span("map") as map_span:
                map_durations = []
                telemetry.phase("map", 0, len(input_file.blocks))
                shipped_bytes = 0
                for block in input_file.blocks:
                    records, served_by = input_file.read_block(block, failed)
                    remote = served_by != block.replicas[0]
                    if remote:
                        counters.remote_block_reads += 1
                    map_durations.append(
                        self._run_map_task(
                            records, remote, timing, counters, buckets,
                            block_buckets,
                        )
                    )
                    telemetry.phase(
                        "map", len(map_durations), len(input_file.blocks)
                    )
                    telemetry.mark("map.rows", len(records))
                    telemetry.mark(
                        "shuffle.bytes",
                        counters.map_output_bytes - shipped_bytes,
                    )
                    shipped_bytes = counters.map_output_bytes
                counters.map_tasks = len(map_durations)
                map_stats = None
                if chaos:
                    # Fault-aware scheduling: the plan injects crashes,
                    # failures and stragglers per attempt; reruns charge
                    # their actual cost.
                    map_makespan, map_trace, map_stats = (
                        cluster.schedule_phase(
                            "map", map_durations, origin=sim_origin
                        )
                    )
                    _account_fault_stats(counters, map_stats)
                    map_stragglers = map_stats.stragglers
                else:
                    map_factors, map_stragglers, map_speculated = (
                        cluster.straggler_factors(
                            len(map_durations), f"{self.name}:map"
                        )
                    )
                    map_durations = [
                        duration * factor
                        for duration, factor in zip(map_durations, map_factors)
                    ]
                    counters.extra["stragglers"] += map_stragglers
                    counters.extra["speculated"] += map_speculated
                    map_makespan, map_trace = schedule(
                        map_durations, cluster.map_slots
                    )
                map_span.set_sim(sim_origin, sim_origin + map_makespan)
                map_span.set(
                    tasks=len(map_durations),
                    input_records=counters.map_input_records,
                    output_records=counters.map_output_records,
                    stragglers=map_stragglers,
                )
            if chaos:
                _add_attempt_spans(
                    tracer, "map", map_trace, sim_offset=sim_origin,
                    name="map",
                )
            else:
                tracer.add_task_spans(
                    "map", map_trace, sim_offset=sim_origin, name="map"
                )

            with tracer.span("reduce") as reduce_span:
                outputs: list = []
                shuffle, fsort, gsort, evaluate, loads = [], [], [], [], []
                telemetry.phase("reduce", 0, len(buckets))
                for index, pairs in enumerate(buckets):
                    counters.reduce_tasks += 1
                    durations = self._run_reduce_task(
                        pairs, block_buckets[index], cluster, counters,
                        outputs,
                    )
                    telemetry.phase("reduce", index + 1, len(buckets))
                    telemetry.mark("reduce.rows", durations[4])
                    # Under chaos, dispatch-to-a-dead-machine is priced
                    # by real attempt accounting, not the flat 2x.
                    retry = (
                        2.0
                        if not chaos and cluster.reducer_retry_needed(index)
                        else 1.0
                    )
                    if retry > 1.0:
                        counters.task_retries += 1
                    shuffle.append(durations[0] * retry)
                    fsort.append(durations[1] * retry)
                    gsort.append(durations[2] * retry)
                    evaluate.append(durations[3] * retry)
                    loads.append(durations[4])
                counters.shuffle_bytes = counters.map_output_bytes
                counters.reduce_output_records = len(outputs)

                reduce_stats = None
                if chaos:
                    # A lost shuffle partition re-fetches that reducer's
                    # map output once: its shuffle cost is paid twice.
                    for index in range(self.num_reducers):
                        if cluster.fault_plan.partition_lost(index):
                            shuffle[index] *= 2.0
                            counters.extra["shuffle_refetches"] += 1
                    reduce_stragglers = 0
                else:
                    reduce_factors, reduce_stragglers, reduce_speculated = (
                        cluster.straggler_factors(
                            self.num_reducers, f"{self.name}:reduce"
                        )
                    )
                    counters.extra["stragglers"] += reduce_stragglers
                    counters.extra["speculated"] += reduce_speculated
                    for stage in (shuffle, fsort, gsort, evaluate):
                        for index, factor in enumerate(reduce_factors):
                            stage[index] *= factor

                reduce_base = sim_origin + map_makespan
                slots = cluster.reduce_slots
                if chaos:
                    # Machines crashed during the map phase contribute no
                    # reduce slots; the stage-shape makespans below use
                    # what is actually alive when the reduce starts.
                    slots = max(
                        1,
                        len(cluster.live_machines_at(reduce_base))
                        * cluster.config.reduce_slots_per_machine,
                    )
                stages = [shuffle, fsort, gsort, evaluate]
                cumulative = [0.0] * (len(stages) + 1)
                for depth in range(1, len(stages) + 1):
                    partial = [
                        sum(stage[j] for stage in stages[:depth])
                        for j in range(self.num_reducers)
                    ]
                    cumulative[depth] = makespan(partial, slots)
                reducer_times = [
                    shuffle[j] + fsort[j] + gsort[j] + evaluate[j]
                    for j in range(self.num_reducers)
                ]
                if chaos:
                    reduce_makespan, reduce_trace, reduce_stats = (
                        cluster.schedule_phase(
                            "reduce", reducer_times, origin=reduce_base
                        )
                    )
                    _account_fault_stats(counters, reduce_stats)
                    reduce_stragglers = reduce_stats.stragglers
                    # Reruns stretch the phase; scale the per-stage
                    # breakdown proportionally so it still sums to the
                    # fault-aware makespan.
                    if cumulative[-1] > 0:
                        factor = reduce_makespan / cumulative[-1]
                        cumulative = [value * factor for value in cumulative]
                else:
                    reduce_makespan = cumulative[4]
                    _finish, reduce_trace = schedule(reducer_times, slots)
                breakdown = PhaseBreakdown(
                    map=map_makespan,
                    shuffle=cumulative[1] - cumulative[0],
                    framework_sort=cumulative[2] - cumulative[1],
                    group_sort=cumulative[3] - cumulative[2],
                    evaluate=cumulative[4] - cumulative[3],
                )

                # The reduce phases are derived makespans, not wall-clock
                # intervals: record them on the simulated timeline only.
                for phase_name, depth in (
                    ("shuffle", 1),
                    ("sort", 2),
                    ("group-sort", 3),
                    ("evaluate", 4),
                ):
                    tracer.record_span(
                        phase_name,
                        reduce_base + cumulative[depth - 1],
                        reduce_base + cumulative[depth],
                        tasks=self.num_reducers,
                    )
                reduce_span.set_sim(reduce_base, reduce_base + reduce_makespan)
                reduce_span.set(
                    tasks=self.num_reducers,
                    input_records=counters.reduce_input_records,
                    output_records=counters.reduce_output_records,
                    stragglers=reduce_stragglers,
                )
            if chaos:
                _add_attempt_spans(
                    tracer, "reduce", reduce_trace, sim_offset=reduce_base,
                    name="reduce",
                )
            else:
                tracer.add_task_spans(
                    "reduce", reduce_trace, sim_offset=reduce_base,
                    name="reduce",
                )

            faults: dict = {}
            if chaos:
                faults = {
                    "plan": cluster.fault_plan.to_dict(),
                    "policy": dataclasses.asdict(cluster.retry_policy),
                    "map": map_stats.to_dict(),
                    "reduce": reduce_stats.to_dict(),
                }
            report = JobReport(
                name=self.name,
                counters=counters,
                breakdown=breakdown,
                map_makespan=map_makespan,
                reduce_makespan=reduce_makespan,
                reducer_loads=loads,
                reducer_times=reducer_times,
                map_trace=map_trace,
                reduce_trace=reduce_trace,
                faults=faults,
            )
            job_span.set_sim(sim_origin, sim_origin + report.response_time)
            job_span.set(
                max_reducer_load=report.max_reducer_load,
                load_imbalance=report.load_imbalance,
            )
            if chaos and (
                counters.task_retries
                or counters.extra["speculated"]
                or counters.extra["crash_kills"]
            ):
                tracer.record_span(
                    "fault-recovery",
                    sim_origin,
                    sim_origin + report.response_time,
                    retries=counters.task_retries,
                    crash_kills=counters.extra["crash_kills"],
                    injected_failures=counters.extra["injected_failures"],
                    speculative=counters.extra["speculated"],
                    exhausted=counters.extra["exhausted_tasks"],
                )
        logger.debug("job %s finished: %s", self.name, report.summary())
        return JobResult(outputs=outputs, report=report)
