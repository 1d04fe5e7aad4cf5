"""The one-round parallel evaluator (Section III).

One MapReduce job evaluates the whole composite query:

1. the workflow is split into weakly connected components (independent
   measure families need not share a key) and the optimizer picks a
   feasible distribution key and clustering factor per component;
2. mappers replicate each record into every block whose extended range
   needs it, once per component (overlapping redistribution).  A map
   task's output stays block-grouped -- block keys, replica counts and
   one flat row-index array (:class:`~repro.mapreduce.engine.
   BlockGroups`), routed by the vectorized batch router or, for records
   no integer batch holds, record by record into the same shape -- and
   the engine shuffles whole blocks, never one pair per replica;
3. each reduce task runs the local sort/scan algorithm once per
   component over its blocks' records, each record once however many of
   the task's blocks it was copied into, and keeps the rows whose home
   block the task holds (see :mod:`repro.parallel.reduce`), so
4. the final answer is the plain union of local results -- no combination
   step, and any duplicate is a hard error.

With ``early_aggregation`` enabled (and every basic measure distributive
or algebraic), mappers pre-aggregate their share of each block into
partial accumulator states and ship those instead of raw records
(Section III-D); reducers merge states and evaluate composites on top.
Partial aggregation folds values in a different order than the
centralized scan, so float-valued aggregates may differ from the
non-early run by floating-point rounding; integer aggregates stay
bit-identical.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from repro import kernels
from repro.cube.batches import RecordBatch
from repro.cube.records import Record, estimated_record_bytes
from repro.local.measure_table import MeasureTable, ResultSet
from repro.local.sortscan import LocalStats
from repro.local.vectorized import (
    batched_partial_states,
    vectorized_supports,
)
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import DistributedFile
from repro.mapreduce.engine import (
    KEY_BYTES,
    BlockGroups,
    MapBatchOutput,
    MapReduceJob,
    ReduceBlocks,
)
from repro.optimizer.optimizer import (
    Optimizer,
    OptimizerConfig,
    Plan,
    QueryPlan,
)
from repro.obs.calibration import CalibrationReport
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.skew import KeyCache
from repro.query.workflow import Workflow, connected_components
from repro.parallel.cancel import CancellationToken
from repro.parallel.reduce import TaskReducer, route_records
from repro.parallel.report import ColumnarStats, ParallelResult

#: Tag marking early-aggregation partial states in the value stream.
_PARTIAL = "__partial__"

#: Charged size of one partial accumulator state: the region coordinates
#: plus a fixed-size accumulator come out at about one record's width.
_PARTIAL_STATE_BYTES = 64


logger = logging.getLogger(__name__)


class DuplicateResultError(RuntimeError):
    """Two blocks output the same measure region: the scheme is broken."""


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of the parallel evaluation.

    *partitioner* assigns blocks to reducers: ``"hash"`` (the random
    assignment the paper's cost model assumes) or ``"round_robin"``
    (consecutive blocks to consecutive reducers -- better balanced when
    block sizes are uniform, which the hash/model view treats as the
    pessimistic random case).

    *columnar* selects the batched map side (vectorized block routing
    and, with early aggregation, the reduceat-based combiner).  The
    default ``None`` auto-enables it when every basic measure has a
    vectorized implementation; ``True``/``False`` force it on or off.
    Even when on, map tasks whose records cannot be represented as an
    integer batch fall back to the scalar path per task, so results are
    identical in every mode.

    *kernels* is the compiled-kernel tri-state (see
    :mod:`repro.kernels`): ``"auto"`` uses the numba backend when
    installed, ``"on"`` requires it, ``"off"`` forces the NumPy
    fallback.  Both backends are bit-identical; the knob only trades
    speed.  ``None`` leaves the process-wide mode untouched.
    """

    num_reducers: Optional[int] = None
    early_aggregation: bool = False
    combined_sort: bool = False
    partitioner: str = "hash"
    columnar: Optional[bool] = None
    kernels: Optional[str] = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.partitioner not in ("hash", "round_robin"):
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; choose "
                "'hash' or 'round_robin'"
            )
        if self.kernels is not None and self.kernels not in (
            kernels.KERNEL_MODES
        ):
            raise ValueError(
                f"unknown kernels mode {self.kernels!r}; choose one of "
                f"{kernels.KERNEL_MODES}"
            )
        if self.partitioner != "hash" and self.optimizer.use_sampling:
            # Simulated dispatch predicts loads under hash assignment;
            # letting it pick a plan that will execute under a different
            # partitioner would measure the wrong thing.
            raise ValueError(
                "sampling-based planning assumes the hash partitioner; "
                "use partitioner='hash' together with sampling"
            )


class ParallelEvaluator:
    """Evaluates workflows on a simulated cluster, one job per query.

    *tracer* (a :class:`repro.obs.Tracer`) records the evaluation's
    span tree -- optimize, map, shuffle, sort, evaluate, per-slot task
    placements -- and *metrics* (a
    :class:`repro.obs.MetricsRegistry`) receives job counters, reducer
    loads, and the optimizer's predicted-versus-actual max load.
    *telemetry* (a :class:`repro.obs.telemetry.TelemetryRegistry`)
    receives live phase progress, throughput rates and streaming load
    distributions while the job runs.  All default to disabled no-ops.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: ExecutionConfig | None = None,
        tracer=None,
        metrics=None,
        telemetry=None,
    ):
        self.cluster = cluster
        self.config = config or ExecutionConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        self.optimizer = Optimizer(self.config.optimizer, tracer=self.tracer)

    # -- input handling -------------------------------------------------------------

    def _resolve_input(
        self, data: Sequence[Record] | DistributedFile
    ) -> DistributedFile:
        if isinstance(data, DistributedFile):
            return data
        return self.cluster.dfs.write("query-input", list(data))

    def _resolve_plan(
        self,
        workflow: Workflow,
        input_file: DistributedFile,
        plan: QueryPlan | Plan | None,
        key_cache: KeyCache | None,
    ) -> QueryPlan:
        components = connected_components(workflow)
        if isinstance(plan, QueryPlan):
            # A pre-built plan may group several weakly-connected
            # components under one shared subplan (batch co-evaluation),
            # so validate measure coverage rather than component count.
            plan_names = sorted(
                name
                for subplan_workflow, _plan in plan.subplans
                for name in subplan_workflow.names
            )
            if plan_names != sorted(workflow.names):
                raise ValueError(
                    f"plan covers measures {plan_names}, query has "
                    f"{sorted(workflow.names)}"
                )
            return plan
        if isinstance(plan, Plan):
            if len(components) != 1:
                raise ValueError(
                    "a bare Plan only fits a single-component query; "
                    "pass a QueryPlan"
                )
            return QueryPlan([(components[0], plan)])
        num_reducers = self.config.num_reducers or self.cluster.reduce_slots
        sample_source = None
        if self.config.optimizer.use_sampling:
            from repro.optimizer.skew import sample_file_records

            # Draw only the sample, not a full copy of the dataset; the
            # optimizer samples from this pre-drawn pool.
            sample_source = sample_file_records(
                input_file,
                self.config.optimizer.sample_size,
                self.config.optimizer.sample_seed,
            )
        return self.optimizer.plan_query(
            workflow,
            n_records=input_file.num_records,
            num_reducers=num_reducers,
            records=sample_source,
            key_cache=key_cache,
        )

    # -- map/reduce closures -----------------------------------------------------------

    @staticmethod
    def _make_mapper(plan: QueryPlan):
        """Record -> tagged block keys, one family per component."""
        component_mappers = [
            (index, subplan.scheme.make_mapper())
            for index, (_wf, subplan) in enumerate(plan.subplans)
        ]

        def mapper(record: Record):
            pairs = []
            for index, blocks_of in component_mappers:
                pairs.extend(
                    ((index,) + block_key, record)
                    for block_key in blocks_of(record)
                )
            return pairs

        return mapper

    @staticmethod
    def _component_basics(component: Workflow):
        schema = component.schema
        return [
            (
                local_index,
                measure,
                measure.granularity.coordinate_mapper(),
                schema.field_index(measure.field),
            )
            for local_index, measure in enumerate(component.basic_measures())
        ]

    def _make_combiner(self, plan: QueryPlan):
        """Early aggregation: records -> per-region partial states."""
        basics_by_component = [
            self._component_basics(component)
            for component, _plan in plan.subplans
        ]

        def combiner(block_key, records):
            basics = basics_by_component[block_key[0]]
            states: dict[tuple[int, tuple], object] = {}
            for record in records:
                for local_index, measure, mapper, field_index in basics:
                    slot = (local_index, mapper(record))
                    acc = states.get(slot)
                    if acc is None:
                        acc = measure.aggregate.create()
                    states[slot] = measure.aggregate.add(
                        acc, record[field_index]
                    )
            for (local_index, coords), state in states.items():
                yield (block_key, (_PARTIAL, local_index, coords, state))

        return combiner

    def _make_block_map(self, plan: QueryPlan, stats: ColumnarStats | None):
        """The engine's ``map_batch`` hook without early aggregation.

        Every task comes back block-grouped (:class:`BlockGroups`): with
        *stats* (columnar mode) each component's vectorized batch router
        routes the task's :class:`RecordBatch`, and an integer batch is
        the rows' source; tasks no routable batch can hold, and every
        task without *stats*, go record by record through the scheme's
        mapper into the same shape.
        """
        schema = plan.subplans[0][0].schema
        schemes = [subplan.scheme for _wf, subplan in plan.subplans]
        routers = (
            [scheme.make_batch_router() for scheme in schemes]
            if stats is not None
            else []
        )
        mappers = [scheme.make_mapper() for scheme in schemes]

        def map_batch(records) -> MapBatchOutput:
            batch = _routable_batch(schema, records, stats)
            source = records
            if batch is not None:
                routed = [
                    router(batch, (index,), flat=True)
                    for index, router in enumerate(routers)
                ]
                if batch.matrix is not None:
                    source = batch
            else:
                routed = [
                    route_records(records, blocks_of, (index,))
                    for index, blocks_of in enumerate(mappers)
                ]
            return MapBatchOutput(
                blocks=BlockGroups(
                    keys=[key for keys, _rows, _counts in routed for key in keys],
                    counts=np.concatenate(
                        [counts for _keys, _rows, counts in routed]
                    ),
                    rows=np.concatenate([rows for _keys, rows, _c in routed]),
                    source=source,
                )
            )

        return map_batch

    def _make_map_batch(
        self,
        plan: QueryPlan,
        record_bytes: int,
        stats: ColumnarStats,
    ):
        """Columnar early aggregation: whole tasks routed and combined.

        Returns the engine's ``map_batch`` hook.  Per task it builds one
        :class:`RecordBatch`, routes it through every component's
        vectorized block router and produces the partial states with
        grouped reduceat aggregation, falling back to the scalar
        combiner for components it cannot compute bit-identically.
        Tasks whose records are not integer-columnar return ``None``,
        which the engine answers with the per-record mapper and
        combiner.
        """
        schema = plan.subplans[0][0].schema
        routers = [
            subplan.scheme.make_batch_router()
            for _wf, subplan in plan.subplans
        ]
        components = [component for component, _plan in plan.subplans]
        scalar_combiner = self._make_combiner(plan)

        def map_batch(records) -> MapBatchOutput | None:
            batch = _routable_batch(schema, records, stats)
            if batch is None:
                return None
            pairs: list = []
            emitted = 0
            for index, router in enumerate(routers):
                raw_keys, raw_rows, varying = router(
                    batch, (index,), raw=True
                )
                emitted += len(raw_rows)
                if not len(raw_rows):
                    continue
                fused = batched_partial_states(
                    components[index], batch.matrix, raw_keys, raw_rows,
                    varying,
                )
                if fused is None:
                    # Scalar-combiner fallback (unsupported aggregate or
                    # overflow risk): re-route grouped, per-block lists.
                    full_keys, flat_rows, counts = router(
                        batch, (index,), flat=True
                    )
                    stats.scalar_groups += len(full_keys)
                    offsets = np.append(0, np.cumsum(counts)).tolist()
                    row_list = flat_rows.tolist()
                    for block_id, full_key in enumerate(full_keys):
                        members = [
                            records[i]
                            for i in row_list[
                                offsets[block_id]:offsets[block_id + 1]
                            ]
                        ]
                        pairs.extend(scalar_combiner(full_key, members))
                else:
                    full_keys, partials = fused
                    stats.vector_groups += len(full_keys)
                    # Pure C-level assembly: zip() builds the value and
                    # pair tuples, map() resolves block keys -- no
                    # bytecode runs per partial.
                    for local_index, ids, regions, states in partials:
                        pairs.extend(
                            zip(
                                map(full_keys.__getitem__, ids),
                                zip(
                                    repeat(_PARTIAL),
                                    repeat(local_index),
                                    regions,
                                    states,
                                ),
                            )
                        )
            return MapBatchOutput(
                pairs=pairs,
                emitted_pairs=emitted,
                combine_bytes=emitted * (KEY_BYTES + record_bytes),
            )

        return map_batch

    def _make_partitioner(self, plan: QueryPlan):
        """Block -> reducer assignment per ExecutionConfig.partitioner."""
        if self.config.partitioner == "hash":
            from repro.mapreduce.engine import default_partitioner

            return default_partitioner

        # Round-robin over the per-component linearized block grids;
        # components are offset so their blocks interleave fairly.
        schemes = [subplan.scheme for _wf, subplan in plan.subplans]
        offsets = []
        total = 0
        for scheme in schemes:
            offsets.append(total)
            total += scheme.num_blocks()

        def partitioner(block_key, num_reducers: int) -> int:
            component_index = block_key[0]
            scheme = schemes[component_index]
            linear = scheme.linear_index(block_key[1:])
            return (offsets[component_index] + linear) % num_reducers

        return partitioner

    def _make_reduce_task(
        self,
        plan: QueryPlan,
        record_bytes: int,
        local_stats: LocalStats,
        served_blocks: list,
    ):
        """The engine's ``reduce_task`` hook: one evaluation per
        component per reduce task (see :mod:`repro.parallel.reduce`).

        The simulated clock is still charged per block, in key order:
        the group sort on the block's values, evaluation on its values
        plus the rows it owns.  *served_blocks* (one counter) totals the
        blocks the tasks held.
        """
        reducer = TaskReducer(
            [
                (component, subplan.scheme)
                for component, subplan in plan.subplans
            ],
            tracer=self.tracer,
        )
        basics_by_component = [
            list(component.basic_measures())
            for component, _plan in plan.subplans
        ]
        schema = plan.subplans[0][0].schema

        def charge(ctx, counts, owned_rows, value_bytes) -> None:
            for count, owns in zip(counts, owned_rows.tolist()):
                ctx.charge_sort(count, count * value_bytes)
                ctx.charge_eval(count + owns)

        def reduce_blocks(task: ReduceBlocks, ctx):
            served_blocks[0] += len(task.keys)
            components = task.keys[:, 0]
            inputs = [
                (source, np.repeat(components[slots], counts), rows)
                for source, slots, counts, rows in task.inputs
            ]
            outputs: list = []
            for index in np.unique(components).tolist():
                mine = components == index
                rows_out, owned_rows = reducer.reduce(
                    index, task.keys[mine, 1:],
                    records=_component_input(schema, inputs, index),
                    stats=local_stats,
                )
                charge(ctx, task.counts[mine].tolist(), owned_rows,
                       record_bytes)
                outputs.extend(rows_out)
            return outputs

        def reduce_partials(groups, ctx):
            served_blocks[0] += len(groups)
            by_component: dict[int, list] = defaultdict(list)
            for block_key, values in groups:
                by_component[block_key[0]].append((block_key, values))
            outputs: list = []
            for index, blocks in by_component.items():
                owned = np.array(
                    [block_key[1:] for block_key, _values in blocks],
                    dtype=np.int64,
                )
                # Every block holding a region receives all of its
                # partial states, so one block's copies suffice.
                tables = _merge_partials(
                    basics_by_component[index],
                    _first_block_partials(blocks),
                )
                rows, owned_rows = reducer.reduce(
                    index, owned, basic_tables=tables, stats=local_stats
                )
                charge(ctx, [len(values) for _key, values in blocks],
                       owned_rows, _PARTIAL_STATE_BYTES)
                outputs.extend(rows)
            return outputs

        if self.config.early_aggregation:
            return reduce_partials
        return reduce_blocks

    # -- whole query ----------------------------------------------------------------------

    def evaluate(
        self,
        workflow: Workflow,
        data: Sequence[Record] | DistributedFile,
        plan: QueryPlan | Plan | None = None,
        key_cache: KeyCache | None = None,
        cancel: CancellationToken | None = None,
    ) -> ParallelResult:
        """Evaluate *workflow* over *data*; returns results and the trace.

        A pre-built *plan* bypasses the optimizer (used by benchmarks to
        sweep clustering factors); otherwise the optimizer plans with the
        configured strategy, consulting *key_cache* when given.

        *cancel* (a :class:`repro.parallel.cancel.CancellationToken`)
        makes the evaluation cooperative: the token is checked before
        planning, per map task, and per reduce task, and a tripped
        token unwinds the run with
        :class:`~repro.parallel.cancel.DeadlineExceededError`.
        """
        if self.config.early_aggregation and not (
            workflow.supports_early_aggregation()
        ):
            raise ValueError(
                "this workflow does not support early aggregation: every "
                "basic measure must be distributive or algebraic, and "
                "every parent/child-only composite needs a finer basic "
                "measure in its component to anchor its regions"
            )

        if cancel is not None:
            cancel.check()
        if self.config.kernels is not None:
            # The kernels mode is process-wide (worker dispatch tables
            # are module state); restore the caller's mode on exit so
            # one evaluator's knob cannot leak into another's run.
            previous_mode = kernels.kernels_mode()
            kernels.set_kernels_mode(self.config.kernels)
            try:
                return self._evaluate(workflow, data, plan, key_cache, cancel)
            finally:
                kernels.set_kernels_mode(previous_mode)
        return self._evaluate(workflow, data, plan, key_cache, cancel)

    def _evaluate(
        self,
        workflow: Workflow,
        data: Sequence[Record] | DistributedFile,
        plan: QueryPlan | Plan | None,
        key_cache: KeyCache | None,
        cancel: CancellationToken | None,
    ) -> ParallelResult:
        """The evaluation body; runs under the resolved kernels mode."""
        with self.tracer.span(
            "evaluate-query", measures=len(workflow)
        ) as root:
            input_file = self._resolve_input(data)
            with self.tracer.span("optimize") as optimize_span:
                query_plan = self._resolve_plan(
                    workflow, input_file, plan, key_cache
                )
                optimize_span.set(
                    components=len(query_plan.subplans),
                    predicted_max_load=query_plan.predicted_max_load,
                    plan=query_plan.describe(),
                )

            record_bytes = estimated_record_bytes(workflow.schema)
            local_stats = LocalStats()
            served_blocks = [0]
            early = self.config.early_aggregation
            use_columnar = self.config.columnar
            if use_columnar is None:
                use_columnar = vectorized_supports(workflow)
            columnar_stats = (
                ColumnarStats(kernels_backend=kernels.kernels_backend())
                if use_columnar
                else None
            )
            mapper = self._make_mapper(query_plan)
            reduce_task = self._make_reduce_task(
                query_plan, record_bytes, local_stats, served_blocks
            )
            if not early:
                map_batch = self._make_block_map(query_plan, columnar_stats)
            elif use_columnar:
                map_batch = self._make_map_batch(
                    query_plan, record_bytes, columnar_stats
                )
            else:
                map_batch = None
            if cancel is not None:
                cancel.check()
                mapper = _cancellable(mapper, cancel)
                reduce_task = _cancellable(reduce_task, cancel)
                if map_batch is not None:
                    map_batch = _cancellable(map_batch, cancel)
            job = MapReduceJob(
                mapper=mapper,
                reducer=None,
                reduce_task=reduce_task,
                num_reducers=query_plan.num_reducers,
                combiner=self._make_combiner(query_plan) if early else None,
                partitioner=self._make_partitioner(query_plan),
                map_batch=map_batch,
                record_bytes=record_bytes,
                value_bytes=_value_bytes(record_bytes),
                combined_sort=self.config.combined_sort,
                name="composite-query",
            )
            logger.info(
                "evaluating %d measures over %d records: %s",
                len(workflow),
                input_file.num_records,
                query_plan.describe(),
            )
            job_result = job.run(
                input_file,
                self.cluster,
                tracer=self.tracer,
                telemetry=self.telemetry,
            )
            logger.info("job finished: %s", job_result.report.summary())

            result = union_outputs(workflow, job_result.outputs)
            calibration = CalibrationReport.from_run(
                query_plan,
                job_result.report,
                record_bytes=record_bytes,
                key_bytes=KEY_BYTES,
                early_aggregation=early,
                actual_blocks=served_blocks[0],
            )
            root.set_sim(0.0, job_result.report.response_time)
            root.set(rows=result.total_rows())
            root.set(calibration_error=calibration.max_load_error)
            if columnar_stats is not None:
                root.set(columnar=columnar_stats.to_dict())
        if self.metrics is not None:
            self._record_metrics(query_plan, job_result.report, calibration)
            if columnar_stats is not None:
                for name, value in columnar_stats.to_dict().items():
                    if isinstance(value, (int, float)):
                        self.metrics.inc(f"columnar.{name}", value)
        for load in job_result.report.reducer_loads:
            self.telemetry.observe("job.reducer_load", load)
        self.telemetry.set_gauge(
            "job.response_time", job_result.report.response_time
        )
        self.telemetry.inc("job.completed")
        return ParallelResult(
            result=result,
            plan=query_plan,
            job=job_result.report,
            local_stats=local_stats,
            columnar=columnar_stats,
            calibration=calibration,
        )

    def _record_metrics(
        self, query_plan: QueryPlan, report, calibration=None
    ) -> None:
        """Feed one job's outcome into the attached metrics registry."""
        metrics = self.metrics
        metrics.record_job_counters(report.counters)
        if calibration is not None:
            for name in (
                "max_load_error",
                "shipped_records_error",
                "shuffle_bytes_error",
                "blocks_error",
            ):
                value = getattr(calibration, name)
                if value is not None:
                    metrics.set_gauge(f"calibration.{name}", value)
        for load in report.reducer_loads:
            metrics.observe("job.reducer_load", load)
        metrics.set_gauge("job.response_time", report.response_time)
        metrics.set_gauge("job.map_makespan", report.map_makespan)
        metrics.set_gauge("job.reduce_makespan", report.reduce_makespan)
        metrics.set_gauge("job.load_imbalance", report.load_imbalance)
        metrics.set_gauge("job.actual_max_load", report.max_reducer_load)
        metrics.set_gauge(
            "optimizer.predicted_max_load", query_plan.predicted_max_load
        )
        for index, (_component, subplan) in enumerate(query_plan.subplans):
            prefix = f"optimizer.component{index}."
            metrics.set_gauge(
                prefix + "predicted_max_load", subplan.predicted_max_load
            )
            metrics.set_gauge(prefix + "blocks", subplan.scheme.num_blocks())
            metrics.inc(
                prefix + "candidates_considered",
                subplan.candidates_considered,
            )
            for attr, cf in subplan.scheme.clustering_factors.items():
                metrics.set_gauge(prefix + f"cf.{attr}", cf)


def _cancellable(fn, cancel: CancellationToken):
    """Check *cancel* before every call into *fn* (map or reduce task)."""

    def guarded(*args, **kwargs):
        cancel.check()
        return fn(*args, **kwargs)

    return guarded


def _routable_batch(schema, records, stats: ColumnarStats | None):
    """The task's records as a routable :class:`RecordBatch`, or ``None``.

    ``None`` without *stats* (columnar mode off), and for records no
    batch can hold or whose typed dimension columns the hierarchy level
    arrays cannot map; *stats* counts each task either way.
    """
    if stats is None:
        return None
    batch = RecordBatch.from_records(schema, records)
    if batch is None or not batch.routable():
        stats.fallback_tasks += 1
        stats.fallback_records += len(records)
        return None
    stats.batch_tasks += 1
    stats.batch_records += len(batch)
    return batch


def _component_input(schema, inputs: list, index: int):
    """What component *index* of a reduce task evaluates.

    *inputs* holds per map task ``(source, replica components, rows)``.
    Each record comes once, however many of the task's blocks it was
    copied into, in input order: one integer batch when every source is
    one, else a record list.
    """
    parts = [
        (source, np.unique(rows[replicas == index]))
        for source, replicas, rows in inputs
    ]
    if all(isinstance(source, RecordBatch) for source, _rows in parts):
        return RecordBatch(
            schema,
            np.concatenate([source.matrix[rows] for source, rows in parts]),
        )
    records: list = []
    for source, rows in parts:
        if isinstance(source, RecordBatch):
            records.extend(source.take(rows).to_records())
        else:
            records.extend(map(source.__getitem__, rows.tolist()))
    return records


def _first_block_partials(blocks) -> list:
    """One reduce task's partial states with cross-block copies dropped.

    A state whose (basic measure, region) slot already appeared in an
    earlier block of *blocks* (``(block key, values)`` groups) is a copy
    of it; repeats within one block come from different map tasks and
    all stay.
    """
    seen: set = set()
    kept: list = []
    for _key, values in blocks:
        fresh = [value for value in values if value[1:3] not in seen]
        seen.update(value[1:3] for value in fresh)
        kept.extend(fresh)
    return kept


def _merge_partials(basics, values) -> dict[str, MeasureTable]:
    """Merge shipped accumulator states into basic measure tables.

    States merge in sorted (measure, region) order so results are
    deterministic regardless of shuffle arrival order.  For float-valued
    algebraic aggregates the merge order still differs from the
    centralized per-record fold, so values may differ from a non-early
    run by floating-point rounding -- an inherent property of partial
    aggregation, not of this implementation.
    """
    merged: list[dict[tuple, object]] = [{} for _ in basics]
    for value in sorted(values, key=lambda v: (v[1], v[2])):
        tag, index, coords, state = value
        if tag != _PARTIAL:
            raise ValueError(
                "early aggregation reducer received a raw record; "
                "the combiner did not run"
            )
        measure = basics[index]
        existing = merged[index].get(coords)
        merged[index][coords] = (
            state
            if existing is None
            else measure.aggregate.merge(existing, state)
        )
    return {
        measure.name: MeasureTable(
            measure.granularity,
            {
                coords: measure.aggregate.finalize(state)
                for coords, state in merged[index].items()
            },
        )
        for index, measure in enumerate(basics)
    }


def _value_bytes(record_bytes: int):
    def size(value) -> int:
        if isinstance(value, tuple) and value and value[0] == _PARTIAL:
            return _PARTIAL_STATE_BYTES
        return record_bytes

    return size


def union_outputs(workflow: Workflow, outputs) -> ResultSet:
    """Union per-task ``(measure, coords, value)`` rows.

    Fails loudly on any duplicated region -- the invariant a feasible
    distribution scheme guarantees.  Shared by every backend that
    gathers reduce-task results.
    """
    tables = {
        measure.name: MeasureTable(measure.granularity)
        for measure in workflow.measures
    }
    for name, coords, value in outputs:
        table = tables[name]
        if coords in table:
            raise DuplicateResultError(
                f"measure {name!r} produced region {coords!r} from two "
                "different blocks; the distribution scheme is not feasible"
            )
        table[coords] = value
    return ResultSet(tables)
