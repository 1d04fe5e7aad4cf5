"""What the benchmark measures, and what each number is expected to move.

``BENCHMARK.json`` holds the metric names, units and bounds; this
module holds what each metric means, which end-to-end metric a layer
metric should move, and on which workload the layer does most of its
work.  Later performance claims cite a row here: "moves
``local.eval_s`` and so ``inproc_s`` on ``fine_uniform``, no change in
``refresh_p50_s`` on ``serve_append``".  The self-test keeps the two
files in step.

A third workload, ``coarse_skew`` (Q5-Q6 over Figure 4(f)'s time
skew), was dropped: on a 2-core VM whose speed moves by a third within
seconds, three workloads could not run long enough to keep every
metric's run-to-run spread inside its bound.

Every metric is emitted for every workload.  The one-shot workload has
no daemon, so its ``refresh_p50_s`` and ``read_p50_ms`` are what a
user gets by picking the fastest of the three executors; the serve
workload's ``central_s``/``inproc_s``/``mp_s`` are one cold pass of its
catalog over the grown dataset, the recompute that serving avoids.

Per-layer metrics are per pass of the catalog on ``fine_uniform``,
summed over the in-process and multiprocess executors' calls
(the oracle's single evaluate call is its whole pass, so it is left
out), and per round on ``serve_append``.  A layer a workload does not
run reads 0.

Three quantities are printed but not bounded: ``append_p50_s`` (the
append is inside ``refresh_p50_s``), ``refresh_tail_s`` (a run holds
too few rounds for a percentile above the median with ten rounds
beyond it) and ``error_frac`` (0 on a correct program; the result line
carries it as ``failed`` over ``attempted``).
"""

from __future__ import annotations

#: The workloads; BENCHMARK.json says why each exists.
WORKLOADS = ("fine_uniform", "serve_append")

#: name -> (unit, definition).
END_TO_END = {
    "setup_s": (
        "s",
        "median time from handing the records over until the system can "
        "answer: fine_uniform, building the SimulatedCluster and writing its "
        "DFS input; serve, QueryService construction, start() and the "
        "first cold burst",
    ),
    "central_s": (
        "s", "oracle wall time of one pass over the catalog, median",
    ),
    "inproc_s": (
        "s", "ParallelEvaluator wall time of one pass, median",
    ),
    "mp_s": (
        "s",
        "MultiprocessEvaluator wall time of one pass, median; pool "
        "start-up included because every call pays it",
    ),
    "refresh_p50_s": (
        "s",
        "serve: append() until all three answers are back, median over "
        "rounds; fine_uniform: the fastest executor's pass, median",
    ),
    "read_p50_ms": (
        "ms",
        "serve: median QueryResponse.latency_ms; fine_uniform: per "
        "repetition, the mean over the queries of the fastest executor's "
        "wall time for that query, median over repetitions",
    ),
    "peak_rss_mb": (
        "MB", "peak resident memory of the benchmark process plus its "
        "largest child",
    ),
}

#: name -> (unit, better, measured by, e2e metrics it should move,
#:          workload where it does most work / little work).
PER_LAYER = {
    "optimizer.plan_s": (
        "s", "lower", "wrap Optimizer.plan_query and Optimizer.plan",
        "inproc_s mp_s", "small everywhere; must stay small",
    ),
    "optimizer.blocks": (
        "count", "lower",
        "ParallelResult.calibration.actual_blocks, summed over the queries",
        "inproc_s mp_s", "fine_uniform / serve_append",
    ),
    "optimizer.max_load_error": (
        "ratio", "lower",
        "largest |ParallelResult.calibration.max_load_error| of a pass",
        "diagnostic", "fine_uniform",
    ),
    "cube.batch_s": (
        "s", "lower", "wrap RecordBatch.from_records",
        "mp_s inproc_s", "fine_uniform / serve_append",
    ),
    "distribution.route_s": (
        "s", "lower",
        "wrap routers from BlockScheme.make_batch_router and make_mapper",
        "inproc_s mp_s", "fine_uniform / serve_append",
    ),
    "distribution.replication": (
        "ratio", "lower",
        "MultiprocessReport.replicated_records over input records",
        "mp_s", "fine_uniform / serve_append",
    ),
    "mapreduce.sort_s": (
        "s", "lower", "wrap repro.mapreduce.engine.sort_group_pairs",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "mapreduce.sort_calls": (
        "count", "lower", "calls of the same wrapper",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "mapreduce.job_self_s": (
        "s", "lower", "MapReduceJob.run minus its wrapped children",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "local.eval_s": (
        "s", "lower", "wrap BlockEvaluator.evaluate",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "local.eval_calls": (
        "count", "lower", "calls of the same wrapper",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "local.us_per_call": (
        "us", "lower", "local.eval_s over local.eval_calls",
        "inproc_s", "fine_uniform / serve_append",
    ),
    "parallel.union_s": (
        "s", "lower", "wrap union_outputs in parallel.executor and "
        "parallel.multiprocess", "inproc_s mp_s", "fine_uniform",
    ),
    "parallel.scatter_s": (
        "s", "lower", "MultiprocessReport.transport_seconds",
        "mp_s", "fine_uniform / serve_append",
    ),
    "parallel.transport_bytes": (
        "bytes", "lower", "MultiprocessReport.transport_bytes",
        "mp_s", "fine_uniform",
    ),
    "parallel.gather_s": (
        "s", "lower",
        "mp pass minus its wrapped parent-side layers and scatter: pool "
        "start-up, worker reduce, result return",
        "mp_s", "fine_uniform / serve_append",
    ),
    "parallel.attempts_per_task": (
        "ratio", "lower", "MultiprocessReport attempts over tasks",
        "mp_s", "fine_uniform / serve_append",
    ),
    "parallel.spec_win_frac": (
        "ratio", "higher",
        "speculative_wins over speculative_launched (0 when none)",
        "mp_s", "fine_uniform",
    ),
    "serving.append_s": (
        "s", "lower", "wrap QueryService.append",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.patch_s": (
        "s", "lower", "wrap IncrementalMaintainer.apply",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.patched": (
        "count", "higher", "AppendReport outcomes with action patched",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.regional": (
        "count", "higher", "AppendReport outcomes with action regional",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.full": (
        "count", "lower",
        "AppendReport outcomes left stale or recomputed (full class)",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.cache_hit_frac": (
        "ratio", "higher", "MeasureCache.stats hits over lookups",
        "read_p50_ms", "serve_append only",
    ),
    "serving.share_ratio": (
        "ratio", "higher",
        "ServeReport grouped_queries over groups_dispatched",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.exec_s": (
        "s", "lower", "wrap ParallelEvaluator.evaluate while serving",
        "refresh_p50_s", "serve_append only",
    ),
    "serving.exec_calls": (
        "count", "lower", "calls of the same wrapper",
        "refresh_p50_s", "serve_append only",
    ),
    "obs.trace_overhead_frac": (
        "ratio", "lower",
        "traced pass (or round) time over untraced, minus one",
        "none; must stay small", "all",
    ),
    "obs.inproc_covered_frac": (
        "ratio", "higher",
        "share of the traced in-process pass that wrapped layers cover",
        "none; below 0.9 means the attribution misses time",
        "fine_uniform",
    ),
}
