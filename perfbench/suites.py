"""The two workloads: a one-shot suite and a live-append serve loop.

Each workload makes its inputs from the seed, times the program with
tracing off (or, in a traced run, alternates traced and untraced
repetitions), and checks every answer against the centralized oracle
outside the timed region.  A wrong answer, an exception, a shed or a
failed append is counted in :class:`Tally` and its time is dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import os
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import spec
from tracing import LayerTracer, scope

#: The catalog's third query is the click-through example shipped with
#: the repository, read from the checkout like any user query file.
CTR_QUERY = Path("examples") / "queries" / "weblog_ctr.cq"

ONE_SHOT_QUERIES = {"fine_uniform": ("Q1", "Q2", "Q3", "Q4")}
EXECUTORS = ("central", "inproc", "mp")
MACHINES = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test runs the same code at a tiny scale."""

    fine_records: int = 6_000
    base_partitions: int = 8
    sessions_per_partition: int = 1_500
    rounds: int = 6
    #: Cold catalog passes after each serve episode; with few episodes
    #: in a run, one pass each leaves too few samples for a steady median.
    cold_passes: int = 2
    #: One-shot set-up repetitions (set-up is milliseconds there).
    setups: int = 21
    #: Serve set-ups made before the first episode, on top of the one
    #: every episode makes.
    serve_setups: int = 2


FULL = Sizes()


@dataclass
class Tally:
    """Attempted and failed operations, and the timings that counted."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail or 'wrong answer'}")
        return ok

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        if not values:
            raise RuntimeError(f"no successful sample of {name}")
        return statistics.median(values)


def same_answer(got, expected) -> bool:
    """Bitwise equality of two ``ResultSet`` objects.

    Floats compare by their IEEE bytes (so ``-0.0`` differs from
    ``0.0`` and a NaN equals itself); every other value by type and
    ``==``.
    """
    if got is None or got.tables.keys() != expected.tables.keys():
        return False
    for name, table in expected.tables.items():
        mine = got.tables[name].values
        theirs = table.values
        if mine.keys() != theirs.keys():
            return False
        for coords, value in theirs.items():
            other = mine[coords]
            if type(other) is not type(value):
                return False
            if isinstance(value, float):
                if struct.pack("<d", value) != struct.pack("<d", other):
                    return False
            elif other != value:
                return False
    return True


def _traced(tracer: LayerTracer | None, on: bool):
    if tracer is not None and on:
        return tracer.installed()
    return contextlib.nullcontext()


def _timed_call(tally: Tally, what: str, call):
    """Run *call*; returns ``(seconds, value)`` or ``(None, None)``."""
    started = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        tally.check(what, False, f"{type(exc).__name__}: {exc}")
        return None, None
    return time.perf_counter() - started, value


# -- one-shot workload -------------------------------------------------------


def _executors(cluster, input_file, records) -> dict:
    """Executor name -> ``workflow -> (ResultSet, report or None)``."""
    from repro.local import evaluate_centralized
    from repro.parallel import ParallelEvaluator
    from repro.parallel.multiprocess import MultiprocessEvaluator

    inproc = ParallelEvaluator(cluster)
    multi = MultiprocessEvaluator(processes=os.cpu_count())

    def run_inproc(wf):
        outcome = inproc.evaluate(wf, input_file)
        return outcome.result, outcome

    return {
        "central": lambda wf: (evaluate_centralized(wf, records), None),
        "inproc": run_inproc,
        "mp": lambda wf: multi.evaluate(wf, records),
    }


def interleaved_pass(tally, executors, queries, reference, rep,
                     tracer=None, traced=False):
    """Answer every query with every executor, in rotating order.

    Interleaving per query puts the three executors in the same stretch
    of host time, so drift moves them together.  Returns
    ``{executor: {query: seconds}}`` for executors whose every answer
    was right, and ``{executor: [report, ...]}``.
    """
    seconds = {executor: {} for executor in EXECUTORS}
    reports = {executor: [] for executor in EXECUTORS}
    for index, (q, wf) in enumerate(queries.items()):
        shift = (rep + index) % len(EXECUTORS)
        for executor in EXECUTORS[shift:] + EXECUTORS[:shift]:
            gc.collect()
            with _traced(tracer, traced), scope(executor):
                elapsed, value = _timed_call(
                    tally, f"{executor} {q}", lambda: executors[executor](wf)
                )
            if elapsed is None:
                continue
            answer, report = value
            if tally.check(f"{executor} {q} rep {rep}",
                           same_answer(answer, reference[q])):
                seconds[executor][q] = elapsed
                reports[executor].append(report)
    complete = {
        executor: times for executor, times in seconds.items()
        if len(times) == len(queries)
    }
    return complete, reports


def run_one_shot(name: str, seed: int, seconds: float,
                 tracer: LayerTracer | None, sizes: Sizes = FULL) -> dict:
    from repro.local import evaluate_centralized
    from repro.mapreduce import ClusterConfig, SimulatedCluster
    from repro.workload import all_queries, generate_uniform, paper_schema

    schema = paper_schema(days=20, temporal_base="minute")
    records = generate_uniform(schema, sizes.fine_records, seed=seed)
    catalog = all_queries(schema)
    queries = {q: catalog[q] for q in ONE_SHOT_QUERIES[name]}
    tally = Tally()

    for _ in range(sizes.setups):
        gc.collect()
        started = time.perf_counter()
        cluster = SimulatedCluster(ClusterConfig(machines=MACHINES))
        input_file = cluster.dfs.write("bench-input", records)
        tally.add("setup_s", time.perf_counter() - started)

    executors = _executors(cluster, input_file, records)
    reference = {
        q: evaluate_centralized(wf, records) for q, wf in queries.items()
    }
    # Warm each parallel path (imports, first pool) on a slice of the
    # input; every timed call afterwards pays only what users repeat.
    warm = records[:1000]
    warm_executors = _executors(
        SimulatedCluster(ClusterConfig(machines=MACHINES)),
        warm, warm,
    )
    for wf in queries.values():
        warm_executors["inproc"](wf)
        warm_executors["mp"](wf)

    traced_passes: list[dict] = []
    untraced_passes: list[dict] = []
    reports = {"inproc": [], "mp": []}
    started_window = time.perf_counter()
    longest = 0.0
    rep = 0
    while True:
        rep_started = time.perf_counter()
        traced = tracer is not None and rep % 2 == 0
        query_times, rep_reports = interleaved_pass(
            tally, executors, queries, reference, rep, tracer, traced
        )
        pass_times = {e: sum(t.values()) for e, t in query_times.items()}
        if tracer is None:
            _add_one_shot_samples(tally, pass_times, query_times, queries)
        elif traced:
            traced_passes.append(pass_times)
            for executor in reports:
                if executor in pass_times:
                    reports[executor].extend(rep_reports[executor])
        else:
            untraced_passes.append(pass_times)
        rep += 1
        longest = max(longest, time.perf_counter() - rep_started)
        # A traced run needs an untraced repetition to compare against.
        if time.perf_counter() - started_window + longest > seconds and (
            tracer is None or rep >= 2
        ):
            break

    result = {"tally": tally, "reps": rep, "records": len(records)}
    if tracer is not None:
        result["traced_reps"] = len(traced_passes)
        # Means, not medians: layer times are summed over the traced
        # passes, so shares of the mean pass tile it exactly.
        result["pass_s"] = {
            executor: statistics.fmean(
                [p[executor] for p in traced_passes if executor in p]
                or [math.nan]
            )
            for executor in EXECUTORS
        }
        result["layers"] = one_shot_layers(
            tracer, traced_passes, untraced_passes, reports,
            len(records), len(queries), result["pass_s"]["inproc"],
        )
        result["fig4d"] = figure_4d(
            tracer, len(traced_passes), result["pass_s"]["inproc"]
        )
    return result


def _add_one_shot_samples(tally, pass_times, query_times, queries) -> None:
    for executor, seconds in pass_times.items():
        tally.add(f"{executor}_s", seconds)
    if len(pass_times) == len(EXECUTORS):
        tally.add("refresh_p50_s", min(pass_times.values()))
        # Queries differ in cost, so pooled per-query times are
        # multi-modal and their median jumps between modes; the mean
        # over the catalog per repetition is one steady sample.
        fastest = [
            min(times[q] for times in query_times.values()) for q in queries
        ]
        tally.add("read_p50_ms", 1e3 * statistics.fmean(fastest))


def figure_4d(tracer, n: int, inproc_pass: float) -> list:
    """The paper's Figure 4(d) bars for the in-process executor.

    Cumulative wall seconds per pass: Map-only, MR, Sort, Sort+Eval,
    then planning, the union and the time no wrapper covers.
    """
    def seconds(*layers):
        return sum(tracer.get("inproc", layer).self_s for layer in layers) / n

    bars = []
    cumulative = 0.0
    for label, layers in (
        ("Map-only", ("cube.batch", "distribution.route")),
        ("MR", ("mapreduce.job",)),
        ("Sort", ("mapreduce.sort",)),
        ("Sort+Eval", ("local.eval",)),
    ):
        cumulative += seconds(*layers)
        bars.append((label, cumulative))
    rest = [
        ("+ plan", seconds("optimizer.plan")),
        ("+ union", seconds("parallel.union")),
    ]
    rest.append(("+ untiled", inproc_pass - cumulative - rest[0][1]
                 - rest[1][1]))
    return bars + rest


def _median_total(passes: list[dict]) -> float:
    totals = [sum(p.values()) for p in passes if len(p) == len(EXECUTORS)]
    return statistics.median(totals) if totals else math.nan


def one_shot_layers(tracer, traced_passes, untraced_passes, reports,
                    n_records: int, n_queries: int,
                    inproc_pass: float) -> dict:
    """Per-layer metrics per pass from the traced repetitions."""
    n = max(1, len(traced_passes))
    layer_scopes = ("inproc", "mp")

    def self_s(layer):
        return sum(tracer.get(s, layer).self_s for s in layer_scopes) / n

    def calls(layer):
        return sum(tracer.get(s, layer).calls for s in layer_scopes) / n

    inproc_results = reports["inproc"]
    mp_reports = reports["mp"]
    per_pass_inproc = max(1, len(inproc_results) // n_queries)
    per_pass_mp = max(1, len(mp_reports) // n_queries)
    # Blocks that held records; the schemes' num_blocks() counts the
    # whole key grid, tens of millions of mostly empty blocks here.
    blocks = sum(
        result.calibration.actual_blocks or 0 for result in inproc_results
    ) / per_pass_inproc
    load_errors = [
        abs(result.calibration.max_load_error)
        for result in inproc_results
        if result.calibration.max_load_error is not None
    ]
    tasks = sum(r.tasks for r in mp_reports)
    launched = sum(r.speculative_launched for r in mp_reports)
    scatter = sum(r.transport_seconds for r in mp_reports) / per_pass_mp
    mp_root = tracer.get("mp", "parallel.mp").self_s / n
    inproc_root = tracer.get("inproc", "parallel.inproc").self_s / n
    eval_s = self_s("local.eval")
    eval_calls = calls("local.eval")
    layers = dict.fromkeys(spec.PER_LAYER, 0.0)
    layers.update({
        "optimizer.plan_s": self_s("optimizer.plan"),
        "optimizer.blocks": blocks,
        "optimizer.max_load_error": max(load_errors, default=0.0),
        "cube.batch_s": self_s("cube.batch"),
        "distribution.route_s": self_s("distribution.route"),
        "distribution.replication": (
            sum(r.replicated_records for r in mp_reports)
            / max(1, n_records * len(mp_reports))
        ),
        "mapreduce.sort_s": self_s("mapreduce.sort"),
        "mapreduce.sort_calls": calls("mapreduce.sort"),
        "mapreduce.job_self_s": self_s("mapreduce.job"),
        "local.eval_s": eval_s,
        "local.eval_calls": eval_calls,
        "local.us_per_call": 1e6 * eval_s / eval_calls if eval_calls else 0.0,
        "parallel.union_s": self_s("parallel.union"),
        "parallel.scatter_s": scatter,
        "parallel.transport_bytes": (
            sum(r.transport_bytes for r in mp_reports) / per_pass_mp
        ),
        "parallel.gather_s": mp_root - scatter,
        "parallel.attempts_per_task": (
            sum(r.attempts for r in mp_reports) / tasks if tasks else 0.0
        ),
        "parallel.spec_win_frac": (
            sum(r.speculative_wins for r in mp_reports) / launched
            if launched else 0.0
        ),
        "obs.trace_overhead_frac": (
            _median_total(traced_passes) / _median_total(untraced_passes)
            - 1.0
        ),
        "obs.inproc_covered_frac": 1.0 - inproc_root / inproc_pass,
    })
    return layers


# -- serve_append ------------------------------------------------------------


def _serve_catalog(schema):
    from repro.query.parser import parse_workflow
    from repro.workload import streaming_query, weblog_query

    return {
        "S": streaming_query(schema),
        "M": weblog_query(schema),
        "CTR": parse_workflow(CTR_QUERY.read_text(), schema),
    }


async def _burst(service, catalog):
    """Submit the whole catalog at once; one client waits for all."""
    from repro.serving import QueryRequest

    return await asyncio.gather(
        *(service.submit(QueryRequest(n, wf)) for n, wf in catalog.items())
    )


def _check_burst(tally, what, responses, expected) -> list[float]:
    """Check a burst; returns the latencies of the correct answers."""
    latencies = []
    for response in responses:
        label = f"{what} {response.name}"
        if not response.ok:
            tally.check(label, False, f"status {response.status} "
                        f"{response.error}".strip())
            continue
        if tally.check(label, same_answer(response.result,
                                          expected[response.name])):
            latencies.append(response.latency_ms)
    return latencies


@dataclass
class Episode:
    """One serve lifetime: set-up, the append rounds, cold passes."""

    refresh: list = field(default_factory=list)
    appends: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    traced_refresh: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    hits: int = 0
    lookups: int = 0
    grouped: int = 0
    dispatched: int = 0


def run_serve(seed: int, seconds: float, tracer: LayerTracer | None,
              sizes: Sizes = FULL) -> dict:
    from repro.local import evaluate_centralized
    from repro.workload import session_stream, streaming_schema

    schema = streaming_schema(days=1)
    catalog = _serve_catalog(schema)
    partitions = list(session_stream(
        schema, sizes.base_partitions + sizes.rounds,
        sizes.sessions_per_partition, seed=seed,
    ))
    base = [r for part in partitions[:sizes.base_partitions] for r in part]
    deltas = partitions[sizes.base_partitions:]
    # The oracle's answers over every prefix, before anything is timed.
    prefixes = [list(base)]
    for delta in deltas:
        prefixes.append(prefixes[-1] + delta)
    expected = [
        {n: evaluate_centralized(wf, prefix) for n, wf in catalog.items()}
        for prefix in prefixes
    ]
    tally = Tally()
    for _ in range(sizes.serve_setups):
        asyncio.run(_setup_only(tally, catalog, base, expected[0]))

    episodes: list[Episode] = []
    started_window = time.perf_counter()
    longest = 0.0
    while True:
        episode_started = time.perf_counter()
        parity = len(episodes) % 2
        episode = asyncio.run(_episode(
            tally, catalog, base, deltas, expected, tracer, parity,
        ))
        episodes.append(episode)
        for index in range(sizes.cold_passes):
            _cold_pass(tally, catalog, prefixes[-1], expected[-1],
                       len(episodes) * sizes.cold_passes + index)
        longest = max(longest, time.perf_counter() - episode_started)
        if time.perf_counter() - started_window + longest > seconds:
            break

    rounds = [t for e in episodes for t in e.refresh]
    reads = [t for e in episodes for t in e.reads]
    for value in rounds:
        tally.add("refresh_p50_s", value)
    for value in reads:
        tally.add("read_p50_ms", value)
    for value in (t for e in episodes for t in e.appends):
        tally.add("append_p50_s", value)
    result = {
        "tally": tally, "reps": len(episodes), "records": len(prefixes[-1]),
        "rounds": len(rounds),
    }
    if tracer is not None:
        traced = [t for e in episodes for t in e.traced_refresh]
        result["traced_reps"] = len(traced)
        result["pass_s"] = {
            "serve": statistics.fmean(traced) if traced else math.nan
        }
        result["layers"] = serve_layers(tracer, episodes)
    return result


def _service(catalog, records):
    from repro.mapreduce import ClusterConfig, SimulatedCluster
    from repro.serving import MeasureCache, QueryService, ServiceLimits

    return QueryService(
        catalog,
        records,
        cluster_factory=lambda: SimulatedCluster(
            ClusterConfig(machines=MACHINES)
        ),
        cache=MeasureCache(),
        limits=ServiceLimits(max_inflight=min(os.cpu_count() or 1, 3)),
    )


async def _setup(tally, catalog, base, expected):
    """Construct, start and fill the cache; times it as ``setup_s``."""
    gc.collect()
    started = time.perf_counter()
    service = _service(catalog, base)
    await service.start()
    responses = await _burst(service, catalog)
    elapsed = time.perf_counter() - started
    if len(_check_burst(tally, "cold burst", responses, expected)) == len(
        catalog
    ):
        tally.add("setup_s", elapsed)
    return service


async def _setup_only(tally, catalog, base, expected) -> None:
    with scope("serve"):
        service = await _setup(tally, catalog, base, expected)
        await service.drain()


async def _episode(tally, catalog, base, deltas, expected, tracer,
                   parity) -> Episode:
    episode = Episode()
    # The daemon's worker tasks copy this context when they start, so
    # its executions are attributed to the serve scope.
    with scope("serve"):
        service = await _setup(tally, catalog, base, expected[0])
        stats_before = service.cache.stats.snapshot()
        for index, delta in enumerate(deltas, start=1):
            traced = (index + parity) % 2 == 0
            gc.collect()
            with _traced(tracer, traced):
                started = time.perf_counter()
                try:
                    report = await service.append(delta)
                except Exception as exc:  # noqa: BLE001 - counted
                    tally.check(f"append {index}", False,
                                f"{type(exc).__name__}: {exc}")
                    break
                appended = time.perf_counter() - started
                responses = await _burst(service, catalog)
                refreshed = time.perf_counter() - started
            if not tally.check(f"append {index}", report is not None,
                               "no maintenance report"):
                continue
            episode.reports.append(report)
            latencies = _check_burst(
                tally, f"round {index}", responses, expected[index]
            )
            if len(latencies) < len(catalog):
                continue
            if tracer is not None and traced:
                episode.traced_refresh.append(refreshed)
                continue
            episode.refresh.append(refreshed)
            episode.appends.append(appended)
            episode.reads.extend(latencies)
        stats = service.cache.stats
        episode.hits = stats.hits - stats_before.hits
        episode.lookups = episode.hits + stats.misses - stats_before.misses
        report = await service.drain()
        episode.grouped = report.grouped_queries
        episode.dispatched = report.groups_dispatched
    return episode


def _cold_pass(tally, catalog, records, expected, rep) -> None:
    """Cold recompute of the catalog over the grown dataset."""
    from repro.mapreduce import ClusterConfig, SimulatedCluster

    cluster = SimulatedCluster(ClusterConfig(machines=MACHINES))
    input_file = cluster.dfs.write("bench-input", records)
    executors = _executors(cluster, input_file, records)
    query_times, _reports = interleaved_pass(
        tally, executors, catalog, expected, rep
    )
    for executor, times in query_times.items():
        tally.add(f"{executor}_s", sum(times.values()))


def serve_layers(tracer, episodes: list[Episode]) -> dict:
    """Per-layer metrics per traced round."""
    n = max(1, sum(len(e.traced_refresh) for e in episodes))

    def total(layer, attr="self_s"):
        return getattr(tracer.get("serve", layer), attr) / n

    reports = [r for e in episodes for r in e.reports]
    per_round = max(1, len(reports))
    exec_s = total("parallel.inproc", "inclusive_s")
    eval_s = total("local.eval")
    eval_calls = total("local.eval", "calls")
    lookups = sum(e.lookups for e in episodes)
    dispatched = sum(e.dispatched for e in episodes)
    traced = [t for e in episodes for t in e.traced_refresh]
    untraced = [t for e in episodes for t in e.refresh]
    layers = dict.fromkeys(spec.PER_LAYER, 0.0)
    layers.update({
        "optimizer.plan_s": total("optimizer.plan"),
        "cube.batch_s": total("cube.batch"),
        "distribution.route_s": total("distribution.route"),
        "mapreduce.sort_s": total("mapreduce.sort"),
        "mapreduce.sort_calls": total("mapreduce.sort", "calls"),
        "mapreduce.job_self_s": total("mapreduce.job"),
        "local.eval_s": eval_s,
        "local.eval_calls": eval_calls,
        "local.us_per_call": 1e6 * eval_s / eval_calls if eval_calls else 0.0,
        "parallel.union_s": total("parallel.union"),
        "serving.append_s": total("serving.append", "inclusive_s"),
        "serving.patch_s": total("serving.patch", "inclusive_s"),
        "serving.patched": sum(r.count("patched") for r in reports)
        / per_round,
        "serving.regional": sum(r.count("regional") for r in reports)
        / per_round,
        "serving.full": sum(
            r.count("stale") + r.count("recomputed") for r in reports
        ) / per_round,
        "serving.cache_hit_frac": (
            sum(e.hits for e in episodes) / lookups if lookups else 0.0
        ),
        "serving.share_ratio": (
            sum(e.grouped for e in episodes) / dispatched
            if dispatched else 0.0
        ),
        "serving.exec_s": exec_s,
        "serving.exec_calls": total("parallel.inproc", "calls"),
        "obs.trace_overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0
        ),
        "obs.inproc_covered_frac": (
            1.0 - total("parallel.inproc") / exec_s if exec_s else 0.0
        ),
    })
    return layers
