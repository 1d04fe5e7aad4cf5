"""Tests for the MapReduce job engine."""

from collections import defaultdict

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import (
    BlockGroups,
    MapBatchOutput,
    MapReduceJob,
    ReduceBlocks,
    default_partitioner,
    partition_blocks,
    stable_hash,
)
from repro.mapreduce.timing import ClusterConfig


def word_mapper(record):
    yield (record[0], 1)


def counting_reducer(key, values, ctx):
    ctx.charge_eval(len(values))
    yield (key, sum(values))


def sum_combiner(key, values):
    yield (key, sum(values))


@pytest.fixture
def cluster():
    cluster = SimulatedCluster(ClusterConfig(machines=6))
    words = [("the",), ("quick",), ("fox",), ("the",)] * 250
    cluster.write_file("words", words)
    return cluster


@pytest.fixture
def words(cluster):
    return cluster.dfs.open("words")


class TestExecution:
    def test_wordcount(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        result = job.run(words, cluster)
        assert sorted(result.outputs) == [
            ("fox", 250), ("quick", 250), ("the", 500),
        ]

    def test_multiple_emits_per_record(self, cluster, words):
        def fanout_mapper(record):
            yield (record[0], 1)
            yield (record[0] + "!", 1)

        job = MapReduceJob(fanout_mapper, counting_reducer, num_reducers=3)
        result = job.run(words, cluster)
        assert result.report.counters.replication_factor == pytest.approx(2.0)
        assert ("the!", 500) in result.outputs

    def test_combiner_preserves_output_and_cuts_shuffle(self, cluster, words):
        plain = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        combined = MapReduceJob(
            word_mapper, counting_reducer, num_reducers=3,
            combiner=sum_combiner,
        )
        a = plain.run(words, cluster)
        b = combined.run(words, cluster)
        assert sorted(a.outputs) == sorted(b.outputs)
        assert (
            b.report.counters.shuffle_bytes < a.report.counters.shuffle_bytes
        )
        assert b.report.counters.combine_input_records == 1000
        assert b.report.counters.combine_output_records < 1000

    def test_same_key_meets_same_reducer(self, cluster):
        records = [(i % 7, i) for i in range(300)]
        cluster.write_file("nums", records)

        def mapper(record):
            yield (record[0], record[1])

        groups_seen = []

        def reducer(key, values, ctx):
            groups_seen.append(key)
            yield (key, len(values))

        job = MapReduceJob(mapper, reducer, num_reducers=4)
        result = job.run(cluster.dfs.open("nums"), cluster)
        # Each key reduced exactly once: no key split across reducers.
        assert sorted(groups_seen) == list(range(7))
        assert all(count in (42, 43) for _key, count in result.outputs)

    def test_num_reducers_validated(self):
        with pytest.raises(ValueError):
            MapReduceJob(word_mapper, counting_reducer, num_reducers=0)


class TestReporting:
    def test_counters(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        counters = report.counters
        assert counters.map_input_records == 1000
        assert counters.map_output_records == 1000
        assert counters.reduce_input_records == 1000
        assert counters.reduce_output_records == 3
        assert counters.map_tasks == len(words.blocks)
        assert counters.reduce_tasks == 3

    def test_breakdown_is_cumulative(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        bars = report.breakdown.cumulative()
        assert (
            bars["Map-Only"] <= bars["MR"] <= bars["Sort"] <= bars["Sort+Eval"]
        )
        assert report.response_time == pytest.approx(bars["Sort+Eval"])

    def test_reducer_loads(self, cluster, words):
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=3)
        report = job.run(words, cluster).report
        assert sum(report.reducer_loads) == 1000
        assert report.max_reducer_load >= 1000 / 3
        assert report.load_imbalance >= 1.0

    def test_summary_mentions_name(self, cluster, words):
        job = MapReduceJob(
            word_mapper, counting_reducer, num_reducers=2, name="mr-test"
        )
        assert "mr-test" in job.run(words, cluster).report.summary()


class TestCombinedSort:
    def test_group_sort_eliminated(self, cluster, words):
        def sorting_reducer(key, values, ctx):
            ctx.charge_sort(len(values), len(values) * 64)
            yield (key, len(values))

        plain = MapReduceJob(word_mapper, sorting_reducer, num_reducers=2)
        merged = MapReduceJob(
            word_mapper, sorting_reducer, num_reducers=2, combined_sort=True
        )
        a = plain.run(words, cluster).report
        b = merged.run(words, cluster).report
        assert a.breakdown.group_sort > 0
        assert b.breakdown.group_sort == 0
        assert b.breakdown.framework_sort >= a.breakdown.framework_sort
        assert b.response_time < a.response_time


class TestFailures:
    def test_remote_read_after_primary_replica_loss(self):
        cluster = SimulatedCluster(ClusterConfig(machines=4, replication=2))
        cluster.write_file("words", [("a",), ("b",)] * 500)
        words = cluster.dfs.open("words")
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=4)
        baseline = job.run(words, cluster)

        # Kill exactly the machine hosting the primary replica so that
        # the map task must read remotely from the surviving copy.
        cluster.fail_machine(words.blocks[0].replicas[0])
        degraded = job.run(words, cluster)
        assert sorted(degraded.outputs) == sorted(baseline.outputs)
        counters = degraded.report.counters
        assert counters.remote_block_reads == len(words.blocks)
        assert degraded.report.response_time > baseline.report.response_time

    def test_reducer_retry_on_failed_machine(self):
        cluster = SimulatedCluster(ClusterConfig(machines=4, replication=4))
        cluster.write_file("words", [("a",), ("b",)] * 500)
        words = cluster.dfs.open("words")
        job = MapReduceJob(word_mapper, counting_reducer, num_reducers=4)
        baseline = job.run(words, cluster)

        # Reducer placement walks live machines; with replication=4 the
        # map side is immune, so any slowdown comes from the retry.
        victim = cluster.reducer_machine(0)
        cluster.fail_machine(victim)
        degraded = job.run(words, cluster)
        assert sorted(degraded.outputs) == sorted(baseline.outputs)
        assert degraded.report.counters.task_retries >= 0


class TestHashing:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert default_partitioner(("a", 1), 7) == default_partitioner(
            ("a", 1), 7
        )

    def test_partitioner_in_range(self):
        for key in [(0,), (1, 2), ("x", "y"), (999, 999, 999)]:
            assert 0 <= default_partitioner(key, 5) < 5


def blocks_of(record):
    """Each record's block, plus the next one for every fourth key."""
    key = record[0]
    keys = [(key // 4, 0)]
    if key % 4 == 3:
        keys.append((key // 4 + 1, 1))
    return keys


def pair_mapper(record):
    return [(key, record) for key in blocks_of(record)]


def block_map(records):
    """The same map output as :func:`pair_mapper`, block-grouped."""
    members = defaultdict(list)
    for position, record in enumerate(records):
        for key in blocks_of(record):
            members[key].append(position)
    return MapBatchOutput(
        blocks=BlockGroups(
            keys=list(members),
            counts=np.array([len(rows) for rows in members.values()]),
            rows=np.array([row for rows in members.values() for row in rows]),
            source=records,
        )
    )


def ordered_reducer(key, values, ctx):
    ctx.charge_sort(len(values), len(values) * 40)
    ctx.charge_eval(len(values) + 1)
    yield (key, tuple(values))


def task_groups(task_input):
    """A reduce task's ``(key, values)`` groups from either input form."""
    if not isinstance(task_input, ReduceBlocks):
        return task_input
    values = [[] for _ in task_input.keys]
    for source, slots, counts, rows in task_input.inputs:
        stops = np.cumsum(counts).tolist()
        for slot, start, stop in zip(slots.tolist(), [0] + stops[:-1], stops):
            values[slot].extend(source[i] for i in rows[start:stop].tolist())
    return list(zip(map(tuple, task_input.keys.tolist()), values))


def ordered_reduce_task(task_input, ctx):
    for key, values in task_groups(task_input):
        yield from ordered_reducer(key, values, ctx)


class TestBlockGroupedMapOutput:
    """Block-grouped and per-record map output are one contract."""

    @pytest.fixture
    def records_file(self):
        def make(chaos):
            machines = 5
            cluster = SimulatedCluster(
                ClusterConfig(machines=machines),
                dfs=InMemoryDFS(machines, block_records=70),
            )
            if chaos is not None:
                cluster.install_faults(FaultPlan.random(chaos, machines))
            records = [(i * 7 % 61, i) for i in range(400)]
            return cluster, cluster.dfs.write("nums", records)

        return make

    @pytest.mark.parametrize("combined_sort", [False, True])
    @pytest.mark.parametrize("chaos", [None, 3])
    def test_same_outputs_counters_and_clock(self, records_file,
                                             combined_sort, chaos):
        reports = []
        outputs = []
        for map_batch in (None, block_map):
            cluster, handle = records_file(chaos)
            assert len(handle.blocks) > 1
            job = MapReduceJob(
                pair_mapper, None, num_reducers=4, map_batch=map_batch,
                reduce_task=ordered_reduce_task, combined_sort=combined_sort,
            )
            result = job.run(handle, cluster)
            outputs.append(result.outputs)
            reports.append(result.report)
        pairs, blocks = reports
        # Same groups, same values in the same order, same reducers.
        assert outputs[0] == outputs[1]
        assert blocks.counters == pairs.counters
        assert blocks.response_time == pairs.response_time
        assert blocks.breakdown == pairs.breakdown
        assert blocks.reducer_loads == pairs.reducer_loads
        # Some records are copied into two blocks.
        assert pairs.counters.map_output_records > 400
        if chaos is not None:
            assert blocks.faults == pairs.faults

    def test_block_output_needs_a_reduce_task(self, records_file):
        cluster, handle = records_file(None)
        job = MapReduceJob(
            pair_mapper, ordered_reducer, num_reducers=2,
            map_batch=block_map,
        )
        with pytest.raises(ValueError, match="needs a reduce_task"):
            job.run(handle, cluster)

    def test_mixed_forms_in_one_job_are_rejected(self, records_file):
        cluster, handle = records_file(None)
        first = handle.blocks[0].records

        def some_blocks(records):
            return block_map(records) if records is first else None

        job = MapReduceJob(
            pair_mapper, None, num_reducers=1, map_batch=some_blocks,
            reduce_task=ordered_reduce_task,
        )
        with pytest.raises(ValueError, match="mixed"):
            job.run(handle, cluster)

    def test_partition_blocks_keeps_block_order(self):
        parts = np.array([2, 0, 2, 1])
        counts = np.array([2, 1, 3, 0])
        rows = np.array([10, 11, 20, 30, 31, 32])
        grouped = partition_blocks(parts, counts, rows, 4)
        assert [blocks.tolist() for blocks, _rows in grouped] == [
            [1], [3], [0, 2], [],
        ]
        assert [rows.tolist() for _blocks, rows in grouped] == [
            [20], [], [10, 11, 30, 31, 32], [],
        ]
