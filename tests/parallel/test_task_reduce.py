"""Differential tests of the once-per-task reduce against the oracle.

Both executors evaluate a reduce task's deduplicated records once per
component and keep the rows whose home block the task holds.  Every
answer here is compared with :func:`evaluate_centralized` by IEEE bytes
(so ``-0.0`` differs from ``0.0``), across overlapping keys, clustering
factors, multi-component plans, float facts, holistic measures, the
extreme partition counts, and early aggregation.
"""

import random
import struct

import numpy as np
import pytest

from repro.cube.domains import UniformHierarchy
from repro.cube.records import Attribute, Schema
from repro.distribution.clustering import BlockScheme
from repro.distribution.derive import minimal_feasible_key
from repro.distribution.keys import DistributionKey
from repro.local.sortscan import evaluate_centralized
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.timing import ClusterConfig
from repro.optimizer.optimizer import Plan, QueryPlan
from repro.parallel.executor import ExecutionConfig, ParallelEvaluator
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.reduce import TaskReducer
from repro.query.builder import WorkflowBuilder
from repro.query.workflow import connected_components
from repro.workload import all_queries, generate_uniform, paper_schema


def assert_bit_identical(got, expected):
    """Same measures, regions and values; floats by their IEEE bytes."""
    assert got.tables.keys() == expected.tables.keys()
    for name, table in expected.tables.items():
        mine = got.tables[name].values
        assert mine.keys() == table.values.keys(), name
        for coords, value in table.values.items():
            other = mine[coords]
            assert type(other) is type(value), (name, coords)
            if isinstance(value, float):
                assert struct.pack("<d", other) == struct.pack(
                    "<d", value
                ), (name, coords, other, value)
            else:
                assert other == value, (name, coords)


def manual_plan(workflow, cf: int, num_reducers: int = 4) -> QueryPlan:
    """Each component on its minimal key, every annotated axis at *cf*."""
    subplans = []
    for component in connected_components(workflow):
        key = minimal_feasible_key(component)
        factors = {attr: cf for attr in key.annotated_attributes()}
        subplans.append(
            (
                component,
                Plan(
                    scheme=BlockScheme(key, factors),
                    num_reducers=num_reducers,
                    predicted_max_load=0.0,
                    strategy="manual",
                ),
            )
        )
    return QueryPlan(subplans)


def run_inproc(workflow, records, plan=None, num_reducers=None,
               early=False):
    evaluator = ParallelEvaluator(
        SimulatedCluster(ClusterConfig(machines=4)),
        ExecutionConfig(num_reducers=num_reducers, early_aggregation=early),
    )
    return evaluator.evaluate(workflow, records, plan=plan)


def run_mp(workflow, records, plan=None, num_partitions=None):
    evaluator = MultiprocessEvaluator(processes=2)
    if plan is not None:
        # Stub the planner so the workers execute exactly this plan.
        evaluator.optimizer.plan_query = lambda *args, **kwargs: plan
    return evaluator.evaluate(workflow, records, num_partitions=num_partitions)


@pytest.fixture(scope="module")
def paper():
    schema = paper_schema(days=3, temporal_base="minute")
    return schema, all_queries(schema), generate_uniform(schema, 1500, seed=5)


@pytest.fixture(scope="module")
def float_schema():
    x = UniformHierarchy("x", {"value": 1, "four": 4}, base_cardinality=16)
    t = UniformHierarchy(
        "t", {"tick": 1, "span": 4, "day": 16}, base_cardinality=64
    )
    return Schema([Attribute("x", x), Attribute("t", t)], facts=["v"])


@pytest.fixture(scope="module")
def float_records():
    rng = random.Random(3)
    return [
        (rng.randrange(16), rng.randrange(64), rng.uniform(-1e3, 1e3) / 7)
        for _ in range(800)
    ]


class TestOverlappingKeys:
    @pytest.mark.parametrize("query", ["Q5", "Q6"])
    @pytest.mark.parametrize("cf", [1, 2, 5])
    def test_windows_across_clustering_factors(self, paper, query, cf):
        _schema, queries, records = paper
        workflow = queries[query]
        plan = manual_plan(workflow, cf)
        assert plan.subplans[0][1].scheme.key.is_overlapping
        expected = evaluate_centralized(workflow, records)
        assert_bit_identical(
            run_inproc(workflow, records, plan).result, expected
        )
        result, _report = run_mp(workflow, records, plan, num_partitions=3)
        assert_bit_identical(result, expected)

    @pytest.mark.parametrize("query", ["Q5", "Q6"])
    @pytest.mark.parametrize("early", [False, True])
    def test_early_aggregation_on_and_off(self, paper, query, early):
        _schema, queries, records = paper
        workflow = queries[query]
        outcome = run_inproc(
            workflow, records, manual_plan(workflow, 2), early=early
        )
        assert_bit_identical(
            outcome.result, evaluate_centralized(workflow, records)
        )

    def test_plan_with_several_components(self, paper):
        _schema, queries, records = paper
        workflow = queries["Q1"]
        assert len(connected_components(workflow)) > 1
        expected = evaluate_centralized(workflow, records)
        outcome = run_inproc(workflow, records)
        assert len(outcome.plan.subplans) > 1
        assert_bit_identical(outcome.result, expected)
        result, _report = run_mp(workflow, records)
        assert_bit_identical(result, expected)


class TestFloatFactsAndHolistic:
    def build(self, schema):
        builder = WorkflowBuilder(schema)
        builder.basic("total", over={"x": "value", "t": "tick"},
                      field="v", aggregate="sum")
        builder.basic("mean", over={"x": "four", "t": "span"},
                      field="v", aggregate="avg")
        builder.basic("mid", over={"x": "four", "t": "span"},
                      field="v", aggregate="median")
        (
            builder.composite("rolled", over={"x": "four", "t": "span"})
            .from_children("total", aggregate="sum")
        )
        (
            builder.composite("trail", over={"x": "four", "t": "span"})
            .window("mid", attribute="t", low=-2, high=0, aggregate="sum")
        )
        return builder.build()

    @pytest.mark.parametrize("cf", [1, 3])
    def test_float_sum_avg_and_median(self, float_schema, float_records,
                                      cf):
        workflow = self.build(float_schema)
        expected = evaluate_centralized(workflow, float_records)
        plan = manual_plan(workflow, cf)
        assert_bit_identical(
            run_inproc(workflow, float_records, plan).result, expected
        )
        result, _report = run_mp(
            workflow, float_records, plan, num_partitions=3
        )
        assert_bit_identical(result, expected)


class TestPartitionExtremes:
    def test_every_block_in_one_task(self, paper):
        _schema, queries, records = paper
        workflow = queries["Q5"]
        plan = manual_plan(workflow, 1, num_reducers=1)
        expected = evaluate_centralized(workflow, records)
        outcome = run_inproc(workflow, records, plan)
        assert outcome.job.counters.reduce_tasks == 1
        assert_bit_identical(outcome.result, expected)
        # One task: every record is evaluated exactly once.
        assert outcome.local_stats.records == len(records)
        result, report = run_mp(workflow, records, plan, num_partitions=1)
        assert report.tasks == 1
        assert report.replicated_records > len(records)
        assert_bit_identical(result, expected)

    def test_more_partitions_than_blocks(self, paper):
        _schema, queries, records = paper
        workflow = queries["Q6"]
        plan = manual_plan(workflow, 5)
        blocks = plan.subplans[0][1].scheme.num_blocks()
        expected = evaluate_centralized(workflow, records)
        outcome = run_inproc(workflow, records, num_reducers=blocks + 3)
        assert_bit_identical(outcome.result, expected)
        result, report = run_mp(
            workflow, records, plan, num_partitions=blocks + 3
        )
        assert report.tasks <= blocks
        assert_bit_identical(result, expected)


class TestExplicitCases:
    @pytest.fixture
    def window(self, tiny_schema):
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("base", over={"x": "value", "t": "tick"}, field="v",
                      aggregate="sum")
        (
            builder.composite("trail", over={"x": "value", "t": "tick"})
            .window("base", attribute="t", low=-1, high=0, aggregate="sum")
        )
        return builder.build()

    def test_record_copied_into_two_blocks_of_a_task_counts_once(
        self, window
    ):
        plan = manual_plan(window, 1, num_reducers=1)
        mapper = plan.subplans[0][1].scheme.make_mapper()
        records = [(5, 4, 3), (5, 3, 2), (6, 9, 7)]
        assert len(mapper(records[0])) == 2
        expected = evaluate_centralized(window, records)
        outcome = run_inproc(window, records, plan)
        assert_bit_identical(outcome.result, expected)
        assert outcome.local_stats.records == len(records)
        result, _report = run_mp(window, records, plan, num_partitions=1)
        assert_bit_identical(result, expected)

    def test_equal_records_both_count(self, window):
        record = (5, 4, 3)
        twin = tuple(list(record))
        assert twin == record and twin is not record
        # The same object twice, and an equal but distinct object.
        records = [record, record, twin, (5, 3, 2)]
        plan = manual_plan(window, 1, num_reducers=1)
        expected = evaluate_centralized(window, records)
        assert expected["base"][(5, 4)] == 9
        assert_bit_identical(
            run_inproc(window, records, plan).result, expected
        )
        result, _report = run_mp(window, records, plan, num_partitions=1)
        assert_bit_identical(result, expected)

    def test_grand_total_on_an_all_key(self, tiny_schema, tiny_records):
        # Every key axis is ALL: one block, matched with no key columns.
        builder = WorkflowBuilder(tiny_schema)
        builder.basic("total", over={}, field="v", aggregate="sum")
        workflow = builder.build()
        expected = evaluate_centralized(workflow, tiny_records)
        assert_bit_identical(
            run_inproc(workflow, tiny_records).result, expected
        )
        result, _report = run_mp(workflow, tiny_records)
        assert_bit_identical(result, expected)

    def test_blocks_differing_on_non_annotated_axis_keep_own_rows(
        self, tiny_schema, window
    ):
        key = DistributionKey.of(
            tiny_schema, {"x": "four", "t": ("span", -1, 0)}
        )
        scheme = BlockScheme(key, {"t": 8})
        # x-four groups 0 and 1 share the one t block.
        records = [(1, 4, 2), (2, 9, 5), (5, 4, 7), (6, 30, 1)]
        assert {scheme.home_block(r) for r in records} == {(0, 0), (1, 0)}
        reducer = TaskReducer([(window, scheme)])
        for own, x_values in (((0, 0), {1, 2}), ((1, 0), {5, 6})):
            rows, owned_rows = reducer.reduce(
                0, np.array([own]), records=records
            )
            assert {coords[0] for _name, coords, _value in rows} == x_values
            assert owned_rows.tolist() == [len(rows)]
        # Both blocks in one task: each region exactly once, as the
        # oracle computes it.
        plan = QueryPlan([
            (window, Plan(scheme=scheme, num_reducers=1,
                          predicted_max_load=0.0, strategy="manual")),
        ])
        assert_bit_identical(
            run_inproc(window, records, plan).result,
            evaluate_centralized(window, records),
        )
