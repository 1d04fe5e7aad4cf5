"""Shared-memory shuffle: zero-copy round trips and guaranteed cleanup.

The shm transport is pure plumbing: whatever travels through a segment
must come back bit-identical to the pickled-bucket path, and every
segment must be unlinked by the time an evaluation returns -- success,
failure, or chaos.  ``leaked_segments()`` scans ``/dev/shm`` for this
repo's prefix, so a leak anywhere fails loudly here.
"""

import numpy as np
import pytest

from repro.cube.batches import RecordBatch
from repro.faults import FaultPlan, RetryPolicy
from repro.local.sortscan import evaluate_centralized
from repro.parallel.multiprocess import MultiprocessEvaluator
from repro.parallel.shm import (
    SegmentRegistry,
    ShmBucket,
    leaked_segments,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def no_leaks_before_or_after():
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class TestSegmentRegistry:
    def test_create_release_unlink(self):
        registry = SegmentRegistry()
        segment = registry.create(128)
        name = segment.name
        segment.close()
        assert name in leaked_segments()
        registry.release(name)
        assert leaked_segments() == []
        # Idempotent: releasing again (or unlinking all) is a no-op.
        registry.release(name)
        registry.unlink_all()

    def test_unlink_all_clears_everything(self):
        registry = SegmentRegistry()
        for _ in range(3):
            registry.create(64).close()
        assert len(leaked_segments()) == 3
        assert registry.created_bytes > 0
        registry.unlink_all()
        assert leaked_segments() == []


def _bucket_fixture(schema, records):
    batch = RecordBatch.from_records(schema, records)
    assert batch is not None
    rows = np.arange(len(batch), dtype=np.int64)
    keys = np.array([[0, 0, 0], [0, 0, 1], [1, 2, 0]], dtype=np.int64)
    component_rows = [rows, rows[: len(batch) // 2]]
    return batch, keys, component_rows


class TestShmBucketRoundTrip:
    def test_int_plane_round_trip(self, tiny_schema, tiny_records):
        batch, keys, component_rows = _bucket_fixture(
            tiny_schema, tiny_records
        )
        registry = SegmentRegistry()
        try:
            bucket = ShmBucket.build(registry, batch, keys, component_rows)
            assert bucket.num_blocks == len(keys)
            view = bucket.attach()
            # Compare inside a frame so every derived view is dead
            # before close() -- the same discipline the worker follows.
            self._assert_round_trip(
                view, tiny_schema, batch, keys, component_rows
            )
            view.close()
        finally:
            registry.unlink_all()

    @staticmethod
    def _assert_round_trip(view, schema, batch, keys, component_rows):
        rebuilt = view.batch(schema)
        assert np.array_equal(rebuilt.matrix, batch.matrix)
        assert np.array_equal(view.keys(), keys)
        attached = view.component_rows()
        assert len(attached) == len(component_rows)
        for want, got in zip(component_rows, attached):
            assert np.array_equal(want, got)

    def test_typed_columns_round_trip(self, tiny_schema):
        records = [
            (1, "red", 2.5),
            (2, None, -1.0),
            (3, "blue", 0.0),
            (4, "red", 9.25),
        ]
        from repro.cube.domains import UniformHierarchy
        from repro.cube.records import Attribute, Schema

        x = UniformHierarchy("x", {"value": 1}, base_cardinality=8)
        schema = Schema([Attribute("x", x)], facts=["color", "v"])
        batch = RecordBatch.from_records(schema, records)
        assert batch is not None and batch.matrix is None
        rows = np.arange(len(batch), dtype=np.int64)
        registry = SegmentRegistry()
        try:
            bucket = ShmBucket.build(
                registry, batch, np.array([[0, 0]]), [rows]
            )
            view = bucket.attach()
            rebuilt = view.batch(schema)
            assert rebuilt.to_records() == records
            del rebuilt
            view.close()
        finally:
            registry.unlink_all()


class TestTransportKnob:
    @pytest.fixture
    def setup(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        return tiny_workflow, tiny_records, oracle

    def test_shm_and_pickle_bit_identical(self, setup):
        workflow, records, oracle = setup
        shm_eval = MultiprocessEvaluator(processes=2, transport="shm")
        pickle_eval = MultiprocessEvaluator(
            processes=2, transport="pickle"
        )
        shm_result, shm_report = shm_eval.evaluate(
            workflow, records, num_partitions=4, columnar=True
        )
        pickle_result, pickle_report = pickle_eval.evaluate(
            workflow, records, num_partitions=4, columnar=True
        )
        assert shm_result == pickle_result == oracle
        assert shm_report.transport == "shm"
        assert shm_report.shm_bytes > 0
        assert shm_report.transport_bytes_per_second > 0
        assert pickle_report.transport == "columnar"
        assert pickle_report.shm_bytes == 0
        # The descriptor shipped per shm bucket is tiny next to the
        # deflated column buffers it replaces.
        assert shm_report.shipped_bytes < pickle_report.shipped_bytes

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            MultiprocessEvaluator(processes=2, transport="carrier-pigeon")

    def test_scalar_records_ignore_transport(self, setup):
        workflow, records, oracle = setup
        evaluator = MultiprocessEvaluator(processes=2, transport="shm")
        result, report = evaluator.evaluate(
            workflow, records, num_partitions=4, columnar=False
        )
        assert result == oracle
        assert report.transport == "records"
        assert report.shm_bytes == 0


@pytest.mark.faults
class TestShmUnderChaos:
    def test_chaos_leaves_no_segments(self, tiny_workflow, tiny_records):
        oracle = evaluate_centralized(tiny_workflow, tiny_records)
        for seed in (1, 2):
            evaluator = MultiprocessEvaluator(
                processes=2,
                transport="shm",
                fault_plan=FaultPlan(
                    worker_kill_probability=0.15,
                    task_failure_probability=0.2,
                    seed=seed,
                ),
                retry_policy=RetryPolicy(max_attempts=6, backoff_base=0.0),
            )
            result, report = evaluator.evaluate(
                tiny_workflow, tiny_records, num_partitions=4,
                columnar=True,
            )
            assert result == oracle, f"chaos seed {seed}"
            assert report.transport == "shm"
            assert leaked_segments() == [], f"chaos seed {seed}"
