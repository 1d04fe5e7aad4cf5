"""Tests for block assignment, replication and result filtering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube.domains import ALL_VALUE
from repro.cube.regions import Granularity
from repro.distribution.clustering import BlockScheme, match_rows
from repro.distribution.keys import DistributionError, DistributionKey


@pytest.fixture
def annotated_key(tiny_schema):
    return DistributionKey.of(
        tiny_schema, {"x": "four", "t": ("span", -1, 0)}
    )


class TestSchemeBasics:
    def test_defaults_cf_one(self, annotated_key):
        scheme = BlockScheme(annotated_key)
        assert scheme.factor("t") == 1
        assert scheme.factor("x") == 1  # non-annotated attrs report 1

    def test_rejects_foreign_cf(self, annotated_key):
        with pytest.raises(DistributionError, match="non-annotated"):
            BlockScheme(annotated_key, {"x": 2})

    def test_rejects_cf_below_one(self, annotated_key):
        with pytest.raises(DistributionError):
            BlockScheme(annotated_key, {"t": 0})

    def test_owned_range(self, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 3})
        assert scheme.owned_range("t", 0) == (0, 2)
        assert scheme.owned_range("t", 1) == (3, 5)
        # t has 8 spans (32 ticks / 4); the last block is clipped.
        assert scheme.max_block_index("t") == 2
        assert scheme.owned_range("t", 2) == (6, 7)

    def test_num_blocks(self, tiny_schema, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 2})
        # x: 4 "four"-level values; t: ceil(8 spans / cf 2) = 4 blocks.
        assert scheme.num_blocks() == 16
        bare = BlockScheme(DistributionKey.of(tiny_schema, {"x": "four"}))
        assert bare.num_blocks() == 4

    def test_expected_replication(self, annotated_key):
        assert BlockScheme(annotated_key, {"t": 1}).expected_replication() == 2.0
        assert BlockScheme(annotated_key, {"t": 4}).expected_replication() == 1.25


class TestMapper:
    def test_non_overlapping_single_block(self, tiny_schema):
        key = DistributionKey.of(tiny_schema, {"x": "four", "t": "span"})
        mapper = BlockScheme(key).make_mapper()
        assert mapper((7, 13, 0)) == [(1, 3)]

    def test_overlap_replicates_to_future_owners(self, annotated_key):
        # Annotation (-1, 0): a block needs its preceding span, so a
        # record is also shipped to the block owning the NEXT span.
        scheme = BlockScheme(annotated_key, {"t": 1})
        mapper = scheme.make_mapper()
        blocks = mapper((0, 4, 0))  # span 1
        assert blocks == [(0, 1), (0, 2)]

    def test_clustering_merges_destinations(self, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 2})
        mapper = scheme.make_mapper()
        # span 1 -> home block 0; next owner span 2 is block 1.
        assert mapper((0, 4, 0)) == [(0, 0), (0, 1)]
        # span 2 -> home block 1 only (span 3 also in block 1).
        assert mapper((0, 8, 0)) == [(0, 1)]

    def test_edge_clamping(self, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 1})
        mapper = scheme.make_mapper()
        last_span_record = (0, 31, 0)  # span 7, the final one
        assert mapper(last_span_record) == [(0, 7)]

    def test_home_block(self, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 2})
        assert scheme.home_block((7, 13, 0)) == (1, 1)  # span 3 // 2

    @settings(deadline=None, max_examples=60)
    @given(
        x=st.integers(0, 15),
        t=st.integers(0, 31),
        cf=st.integers(1, 8),
        low=st.integers(-3, 0),
        high=st.integers(0, 2),
    )
    def test_record_reaches_exactly_needed_blocks(
        self, tiny_schema, x, t, cf, low, high
    ):
        """A block receives a record iff the record's coordinate lies in
        the block's owned-range extended by the annotation interval."""
        if low == 0 and high == 0:
            high = 1  # an unannotated component cannot carry a cf
        key = DistributionKey.of(tiny_schema, {"t": ("span", low, high)})
        scheme = BlockScheme(key, {"t": cf})
        mapper = scheme.make_mapper()
        record = (x, t, 0)
        coordinate = t // 4  # span level
        got = {block[1] for block in mapper(record)}
        expected = set()
        for block in range(scheme.max_block_index("t") + 1):
            own_low, own_high = scheme.owned_range("t", block)
            if own_low + low <= coordinate <= own_high + high:
                expected.add(block)
        assert got == expected
        assert scheme.home_block(record)[1] in got


class TestResultFilter:
    """The home locator: which owned block (if any) keeps each row."""

    @staticmethod
    def _locate(scheme, granularity, owned, coords):
        locate = scheme.make_home_locator(granularity)
        return locate(
            np.array(owned, dtype=np.int64), np.array(coords, dtype=np.int64)
        ).tolist()

    def test_partitions_results(self, tiny_schema, annotated_key):
        scheme = BlockScheme(annotated_key, {"t": 2})
        granularity = Granularity.of(tiny_schema, {"x": "value", "t": "tick"})
        # Block (x-four=0, t-block=1) owns spans 2..3, i.e. ticks 8..15;
        # it sits second among the task's blocks.
        owned = [(3, 0), (0, 1)]
        coords = [(3, 8), (3, 15), (3, 7), (3, 16), (13, 1)]
        assert self._locate(scheme, granularity, owned, coords) == [
            1, 1, -1, -1, 0,
        ]

    def test_every_region_owned_exactly_once(self, tiny_schema):
        key = DistributionKey.of(tiny_schema, {"t": ("span", -2, 1)})
        scheme = BlockScheme(key, {"t": 3})
        granularity = Granularity.of(tiny_schema, {"t": "tick"})
        coords = [(ALL_VALUE, tick) for tick in range(32)]
        owners = np.zeros(32, dtype=int)
        for block in range(scheme.max_block_index("t") + 1):
            found = self._locate(
                scheme, granularity, [(ALL_VALUE, block)], coords
            )
            owners += np.array(found) == 0
        assert owners.tolist() == [1] * 32

    def test_rejects_measure_coarser_than_key(self, tiny_schema):
        key = DistributionKey.of(tiny_schema, {"t": ("tick", -1, 0)})
        scheme = BlockScheme(key)
        coarse = Granularity.of(tiny_schema, {"x": "four"})  # t at ALL
        with pytest.raises(DistributionError, match="coarser"):
            scheme.make_home_locator(coarse)

    def test_non_annotated_axis_is_checked(self, tiny_schema):
        # One block shares its non-annotated coordinate, but a reduce
        # task holds several blocks that differ on it.
        key = DistributionKey.of(tiny_schema, {"x": "four"})
        scheme = BlockScheme(key)
        granularity = Granularity.of(tiny_schema, {"x": "value"})
        owned = [(2, ALL_VALUE)]
        coords = [(11, ALL_VALUE), (8, ALL_VALUE), (0, ALL_VALUE)]
        assert self._locate(scheme, granularity, owned, coords) == [0, 0, -1]

    def test_unpackable_keys_match_row_wise(self, monkeypatch):
        from repro import kernels

        monkeypatch.setattr(kernels, "pack_rows", lambda *args: None)
        table = np.array([[5, 1], [2, 7], [9, 9]])
        rows = np.array([[2, 7], [9, 9], [2, 1], [5, 1]])
        assert match_rows(table, rows).tolist() == [1, 2, -1, 0]
