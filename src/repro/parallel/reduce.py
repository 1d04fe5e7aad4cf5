"""The reduce task both executors share: evaluate once, keep home rows.

A reduce task holds many blocks, and under annotated keys those blocks
overlap: a record near a block boundary is copied into every block
whose extended range needs it.  Instead of running the local sort/scan
once per block, a task evaluates its records once per component --
each input record exactly once, however many of the task's blocks it
was copied into -- and keeps only the rows whose *home* block (see
:meth:`~repro.distribution.clustering.BlockScheme.make_home_locator`)
is one of the task's blocks.

This is exact.  Feasibility (Theorems 1-2) means a block holds every
record of every region in its extended range, so a region homed in the
task gets its complete input, exactly once.  Records that only the
task's other blocks needed lie outside that block's extended range, so
they can change only rows homed elsewhere, which the filter drops: no
aggregate is split or counted twice.

The in-process executor calls :meth:`TaskReducer.reduce` from the
engine's ``reduce_task`` hook; multiprocess workers call it directly on
the deduplicated rows their bucket ships.  Both executors route records
into one shape -- block keys, replica counts per block, one flat
block-major row-index array -- with the batch router
(``make_batch_router(...)(batch, flat=True)``) or, for records no batch
can hold, with :func:`route_records`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress, repeat
from typing import Callable, Sequence

import numpy as np

from repro.local.sortscan import LocalStats
from repro.local.vectorized import VectorizedBlockEvaluator


class TaskReducer:
    """Evaluates one reduce task's input per plan component.

    *components* lists ``(workflow, block scheme)`` pairs in the order
    block keys number them (their leading component index).  Each
    component evaluates with :class:`VectorizedBlockEvaluator`, which
    falls back to the scalar evaluator for holistic aggregates and
    non-integer data.
    """

    def __init__(self, components: Sequence[tuple], tracer=None):
        self._components = [
            (
                VectorizedBlockEvaluator(workflow, tracer=tracer),
                [
                    (
                        measure.name,
                        scheme.make_home_locator(measure.granularity),
                    )
                    for measure in workflow.measures
                ],
            )
            for workflow, scheme in components
        ]

    def reduce(
        self,
        index: int,
        owned: np.ndarray,
        records=None,
        basic_tables=None,
        stats: LocalStats | None = None,
    ) -> tuple[list, np.ndarray]:
        """Evaluate component *index* over one task's input.

        *owned* holds the component block keys the task holds, one row
        per block and one column per attribute.  The input is either
        *records* (a list or :class:`~repro.cube.batches.RecordBatch`
        with each input record once) or early aggregation's merged
        *basic_tables*.  Returns ``(rows, owned_rows)``: the
        ``(measure, coords, value)`` rows homed in the task's blocks,
        and per owned block the number of those rows it owns.
        """
        evaluator, locators = self._components[index]
        result = evaluator.evaluate(
            records, stats=stats, basic_tables=basic_tables
        )
        rows: list = []
        owned_rows = np.zeros(len(owned), dtype=np.int64)
        for name, locate in locators:
            values = result[name].values
            if not values:
                continue
            coords = list(values)
            owners = locate(owned, np.array(coords, dtype=np.int64))
            keep = owners >= 0
            owned_rows += np.bincount(owners[keep], minlength=len(owned))
            mask = keep.tolist()
            rows.extend(
                zip(
                    repeat(name),
                    compress(coords, mask),
                    compress(values.values(), mask),
                )
            )
        return rows, owned_rows


def route_records(
    records: Sequence, blocks_of: Callable, prefix: tuple = ()
) -> tuple[list, np.ndarray, np.ndarray]:
    """Route records one by one into the batch router's flat shape.

    *blocks_of* is a :meth:`~repro.distribution.clustering.BlockScheme.
    make_mapper` router.  Returns ``(keys, rows, counts)``: the block
    keys (each prefixed with *prefix*) in first-seen order, the record
    positions of every block, block-major and ascending within a block,
    and the number of positions per block.
    """
    blocks: dict[tuple, list] = defaultdict(list)
    for position, record in enumerate(records):
        for block_key in blocks_of(record):
            blocks[prefix + block_key].append(position)
    members = list(blocks.values())
    counts = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    rows = np.fromiter(
        chain.from_iterable(members), dtype=np.int64, count=int(counts.sum())
    )
    return list(blocks), rows, counts
