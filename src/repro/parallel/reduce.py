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
the deduplicated rows their bucket ships.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Sequence

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
