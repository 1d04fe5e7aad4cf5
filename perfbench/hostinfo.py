"""Host facts recorded beside every result.

Identical CPU work on a shared VM can drift by a quarter over minutes,
so each run also times a fixed pure-Python loop at its start and end.
The probe is a record, not a gate: it lets a reader see drift next to
the numbers it may have moved.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import statistics
import time

_PROBE_ITERATIONS = 500_000


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(_PROBE_ITERATIONS):
            total += value * value % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_facts() -> dict:
    """Cores, interpreter and library versions, and backend choices."""
    import numpy

    from repro.kernels import kernels_backend
    from repro.parallel.shm import shm_available

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels_backend(),
        "dev_shm": shm_available(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB.

    ``ru_maxrss`` is in KiB on Linux.  For children it is the peak of
    the largest waited-for child, so a pool of equal workers is counted
    once: this is a lower bound on the simultaneous total.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
