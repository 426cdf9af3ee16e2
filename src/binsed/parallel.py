"""The CPU count that sizes binsed's worker pools (TDOA threads, fold
processes).  Callers look it up as ``parallel.cpu_count`` at call time, so
one replacement forces every pool."""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1
