"""How many workers binsed's pools start.  ``cpu_count`` sizes the TDOA
threads, which split each clip into one task per CPU; ``pool_size`` sizes
the fold processes from the command's job count.  Callers look both up on
the module at call time, so one replacement of ``cpu_count`` forces every
pool."""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def pool_size(jobs: int, cpus: int) -> int:
    """Workers for ``jobs`` jobs of about equal length on ``cpus`` CPUs.

    One worker per CPU leaves cores idle in the last round when the CPUs do
    not divide the jobs: 3 folds on 2 CPUs train two folds back to back on
    one core while the other waits.  So take the fewest workers, from one
    per CPU up to two per CPU, whose last round holds no jobs or at least
    one per CPU; the kernel's time-sharing then keeps every core busy until
    the pool ends.  If none fits, one worker per CPU, never more than the
    jobs.
    """
    fewest = min(cpus, jobs)
    for workers in range(fewest, min(jobs, 2 * cpus) + 1):
        last_round = jobs % workers
        if last_round == 0 or last_round >= cpus:
            return workers
    return fewest
