"""Deadlines and the one process fan-out that the searches share."""

from __future__ import annotations

import os
import time
from itertools import repeat
from typing import Any, Callable, Sequence

from .graphs import Multigraph


class Deadline:
    """Monotonic deadline; None means unlimited."""

    __slots__ = ("at",)

    def __init__(self, budget_ms: int | None) -> None:
        if budget_ms is not None and budget_ms < 0:
            raise ValueError(f"budget_ms={budget_ms}: must be None or >= 0")
        self.at = time.monotonic() + budget_ms / 1000 if budget_ms is not None else None

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def remaining_ms(self) -> int | None:
        if self.at is None:
            return None
        return max(0, int((self.at - time.monotonic()) * 1000))


def worker_count(threads: int, jobs: int) -> int:
    """Processes to start for ``jobs`` independent jobs at ``threads`` requested.

    Never more than the machine's CPUs or the number of jobs, and at least
    one, so an extreme ``threads`` setting cannot start an unbounded pool.
    """
    return max(1, min(threads, os.cpu_count() or 1, jobs))


def fan_out(
    task: Callable[[Multigraph, Any, Deadline], Any],
    g: Multigraph,
    jobs: Sequence[Any],
    threads: int,
    deadline: Deadline,
) -> list[Any]:
    """``[task(g, job, deadline) for job in jobs]``, in job order.

    One worker (``worker_count``) runs the jobs here against ``deadline``;
    more run them in worker processes.  ``task`` must then be a
    module-level function so that it pickles by name, and each worker
    rebuilds the deadline from the time left when the pool starts, since
    monotonic clocks need not agree across processes.
    """
    workers = worker_count(threads, len(jobs))
    if workers == 1:
        return [task(g, job, deadline) for job in jobs]
    # Imported here: one-worker runs never pay for multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    left = deadline.remaining_ms()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run, repeat(task), repeat(g), jobs, repeat(left)))


def _run(task: Callable, g: Multigraph, job: Any, remaining_ms: int | None) -> Any:
    return task(g, job, Deadline(remaining_ms))
