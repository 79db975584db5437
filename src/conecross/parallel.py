"""Sizing of the process pools that fan search work out to workers."""

from __future__ import annotations

import os


def worker_count(threads: int, jobs: int) -> int:
    """Processes to start for ``jobs`` independent jobs at ``threads`` requested.

    Never more than the machine's CPUs or the number of jobs, and at least
    one, so an extreme ``threads`` setting cannot start an unbounded pool.
    """
    return max(1, min(threads, os.cpu_count() or 1, jobs))
