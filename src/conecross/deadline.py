"""The deadline every search checks, and the entry points' one-thread check."""

from __future__ import annotations

import time


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


def require_one_thread(threads: int) -> None:
    """Refuse any ``threads`` but 1: every search runs in this process.

    The keyword stays on the entry points that the benchmark calls with
    ``threads=1`` until the benchmark stops passing it.
    """
    if threads != 1:
        raise ValueError(f"threads={threads}: searches run in one process; only 1 is accepted")
