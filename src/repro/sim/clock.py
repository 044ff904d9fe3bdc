"""The simulated clock.

The whole system runs on simulated time measured in microseconds.  Every
microsecond that passes is attributed to exactly one :class:`TimeCategory`,
which is what lets the harness reproduce the stacked execution-time bars of
the paper's Figure 3(a): user time, system time handling faults, system time
performing prefetches, and idle (I/O stall) time.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import MachineError


class TimeCategory(enum.Enum):
    """Where a slice of simulated time was spent.

    The first five categories are CPU-busy time; the last two are idle time
    during which the CPU waits for the disk subsystem.
    """

    #: Useful application computation.
    USER_COMPUTE = "user_compute"
    #: User-level overhead added by the prefetching transformation: prefetch
    #: address generation plus run-time-layer bit-vector checks.
    USER_OVERHEAD = "user_overhead"
    #: OS time servicing page faults.
    SYS_FAULT = "sys_fault"
    #: OS time servicing prefetch system calls.
    SYS_PREFETCH = "sys_prefetch"
    #: OS time servicing release system calls.
    SYS_RELEASE = "sys_release"
    #: CPU idle, waiting for a disk read (the I/O stall of Figure 3).
    STALL_READ = "stall_read"
    #: CPU idle at program end, waiting for dirty pages to drain to disk.
    STALL_FLUSH = "stall_flush"


#: Categories that count as CPU-busy (everything except stalls).
BUSY_CATEGORIES = frozenset(
    {
        TimeCategory.USER_COMPUTE,
        TimeCategory.USER_OVERHEAD,
        TimeCategory.SYS_FAULT,
        TimeCategory.SYS_PREFETCH,
        TimeCategory.SYS_RELEASE,
    }
)


class Clock:
    """Simulated clock with per-category time accounting."""

    __slots__ = ("now", "_by_category")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._by_category: dict[TimeCategory, float] = {c: 0.0 for c in TimeCategory}

    def advance(self, duration_us: float, category: TimeCategory) -> None:
        """Spend ``duration_us`` microseconds in ``category``."""
        if duration_us < 0:
            raise MachineError(f"cannot advance the clock by {duration_us} us")
        if duration_us:
            self.now += duration_us
            self._by_category[category] += duration_us

    def advance_rows(self, durations: np.ndarray, categories: tuple) -> None:
        """Spend every duration of a ``(rows, len(categories))`` matrix,
        row by row, column ``j`` in ``categories[j]``.

        Bit-identical to one :meth:`advance` per element in row-major
        order: ``np.cumsum`` folds strictly left to right, so the clock
        and each category see the same sequence of additions.
        """
        if durations.size == 0:
            return
        if durations.min() < 0:
            raise MachineError(f"cannot advance the clock by {durations.min()} us")
        self.now = float(np.cumsum(np.append(self.now, durations))[-1])
        by_category = self._by_category
        for category in dict.fromkeys(categories):
            cols = [j for j, c in enumerate(categories) if c is category]
            series = np.append(by_category[category], durations[:, cols])
            by_category[category] = float(np.cumsum(series)[-1])

    def wait_until(self, deadline_us: float, category: TimeCategory) -> float:
        """Idle until ``deadline_us`` (no-op if already past).

        Returns the amount of time actually spent waiting.
        """
        waited = deadline_us - self.now
        if waited <= 0.0:
            return 0.0
        self.now = deadline_us
        self._by_category[category] += waited
        return waited

    def spent(self, category: TimeCategory) -> float:
        """Total time attributed to ``category`` so far."""
        return self._by_category[category]

    def busy_time(self) -> float:
        """Total CPU-busy time (everything except stall categories)."""
        return sum(self._by_category[c] for c in BUSY_CATEGORIES)

    def stall_time(self) -> float:
        """Total idle time (read stalls plus the final flush wait)."""
        return (
            self._by_category[TimeCategory.STALL_READ]
            + self._by_category[TimeCategory.STALL_FLUSH]
        )

    def breakdown(self) -> dict[TimeCategory, float]:
        """A copy of the per-category accounting."""
        return dict(self._by_category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self.now:.1f}us)"
