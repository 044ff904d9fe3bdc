"""Clock (second-chance) LRU approximation.

Most commercial operating systems of the paper's era -- and Hurricane --
approximate LRU with a clock algorithm; the paper leans on this ("most
commercial operating systems use an approximation of LRU replacement",
Section 2.1).  Resident pages sit on a circular list; the hand clears
reference bits until it finds an unreferenced page, which becomes the
victim.

The implementation uses lazy deletion: pages that leave residency (release,
eviction, reclaim-then-re-release) simply leave stale entries behind, which
the hand discards when it reaches them.  Each insertion stamps the page
with a fresh token so stale entries are recognizable.
"""

from __future__ import annotations

from collections import deque

from repro.errors import MachineError
from repro.vm.page import Page, PageState


class ClockRing:
    """Circular list of resident pages with second-chance eviction."""

    __slots__ = ("_ring", "_live")

    def __init__(self) -> None:
        self._ring: deque[tuple[Page, int]] = deque()
        #: Number of non-stale entries (for diagnostics / invariants).
        self._live = 0

    def insert(self, page: Page) -> None:
        """Add a newly resident page behind the hand (with a new token)."""
        page.ring_token += 1
        page.ref_bit = True
        self._ring.append((page, page.ring_token))
        self._live += 1

    def forget(self, page: Page) -> None:
        """Mark a page's ring entry stale (it left residency)."""
        page.ring_token += 1
        self._live -= 1

    def select_victim(self) -> Page | None:
        """Run the clock hand; returns the victim or None if ring empty.

        The victim is removed from the ring; the caller completes the
        eviction (write-back, state change).
        """
        # Each live entry is touched at most twice (ref bit cleared once),
        # so 2 * len(ring) + stale entries bounds the scan.
        scans = 2 * len(self._ring) + 1
        while self._ring and scans > 0:
            scans -= 1
            page, token = self._ring.popleft()
            if page.ring_token != token or page.state != PageState.RESIDENT:
                continue  # stale entry: drop it
            if page.ref_bit:
                page.ref_bit = False
                self._ring.append((page, token))
                continue
            # Unreferenced resident page: the victim.
            self._live -= 1
            page.ring_token += 1
            return page
        if self._live > 0 and self._ring:
            raise MachineError("clock hand failed to find a victim among live pages")
        return None

    def __len__(self) -> int:
        return len(self._ring)
