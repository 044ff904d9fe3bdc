"""Event-kind encoding for the machine's chunk protocol.

The interpreter lowers loops into *chunks*: parallel arrays of
(kind, page, compute-cost) triples that the machine replays in one tight
loop.  Kinds are plain ints (not enum members) in the hot path; the
:class:`EventKind` enum is the readable face of the same values.

Kinds up to RELEASE are *page events*: ``cost`` is compute charged
before the event.  The rest are *call events*, the standalone machine
calls of a fused loop nest: each first flushes the pending compute and
overhead exactly as a chunk end does, then makes its call.
"""

from __future__ import annotations

import enum


class EventKind(enum.IntEnum):
    """What one chunk event does."""

    #: Demand read of a page.
    READ = 0
    #: Demand write of a page (read-modify-write collapses to this).
    WRITE = 1
    #: Single-page compiler-inserted prefetch (indirect references).
    PREFETCH = 2
    #: Single-page release.
    RELEASE = 3
    #: Call event: ``compute(cost)`` (a leaf's tail, a work statement's
    #: compute, a pure-compute leaf).  The page is unused.
    COMPUTE = 4
    #: Call event: one block or bundled hint, whose arguments are the
    #: chunk's next ``calls`` row.  Page and cost are unused.
    HINT = 5


READ = int(EventKind.READ)
WRITE = int(EventKind.WRITE)
PREFETCH = int(EventKind.PREFETCH)
RELEASE = int(EventKind.RELEASE)
COMPUTE = int(EventKind.COMPUTE)
HINT = int(EventKind.HINT)
