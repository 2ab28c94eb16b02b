"""Region-ID management (§IV-B, §IV-C).

The paper's hardware manages region IDs with a global atomic counter: at
every region boundary the executing thread broadcasts the ID of the region
it is ending and obtains a fresh ID with an atomic fetch-and-increment.
Because the compiler places a boundary before every synchronization
instruction, the ID allocation points of conflicting threads are ordered
by the synchronization itself, so the ID sequence respects the program's
happens-before order — the property lazy region-level persist ordering
relies on to flush conflicting stores in the right order.

Each thread *owns* its current ID (all-or-nothing recovery is per thread
region).  The machine keeps one current ID per thread across every
rotation of its round-robin schedule, which is the "virtualization" of
§IV-C: a thread scheduled out mid-region resumes under its own ID.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["RegionIdAllocator"]


class RegionIdAllocator:
    """Global atomic counter + per-thread current region IDs."""

    def __init__(self) -> None:
        self._next = 0
        self.current: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def start_thread(self, tid: int) -> int:
        """A new hardware context claims its first region ID."""
        rid = self._next
        self._next += 1
        self.current[tid] = rid
        return rid

    def boundary(self, tid: int) -> int:
        """End ``tid``'s current region: returns the ended region's ID and
        atomically assigns the thread a fresh one."""
        ended = self.current[tid]
        self.current[tid] = self._next
        self._next += 1
        return ended

    def region_of(self, tid: int) -> int:
        return self.current[tid]

    @property
    def allocated(self) -> int:
        """Total IDs handed out (the exclusive upper bound of the ID
        space — the commit pipeline walks [0, allocated))."""
        return self._next
