"""The functional write-pending-queue redo buffer (§III-A).

This is the *semantic* model of LightWSP's central trick: every store is
quarantined in its target MC's battery-backed WPQ, tagged with its region
ID, and reaches PM only when the region commits.  Power failure discards
everything still quarantined, so PM is never corrupted by the stores of a
power-interrupted region.

The timing counterpart lives in :mod:`repro.sim.mc`; this class is used by
the functional :class:`~repro.core.machine.PersistentMachine`, whose
crash-consistency property tests are the proof that the protocol recovers
correctly.

Entries are stored in per-region buckets (keyed by region ID, FIFO within
each bucket) with a global arrival sequence, so the hot path — region
commit popping its entries — is O(region size) instead of rebuilding the
whole queue, while every arrival-order view (:attr:`entries`,
:meth:`search`, :meth:`snapshot`) still sees the exact FIFO the bounded
buffer models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["WPQEntry", "FunctionalWPQ", "WPQFullError"]


class WPQFullError(Exception):
    """Raised when a store cannot be quarantined; the §IV-D deadlock
    fallback must run."""


@dataclass(slots=True)
class WPQEntry:
    region: int
    word: int
    value: int


class FunctionalWPQ:
    """One MC's WPQ: a bounded redo buffer, FIFO within each region."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("WPQ capacity must be positive")
        self.capacity = capacity
        self._count = 0
        self._seq = 0
        #: region -> [(arrival seq, entry)] in arrival order
        self._buckets: Dict[int, List[Tuple[int, WPQEntry]]] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    @property
    def entries(self) -> List[WPQEntry]:
        """All quarantined entries in global arrival (FIFO) order."""
        merged = [p for bucket in self._buckets.values() for p in bucket]
        merged.sort()
        return [entry for _, entry in merged]

    def put(self, region: int, word: int, value: int) -> None:
        if self._count >= self.capacity:
            raise WPQFullError(
                "WPQ full (%d entries) on store to word %d" % (self.capacity, word)
            )
        bucket = self._buckets.get(region)
        if bucket is None:
            bucket = self._buckets[region] = []
        bucket.append((self._seq, WPQEntry(region, word, value)))
        self._seq += 1
        self._count += 1

    def put_many(self, region: int, pairs: List[Tuple[int, int]]) -> int:
        """Bulk :meth:`put` of one region's ``(word, value)`` stores.

        All-or-nothing: raises :class:`WPQFullError` without admitting
        anything when the batch does not fit, so callers needing the
        per-store overflow fallback must fall back to :meth:`put`.
        Returns the new occupancy."""
        if self._count + len(pairs) > self.capacity:
            raise WPQFullError(
                "WPQ full (%d entries) on bulk admit of %d stores"
                % (self.capacity, len(pairs))
            )
        bucket = self._buckets.get(region)
        if bucket is None:
            bucket = self._buckets[region] = []
        seq = self._seq
        append = bucket.append
        for word, value in pairs:
            append((seq, WPQEntry(region, word, value)))
            seq += 1
        self._seq = seq
        self._count += len(pairs)
        return self._count

    # ------------------------------------------------------------------
    def regions_present(self) -> List[int]:
        return sorted(self._buckets)

    def has_region(self, region: int) -> bool:
        return region in self._buckets

    def pop_region(self, region: int) -> List[WPQEntry]:
        """Remove and return the region's entries in arrival (FIFO) order —
        the bulk flush that commits the region to PM."""
        bucket = self._buckets.pop(region, None)
        if bucket is None:
            return []
        self._count -= len(bucket)
        return [entry for _, entry in bucket]

    def discard_region(self, region: int) -> int:
        """Drop a power-interrupted region's entries (they vanish with the
        failure).  Returns how many were dropped."""
        bucket = self._buckets.pop(region, None)
        if bucket is None:
            return 0
        self._count -= len(bucket)
        return len(bucket)

    def discard_all(self) -> int:
        dropped = self._count
        self._buckets.clear()
        self._count = 0
        return dropped

    # ------------------------------------------------------------------
    def search(self, word: int) -> Optional[int]:
        """CAM search (§IV-H): the *youngest* matching entry's value, or
        None on a miss."""
        best_seq = -1
        best: Optional[int] = None
        for bucket in self._buckets.values():
            for seq, entry in bucket:
                if entry.word == word and seq > best_seq:
                    best_seq = seq
                    best = entry.value
        return best

    def snapshot(self) -> List[Tuple[int, int, int]]:
        return [(e.region, e.word, e.value) for e in self.entries]
