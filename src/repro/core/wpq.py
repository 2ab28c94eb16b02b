"""The functional write-pending-queue redo buffer (§III-A).

This is the *semantic* model of LightWSP's central trick: every store is
quarantined in its target MC's battery-backed WPQ, tagged with its region
ID, and reaches PM only when the region commits.  Power failure discards
everything still quarantined, so PM is never corrupted by the stores of a
power-interrupted region.

The timing counterpart, with the §IV-H CAM search, lives in
:mod:`repro.sim.mc`; this class is used by the functional
:class:`~repro.core.machine.PersistentMachine`, whose crash-consistency
property tests are the proof that the protocol recovers correctly.

Stores wait under their region and leave with it, so a WPQ is one *run*
per region: the ``(word, value)`` pairs it holds, in arrival order.  A
popped run goes to PM with ``pm.update(run)``, which applies the pairs in
order, so the region's last store to a word wins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["FunctionalWPQ", "WPQFullError"]


class WPQFullError(Exception):
    """Raised when a store cannot be quarantined; the §IV-D deadlock
    fallback must run."""


class FunctionalWPQ:
    """One MC's WPQ: a bounded redo buffer of per-region runs."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("WPQ capacity must be positive")
        self.capacity = capacity
        self._count = 0
        #: region -> its (word, value) run, in arrival order
        self.runs: Dict[int, List[Tuple[int, int]]] = {}

    def __len__(self) -> int:
        return self._count

    def put(self, region: int, word: int, value: int) -> None:
        if self._count >= self.capacity:
            raise WPQFullError(
                "WPQ full (%d entries) on store to word %d" % (self.capacity, word)
            )
        run = self.runs.get(region)
        if run is None:
            self.runs[region] = [(word, value)]
        else:
            run.append((word, value))
        self._count += 1

    def put_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        """Bulk :meth:`put` of one region's ``(word, value)`` stores.

        All-or-nothing: raises :class:`WPQFullError` without admitting
        anything when the batch does not fit, so callers needing the
        per-store overflow fallback must fall back to :meth:`put`.
        Returns the new occupancy."""
        count = self._count + len(stores)
        if count > self.capacity:
            raise WPQFullError(
                "WPQ full (%d entries) on bulk admit of %d stores"
                % (self.capacity, len(stores))
            )
        run = self.runs.get(region)
        if run is None:
            self.runs[region] = list(stores)
        else:
            run.extend(stores)
        self._count = count
        return count

    def pop_region(self, region: int) -> List[Tuple[int, int]]:
        """Remove and return the region's run — the bulk flush that
        commits the region to PM."""
        run = self.runs.pop(region, None)
        if run is None:
            return []
        self._count -= len(run)
        return run

    def discard_all(self) -> int:
        dropped = self._count
        self.runs.clear()
        self._count = 0
        return dropped
