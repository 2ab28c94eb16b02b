"""Queueing primitives for the timing model.

The simulator is a deterministic discrete-event model built from two
resources:

* :class:`SerialServer` — a unit-rate pipe (the persist path's bandwidth,
  an MC's drain into PM): requests are serviced one at a time, spaced by a
  service interval;
* :class:`SlotPool` — a bounded pool of slots whose release times become
  known later (WPQ entries are released when their region's flush is
  scheduled).  ``acquire`` either grants immediately, grants at the
  earliest known future release, or reports that the caller must block
  until new releases are published.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

__all__ = ["SerialServer", "SlotPool"]


class SerialServer:
    """A serial resource: successive requests finish at least
    ``interval`` apart.  ``service(t)`` returns the completion time of a
    request arriving at ``t``."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.next_free = 0.0

    def service(self, t: float, units: float = 1.0) -> float:
        start = max(t, self.next_free)
        done = start + self.interval * units
        self.next_free = done
        return done

    def service_run(self, t: float, count: int) -> List[float]:
        """Completion times of ``count`` unit requests all arriving at
        ``t`` — one fused update, bit-identical to ``count`` sequential
        :meth:`service` calls (each iteration performs the same max and
        add; only the Python call overhead is fused away)."""
        interval = self.interval
        nf = self.next_free
        releases: List[float] = []
        append = releases.append
        for _ in range(count):
            start = t if t > nf else nf
            nf = start + interval
            append(nf)
        self.next_free = nf
        return releases


class SlotPool:
    """``capacity`` slots; releases are published asynchronously.

    ``acquire(t)`` returns the grant time, or ``None`` when every slot is
    taken and no future release is known yet — the caller must park and
    retry after the next :meth:`release` (the WPQ-full blocking of
    §III-C/§IV-D).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.in_use = 0
        self._releases: List[float] = []  # future release times (heap)

    def acquire(self, t: float) -> Optional[float]:
        if self.in_use < self.capacity:
            self.in_use += 1
            return t
        if not self._releases:
            return None
        release = heapq.heappop(self._releases)
        # The slot changes hands: occupancy stays at capacity.
        return max(t, release)

    def release(self, t: float) -> None:
        """Publish that one slot frees at time ``t``."""
        heapq.heappush(self._releases, t)

    def release_many(self, times: List[float]) -> None:
        for t in times:
            heapq.heappush(self._releases, t)

    @property
    def known_releases(self) -> int:
        return len(self._releases)
