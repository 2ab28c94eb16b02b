"""Distribution analyses over dynamic traces (§V-G3's deeper cut).

The paper reports scalar region statistics (91.33 instructions, 11.29
stores per region).  These helpers compute the full distributions —
per-region instruction and store counts, persist-entry interarrival gaps
— which is what you need to *verify* the threshold argument of §IV-A: the
store-count histogram must sit below the threshold with room to spare,
and the interarrival distribution tells you how close the persist path
runs to its bandwidth limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..trace import EK, TraceEvent

__all__ = ["Histogram", "region_size_histograms", "store_gap_histogram"]


@dataclass
class Histogram:
    """A tiny integer histogram with summary statistics."""

    counts: Dict[int, int] = field(default_factory=dict)

    def add(self, value: int) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> float:
        if not self.counts:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / self.n

    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    def min(self) -> int:
        return min(self.counts) if self.counts else 0

    def percentile(self, p: float) -> int:
        """The smallest value with cumulative share >= p (0 < p <= 1)."""
        if not self.counts:
            return 0
        if not 0.0 < p <= 1.0:
            raise ValueError("percentile wants 0 < p <= 1")
        target = p * self.n
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= target:
                return value
        return self.max()

    def share_at_most(self, value: int) -> float:
        """Fraction of samples <= value."""
        if not self.counts:
            return 1.0
        within = sum(c for v, c in self.counts.items() if v <= value)
        return within / self.n

    def buckets(self, width: int = 4) -> List[Tuple[str, int]]:
        """Fixed-width buckets for display."""
        if not self.counts:
            return []
        top = self.max()
        out: List[Tuple[str, int]] = []
        lo = 0
        while lo <= top:
            hi = lo + width - 1
            total = sum(
                c for v, c in self.counts.items() if lo <= v <= hi
            )
            if total:
                out.append(("%d-%d" % (lo, hi), total))
            lo += width
        return out


def region_size_histograms(
    events: Sequence[TraceEvent],
) -> Tuple[Histogram, Histogram]:
    """Per-region (instructions, store-like entries) histograms, computed
    per thread (a region belongs to one thread; boundaries end it).  The
    trailing open region of each thread is excluded, as in §V-G3."""
    insts = Histogram()
    stores = Histogram()
    per_tid: Dict[int, List[int]] = {}
    for ev in events:
        if ev.kind == EK.HALT:
            continue
        counter = per_tid.setdefault(ev.tid, [0, 0])
        counter[0] += 1
        if ev.is_store_like():
            counter[1] += 1
        if ev.kind == EK.BOUNDARY:
            insts.add(counter[0])
            stores.add(counter[1])
            per_tid[ev.tid] = [0, 0]
    return insts, stores


def store_gap_histogram(events: Sequence[TraceEvent]) -> Histogram:
    """Instruction gaps between successive persist-path entries (per
    thread).  The gap distribution against the path's service interval
    (4 cycles at 4 GB/s) predicts front-end back-pressure (Fig. 15)."""
    gaps = Histogram()
    last_seen: Dict[int, int] = {}
    position: Dict[int, int] = {}
    for ev in events:
        if ev.kind == EK.HALT:
            continue
        pos = position.get(ev.tid, 0)
        position[ev.tid] = pos + 1
        if ev.is_store_like():
            if ev.tid in last_seen:
                gaps.add(pos - last_seen[ev.tid])
            last_seen[ev.tid] = pos
    return gaps
