"""Memory controllers, WPQs, and the region-commit pipeline.

Two persist disciplines are modelled on the same structures:

* **gated** (LightWSP, Capri): WPQ entries are quarantined per region and
  flushed to PM only after the region's boundary has been broadcast to and
  ACKed by *all* MCs, in strict region-ID order — the lazy region-level
  persist ordering of §III-B/§IV-B;
* **eager** (PPA, cWSP): entries start draining to PM the moment they
  arrive (PPA's eager writeback; cWSP's speculative persistence with undo
  logging, modelled as a per-entry drain-time factor).

The :class:`CommitPipeline` owns the global flush-ID sequencing across
MCs, including the bdry-ACK / flush-ACK exchanges, the §IV-D deadlock
fallback (undo-logged overflow flush), and the bookkeeping the engine
needs for WPQ-hit checks (§IV-H) and persistence-efficiency accounting
(Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from .queues import SerialServer, SlotPool

__all__ = ["AckFaults", "MemoryController", "CommitPipeline", "MCStats"]


@dataclass(frozen=True)
class AckFaults:
    """Timing-level ACK faults for the cycle-approximate engine (the
    functional twin lives in :mod:`repro.faults`): every ``(region, mc)``
    pair in ``dropped`` loses that MC's bdry-ACK once, and the broadcaster
    re-sends after ``timeout_cycles`` — so the region's commit (and, by
    flush-ID order, every younger one) slips by one retry round per drop.
    The protocol still commits everything; the fault costs time, never
    durability."""

    dropped: frozenset = frozenset()
    timeout_cycles: float = 400.0

    def retries_for(self, region: int) -> int:
        return sum(1 for r, _mc in self.dropped if r == region)


@dataclass
class MCStats:
    admitted: int = 0
    flushed: int = 0
    wpq_hits: int = 0
    wpq_probes: int = 0
    overflow_flushes: int = 0
    undo_logged_entries: int = 0


class MemoryController:
    """One integrated MC: WPQ slot pool + PM drain + content tracking."""

    def __init__(
        self,
        config: SystemConfig,
        mc_id: int,
        drain_factor: float = 1.0,
        eager: bool = False,
    ) -> None:
        self.mc_id = mc_id
        self.eager = eager
        self.wpq = SlotPool(config.mc.wpq_entries)
        self.drain_interval = config.wpq_flush_cycles_per_entry * drain_factor
        self.pm_write_cycles = config.pm_write_cycles
        self.drain = SerialServer(self.drain_interval)
        self.stats = MCStats()
        #: regions below this id have committed; stragglers tagged with
        #: them flush immediately (they belong to a persisted epoch)
        self.committed_through = 0
        #: region -> arrival times of entries not yet flushed
        self.pending_entries: Dict[int, List[float]] = {}
        #: region -> latest entry arrival (for flush-window computation)
        self.last_arrival: Dict[int, float] = {}
        #: word address -> [arrival, release-or-None] entries (WPQ search)
        self.contents: Dict[int, List[List[Optional[float]]]] = {}
        #: region -> content records awaiting their flush (release fill-in)
        self.pending_records: Dict[int, List[List[Optional[float]]]] = {}
        #: region -> WPQ-arrival time of its last entry (eager durability)
        self.eager_done: Dict[int, float] = {}
        #: region -> PM-drain completion of its last entry (eager schemes)
        self.eager_flush_done: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def admit(self, region: int, word_addr: int, t_arrival: float) -> Optional[float]:
        """Try to place an entry in the WPQ at ``t_arrival``.  Returns the
        admission time, or None when the caller must block until a release
        is published (WPQ full of unflushed regions)."""
        if not self.eager and region < self.committed_through:
            # A straggler tagged with an already-persisted region: its
            # epoch is durable, so it drains straight through without
            # competing for quarantine slots (it must never be blocked
            # behind younger regions, or the FE head wedges).
            self.stats.admitted += 1
            done = self.drain.service(t_arrival)
            self.contents.setdefault(word_addr, []).append(
                [t_arrival, done + self.pm_write_cycles]
            )
            self.stats.flushed += 1
            return t_arrival
        grant = self.wpq.acquire(t_arrival)
        if grant is None:
            return None
        self.stats.admitted += 1
        record = [grant, None]
        self.contents.setdefault(word_addr, []).append(record)
        if self.eager:
            # Eager schemes drain on arrival.  Durability is reached at
            # WPQ admission (the battery-backed ADR domain), so
            # `eager_done` — what PPA's boundary wait polls — is the
            # admission time; `eager_flush_done` — what Capri's stricter
            # flushed-in-PM wait polls — is the PM landing time.
            done = self.drain.service(grant)
            landed = done + self.pm_write_cycles
            self.wpq.release(done)
            record[1] = landed
            self.eager_done[region] = max(self.eager_done.get(region, 0.0), grant)
            self.eager_flush_done[region] = max(
                self.eager_flush_done.get(region, 0.0), landed
            )
            self.stats.flushed += 1
        else:
            self.pending_entries.setdefault(region, []).append(grant)
            self.pending_records.setdefault(region, []).append(record)
            self.last_arrival[region] = max(
                self.last_arrival.get(region, 0.0), grant
            )
        return grant

    def flush_region(self, region: int, start: float) -> float:
        """Flush the region's quarantined entries to PM beginning at
        ``start``; returns the flush completion time and publishes the
        staggered slot releases."""
        entries = self.pending_entries.pop(region, [])
        begin = max(start, self.last_arrival.get(region, 0.0))
        # The drain server is the only serial resource: successive regions'
        # flushes pipeline through it at PM write bandwidth.  The PM write
        # *latency* is charged on the commit marker by the pipeline, not
        # here, so it overlaps across regions.
        releases = self.drain.service_run(begin, len(entries))
        self.wpq.release_many(releases)
        self.stats.flushed += len(entries)
        end = releases[-1] if releases else begin
        landed = end + self.pm_write_cycles
        for record in self.pending_records.pop(region, []):
            if record[1] is None:
                record[1] = landed
        return end

    def overflow_admit(self, region: int, word_addr: int, t_arrival: float) -> float:
        """§IV-D: while resolving a deadlock, the MC accepts stores of the
        currently persisting region even though the WPQ is full, draining
        them straight to PM with undo logging."""
        self.stats.admitted += 1
        self.stats.undo_logged_entries += 1
        done = self.drain.service(t_arrival, units=2.0)  # write + undo copy
        self.contents.setdefault(word_addr, []).append([t_arrival, done])
        self.stats.flushed += 1
        return t_arrival

    # ------------------------------------------------------------------
    def overflow_flush(self, region: int, now: float) -> float:
        """§IV-D fallback: WPQ is full and no boundary can arrive; flush
        the oldest region's entries *with undo logging* to make room."""
        entries = self.pending_entries.get(region, [])
        self.stats.overflow_flushes += 1
        self.stats.undo_logged_entries += len(entries)
        # Undo logging copies the old value before each write: ~2x drain.
        old_interval = self.drain_interval
        self.drain_interval = old_interval * 2.0
        end = self.flush_region(region, now)
        self.drain_interval = old_interval
        return end

    # ------------------------------------------------------------------
    def search(self, word_addr: int, now: float) -> Tuple[bool, Optional[float]]:
        """WPQ CAM search for an LLC load miss (§IV-H).  Returns
        ``(hit, ready_time)``: on a hit the load must re-issue after the
        entry reaches PM at ``ready_time`` (None when the flush has not
        been scheduled yet — the engine charges a conservative drain).
        Also prunes dead records."""
        self.stats.wpq_probes += 1
        records = self.contents.get(word_addr)
        if not records:
            return False, None
        live = [r for r in records if r[1] is None or r[1] > now]
        if live:
            self.contents[word_addr] = live
        else:
            del self.contents[word_addr]
        for record in live:
            if record[0] <= now:
                self.stats.wpq_hits += 1
                return True, record[1]
        return False, None


class CommitPipeline:
    """Global flush-ID sequencing: regions commit in allocation order, one
    bdry-ACK exchange before flushing and one flush-ACK exchange after
    (§IV-B)."""

    def __init__(
        self,
        config: SystemConfig,
        mcs: List[MemoryController],
        ack_faults: Optional[AckFaults] = None,
    ) -> None:
        self.mcs = mcs
        self.ack_faults = ack_faults
        self.ack_retries = 0
        self.ack_round_trip_cycles = config.ack_round_trip_cycles
        self.pm_write_cycles = config.pm_write_cycles
        self.next_commit = 0
        self.prev_flush_trigger = 0.0
        #: region -> broadcast time, once its boundary has executed
        self.pending_boundaries: Dict[int, float] = {}
        #: region -> commit completion time
        self.commit_end: Dict[int, float] = {}
        #: total persist latency exposed past each boundary (Eq. 1's Tp)
        self.exposed_persist_cycles = 0.0

    # ------------------------------------------------------------------
    def boundary(self, region: int, broadcast_time: float) -> None:
        """A region's boundary was broadcast; commit as far as possible."""
        self.pending_boundaries[region] = broadcast_time
        self._advance()

    def _advance(self) -> None:
        ack = self.ack_round_trip_cycles
        while self.next_commit in self.pending_boundaries:
            region = self.next_commit
            broadcast = self.pending_boundaries.pop(region)
            # bdry-ACK exchange, then flush; successive regions' ACK
            # round-trips pipeline — only each MC's drain bandwidth and
            # the in-order flush trigger serialize commits.
            ack_wait = ack
            if self.ack_faults is not None:
                retries = self.ack_faults.retries_for(region)
                if retries:
                    self.ack_retries += retries
                    ack_wait += retries * self.ack_faults.timeout_cycles
            start = max(broadcast + ack_wait, self.prev_flush_trigger)
            self.prev_flush_trigger = start
            flush_end = start
            for mc in self.mcs:
                flush_end = max(flush_end, mc.flush_region(region, start))
            # commit marker: data lands (one overlapped PM write latency),
            # then the flush-ACK exchange updates every flush ID.
            end = flush_end + self.pm_write_cycles + ack
            self.commit_end[region] = end
            self.exposed_persist_cycles += max(0.0, end - broadcast)
            self.next_commit += 1
            for mc in self.mcs:
                mc.committed_through = self.next_commit

    # ------------------------------------------------------------------
    def force_overflow(self, now: float) -> float:
        """Deadlock resolution: flush the oldest uncommitted region's
        entries with undo logging on every MC.  Returns when slots free."""
        region = self.next_commit
        end = now
        for mc in self.mcs:
            end = max(end, mc.overflow_flush(region, now))
        return end
