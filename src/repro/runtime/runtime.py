"""Functional persist runtimes: the crash-semantics half of a backend.

A :class:`PersistRuntime` owns everything between a store retiring and
its words becoming durable: admission onto the persist path, the
region-boundary bookkeeping, commit candidacy and drain ordering, the
crash-time durable-set computation, and the recovery reseed.  The
:class:`~repro.core.machine.PersistentMachine` owns execution (threads,
scheduling, continuations, the I/O log) and delegates every
persistence decision to its runtime through the overridable protocol
hooks — so the fault-injection subsystem keeps one override surface and
each scheme's crash semantics live in exactly one place.

The contract (all hooks the machine calls, in calling order):

=================  ====================================================
``admit``          a store retired; quarantine or persist it.  Returns
                   the resulting WPQ occupancy (0 for path-less
                   schemes) for the machine's high-water stat.
``region_ended``   a region boundary executed (broadcast side).
``next_commit``    the next commit candidate region, or None.
``committable``    may the candidate commit *now*?  (LRPO: boundary
                   broadcast + ACKed everywhere; eager schemes: yes.)
``commit_flush``   move the committing region's quarantined runs to PM
                   (no-op for schemes that persisted at admit).
``mark_committed`` the region is durable: drop its undo log, advance
                   the flush ID / committed set.
``region_durable`` crash-time durable-set membership; drives the
                   recovery resume point and the durable-I/O-log trim.
``resolve_full``   §IV-D overflow fallback (gated schemes only): the
                   victim choice, its flush and undo log, the admit.
``rollback``       crash: undo speculative PM writes of uncommitted
                   regions.  Returns the number of pre-images applied.
``discard``        crash: drop whatever dies with the power (WPQ
                   entries, volatile dirty lines).  Returns the count.
``reseed``         recovery done: reset per-run protocol state; dead
                   region IDs will never commit (footnote 7).
``on_all_halted``  clean completion (memory-mode drains its dirty
                   cache here — the flush that a crash never gets).
=================  ====================================================
"""

from __future__ import annotations

import copy
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Set, Tuple

# repro.core pulls in the compiler package, which imports repro.sim — a
# cycle if resolved while repro.sim.engine is importing this package for
# SchemePolicy.  Runtime uses of repro.core are deferred into methods.
if TYPE_CHECKING:  # pragma: no cover
    from ..core.wpq import FunctionalWPQ

__all__ = [
    "PersistRuntime",
    "LrpoRuntime",
    "EagerUndoRuntime",
    "EadrRuntime",
    "VolatileCacheRuntime",
]


class PersistRuntime:
    """Base class: shared state + the parts every scheme agrees on."""

    #: gated runtimes quarantine stores behind the boundary/ACK protocol;
    #: the fault-injection message layer only applies to these.
    gated = False

    def __init__(self, backend, machine) -> None:
        self.backend = backend
        self.machine = machine
        #: per-MC functional WPQs (empty for schemes without a gated path)
        self.wpqs: List[FunctionalWPQ] = []
        #: regions whose boundary has been broadcast (gated schemes)
        self.boundary_issued: Set[int] = set()
        #: next region the (global) flush ID expects (gated schemes)
        self.committed_upto = 0
        #: region -> {word: pre-overwrite PM value} for crash rollback
        self.undo_log: Dict[int, Dict[int, int]] = {}

    # -- admission ------------------------------------------------------
    def admit(self, region: int, word: int, value: int) -> int:
        raise NotImplementedError

    def admit_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        """Admit a batch of same-region stores in order; returns the
        maximum occupancy any single admission reached (the machine's
        high-water stat).  Must be byte-identical to calling
        :meth:`admit` per store, with the per-store bookkeeping fused
        into one pass."""
        raise NotImplementedError

    def resolve_full(
        self, wpq, region: int, word: int, value: int, undo: bool = True
    ) -> None:
        raise NotImplementedError("overflow fallback is a gated-path event")

    # -- boundaries + commits ------------------------------------------
    def region_ended(self, region: int) -> None:
        raise NotImplementedError

    def next_commit(self):
        raise NotImplementedError

    def committable(self, region: int) -> bool:
        raise NotImplementedError

    def commit_flush(self, region: int) -> None:
        raise NotImplementedError

    def mark_committed(self, region: int) -> None:
        raise NotImplementedError

    # -- crash + recovery ----------------------------------------------
    def region_durable(self, region: int) -> bool:
        raise NotImplementedError

    def rollback(self) -> int:
        from ..core.recovery import rollback_undo

        undone = rollback_undo(self.machine.pm, self.undo_log)
        self.undo_log.clear()
        return undone

    def discard(self) -> int:
        return 0

    def reseed(self, next_region: int) -> None:
        self.committed_upto = next_region
        self.boundary_issued.clear()

    def on_all_halted(self) -> None:
        pass

    # -- introspection + cloning ---------------------------------------
    def occupancy(self) -> List[int]:
        return [len(w) for w in self.wpqs]

    def clone_onto(self, machine) -> "PersistRuntime":
        new = type(self)(self.backend, machine)
        new.wpqs = copy.deepcopy(self.wpqs)
        new.boundary_issued = set(self.boundary_issued)
        new.committed_upto = self.committed_upto
        new.undo_log = {r: dict(w) for r, w in self.undo_log.items()}
        self._clone_extra(new)
        return new

    def _clone_extra(self, new: "PersistRuntime") -> None:
        pass


class LrpoRuntime(PersistRuntime):
    """LightWSP's lazy region-level persist ordering (§III-B, §IV):
    stores quarantine in per-MC WPQs tagged with their region ID and
    reach PM only when the region commits — boundary broadcast + ACK,
    then bulk flush in global flush-ID order.  Power failure discards
    everything still quarantined, so PM is never corrupted by the stores
    of an interrupted region; the §IV-D overflow fallback covers WPQ
    pressure with an undo log."""

    gated = True

    def __init__(self, backend, machine) -> None:
        super().__init__(backend, machine)
        cfg = machine.config.mc
        from ..core.wpq import FunctionalWPQ, WPQFullError

        self.wpqs = [FunctionalWPQ(cfg.wpq_entries) for _ in range(cfg.n_mcs)]
        # cached so the admission hot path skips the per-call import
        # (module-level would close the repro.core <-> repro.sim cycle)
        self._full_error = WPQFullError

    def admit(self, region: int, word: int, value: int) -> int:
        wpq = self.wpqs[self.machine._mc_of_word(word)]
        try:
            wpq.put(region, word, value)
        except self._full_error:
            # through the machine hook so FaultyMachine's no-undo
            # defense-off mode can intercept the fallback
            self.machine._resolve_full(wpq, region, word, value)
        return len(wpq)

    def _by_mc(
        self, stores: List[Tuple[int, int]]
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Group stores by target MC.  Grouping keeps every WPQ's own
        arrival order (and hence its runs and length trajectory) exactly
        what the per-store loop produces, since words never alias
        across MCs."""
        mc_of = self.machine._mc_of_word
        by_mc: Dict[int, List[Tuple[int, int]]] = {}
        for pair in stores:
            mc = mc_of(pair[0])
            group = by_mc.get(mc)
            if group is None:
                by_mc[mc] = [pair]
            else:
                group.append(pair)
        return by_mc

    def admit_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        wpqs = self.wpqs
        resolve = self.machine._resolve_full
        full_error = self._full_error
        occupancy = 0
        for mc, pairs in self._by_mc(stores).items():
            wpq = wpqs[mc]
            try:
                length = wpq.put_many(region, pairs)
            except full_error:
                # overflow: replay this group store-by-store so the
                # §IV-D fallback fires exactly where it classically would
                for word, value in pairs:
                    try:
                        wpq.put(region, word, value)
                    except full_error:
                        resolve(wpq, region, word, value)
                    length = len(wpq)
                    if length > occupancy:
                        occupancy = length
                continue
            if length > occupancy:
                occupancy = length
        return occupancy

    def resolve_full(
        self, wpq, region: int, word: int, value: int, undo: bool = True
    ) -> None:
        """§IV-D deadlock fallback: flush one region's run from this WPQ
        to PM, logging each word's pre-image when ``undo`` is set, then
        quarantine the incoming store normally.

        The flush-ID region is the preferred victim (the paper's rule);
        when it has no entries here (e.g. it belongs to a lock-blocked
        thread), the oldest present region generalizes it safely: per
        word, all conflicting writes of *older* regions have already
        arrived (DRF + the sync-refresh ID ordering), so flushing the
        oldest present never lets an older value overwrite a newer one —
        and the undo log covers crash rollback.  FaultyMachine's
        undo-off defense mode passes ``undo=False``."""
        machine = self.machine
        stats = machine.stats
        stats.overflow_events += 1
        runs = wpq.runs
        victim = (
            self.committed_upto if self.committed_upto in runs else min(runs)
        )
        run = wpq.pop_region(victim)
        pm = machine.pm
        if undo:
            log = self.undo_log.setdefault(victim, {})
            for logged, _ in run:
                log.setdefault(logged, pm.get(logged, 0))
            stats.undo_writes += len(run)
        pm.update(run)
        wpq.put(region, word, value)

    def region_ended(self, region: int) -> None:
        self.boundary_issued.add(region)

    def next_commit(self) -> int:
        return self.committed_upto

    def committable(self, region: int) -> bool:
        return region in self.boundary_issued

    def commit_flush(self, region: int) -> None:
        update = self.machine.pm.update
        for wpq in self.wpqs:
            update(wpq.pop_region(region))

    def mark_committed(self, region: int) -> None:
        self.undo_log.pop(region, None)
        self.boundary_issued.discard(region)
        self.committed_upto = region + 1

    # -- the machine's bulk settle (PersistentMachine._settle_clean) ----
    def commit_through(
        self,
        upto: int,
        stores: List[Tuple[int, int]],
        done: int,
        flushes: List[Tuple[int, int]],
    ) -> None:
        """Commit every region below ``upto`` at once, in ID order: the
        same PM image and bookkeeping as :meth:`commit_flush` and
        :meth:`mark_committed` per region.  ``stores[:done]`` is what
        the batch's committing regions stored; each ``(position,
        region)`` of ``flushes`` is a committing region with queued
        runs, which reach PM after ``stores[:position]`` and before
        the rest.  A word lives in one WPQ only, so one ``pm.update``
        over a slice equals its per-MC runs."""
        update = self.machine.pm.update
        lo = 0
        for hi, region in flushes:
            if hi > lo:
                update(stores[lo:hi])
                lo = hi
            for wpq in self.wpqs:
                update(wpq.pop_region(region))
        if done > lo:
            update(stores[lo:done])
        undo_log = self.undo_log
        for region in [r for r in undo_log if r < upto]:
            del undo_log[region]
        issued = self.boundary_issued
        issued.difference_update([r for r in issued if r < upto])
        self.committed_upto = upto

    def queue(self, region: int, stores: List[Tuple[int, int]]) -> None:
        """Quarantine one region's stores, which the bulk settle has
        checked fit: :meth:`admit_many` without its overflow fallback."""
        wpqs = self.wpqs
        for mc, pairs in self._by_mc(stores).items():
            wpqs[mc].put_many(region, pairs)

    def region_durable(self, region: int) -> bool:
        return region < self.committed_upto

    def discard(self) -> int:
        return sum(wpq.discard_all() for wpq in self.wpqs)


class _CommittedSetRuntime(PersistRuntime):
    """Shared shape of the non-gated schemes: no global flush-ID order —
    a region becomes durable the moment it ends (its stores already left
    the core at admit time), tracked in an explicit committed set."""

    def __init__(self, backend, machine) -> None:
        super().__init__(backend, machine)
        self.pending: Deque[int] = deque()
        self.committed: Set[int] = set()

    def region_ended(self, region: int) -> None:
        self.pending.append(region)

    def next_commit(self):
        return self.pending[0] if self.pending else None

    def committable(self, region: int) -> bool:
        return True

    def commit_flush(self, region: int) -> None:
        pass

    def mark_committed(self, region: int) -> None:
        if self.pending and self.pending[0] == region:
            self.pending.popleft()
        else:
            self.pending.remove(region)
        self.committed.add(region)
        self.undo_log.pop(region, None)

    def region_durable(self, region: int) -> bool:
        return region < 0 or region in self.committed

    def reseed(self, next_region: int) -> None:
        super().reseed(next_region)
        self.pending.clear()

    def _clone_extra(self, new: "PersistRuntime") -> None:
        new.pending = deque(self.pending)
        new.committed = set(self.committed)


class EagerUndoRuntime(_CommittedSetRuntime):
    """Eager speculative persistence with hardware undo logging (cWSP's
    MC speculation, Capri's redo+undo buffers, PPA's store replay —
    functionally: write-through with per-region pre-images).  Every
    store lands in PM immediately; the first touch of each word records
    its pre-image.  A crash rolls uncommitted regions back through the
    undo log, so the scheme *passes* the differential crash oracle — at
    the cost of one logged pre-image per first-touch word, the eager
    persist traffic LRPO's quarantine avoids."""

    def admit(self, region: int, word: int, value: int) -> int:
        machine = self.machine
        undo = self.undo_log.setdefault(region, {})
        if word not in undo:
            undo[word] = machine.pm.get(word, 0)
            machine.stats.undo_writes += 1
        machine.pm[word] = value
        return 0

    def admit_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        machine = self.machine
        pm = machine.pm
        pm_get = pm.get
        stats = machine.stats
        undo = self.undo_log.setdefault(region, {})
        for word, value in stores:
            if word not in undo:
                undo[word] = pm_get(word, 0)
                stats.undo_writes += 1
            pm[word] = value
        return 0


class EadrRuntime(_CommittedSetRuntime):
    """PSP/eADR: the whole cache hierarchy sits inside the persistence
    domain, so every store is durable the instant it retires — including
    the stores of the region the power failure interrupts.  There is no
    undo log and nothing to discard: partial-region state persists, the
    checkpoint array can run ahead of any resumable boundary, and
    non-idempotent re-execution diverges.  This is why PSP needs
    failure-atomic *software* and fails the whole-system crash oracle."""

    def admit(self, region: int, word: int, value: int) -> int:
        self.machine.pm[word] = value
        return 0

    def admit_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        # dict.update over the (word, value) pairs applies them in batch
        # order — identical to per-store assignment
        self.machine.pm.update(stores)
        return 0


class VolatileCacheRuntime(_CommittedSetRuntime):
    """Memory-mode: DRAM caches over PM with no persistence protocol at
    all.  Stores live in a volatile dirty set that only reaches PM on a
    clean shutdown; region boundaries "commit" instantly (nothing gates
    them) but commit is a lie — a power failure drops the dirty set, so
    acknowledged writes are lost and recovery resumes from state that
    was never persisted.  The normalization baseline, and the
    non-recoverable foil the crash oracle must flag."""

    def __init__(self, backend, machine) -> None:
        super().__init__(backend, machine)
        self.dirty: Dict[int, int] = {}

    def admit(self, region: int, word: int, value: int) -> int:
        self.dirty[word] = value
        return 0

    def admit_many(self, region: int, stores: List[Tuple[int, int]]) -> int:
        self.dirty.update(stores)
        return 0

    def discard(self) -> int:
        dropped = len(self.dirty)
        self.dirty.clear()
        return dropped

    def on_all_halted(self) -> None:
        self.machine.pm.update(self.dirty)
        self.dirty.clear()

    def _clone_extra(self, new: "PersistRuntime") -> None:
        super()._clone_extra(new)
        new.dirty = dict(self.dirty)
