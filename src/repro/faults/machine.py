"""The fault-injectable machine: :class:`FaultyMachine` layers the
adversarial fault model onto the functional persistence machine.

It specializes the protocol hooks :class:`~repro.core.machine.
PersistentMachine` exposes:

* **boundary broadcasts become messages.**  Each ended region's boundary
  is delivered to every MC individually; armed faults can drop, delay, or
  duplicate a delivery.  A region is committable only once every MC has
  seen its boundary (the flush-ACK wait), and — new versus the base
  machine — only after :data:`~repro.faults.model.ACK_LATENCY_STEPS` more
  instructions, modelling the flush-ACK exchange in flight.  Dropped
  broadcasts are re-sent after a timeout (the retry the paper's §IV-C
  implies), so message faults merely delay commits; a power cut inside
  the window finds committable-but-uncommitted entries, which is the
  attack surface of torn-write and partial-drain faults.
* **the battery drain becomes perturbable.**  At a cut, committable
  regions drain entry by entry on residual energy: the drain budget comes
  from the §II-C1 energy model (:mod:`repro.analysis.battery`), a
  scheduled entry can land torn (half old, half new bits), and — with the
  ``wpq_retention`` defense on — the still-quarantined entry is re-issued
  so the tear never survives.
* **recovery can be re-entered.**  A second power failure can strike
  after any recovery step (and mid-rollback); with the
  ``idempotent_recovery`` defense on, the persistent undo log makes the
  re-entered recovery converge to the same state.
* **MCs can die early.**  A downed MC (per-MC-skewed crash instant)
  silently loses new stores and ACKs nothing, so regions ending after the
  skew never commit and recovery resumes from before it — exactly the
  all-or-nothing the protocol promises.

With every defense on (the unmodified protocol) ALL of these faults must
preserve the crash-consistency theorem; the seeded defense-off modes in
:mod:`repro.faults.defenses` are what the differential oracle must catch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.battery import default_battery_joules, drainable_entries
from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.machine import PersistentMachine
from ..core.recovery import rollback_undo
from .defenses import ALL_ON, Defenses
from .model import (
    ACK_LATENCY_STEPS,
    RETRY_TIMEOUT_BOUNDARIES,
    FaultEvent,
    tear_value,
)
from ..trace import NullTrace

__all__ = ["FaultyMachine", "NestedPowerFailure"]


class NestedPowerFailure(Exception):
    """Raised inside the recovery protocol when a scheduled second power
    failure strikes; :meth:`FaultyMachine.crash` catches it and re-enters
    recovery from the interrupted state."""


class FaultyMachine(PersistentMachine):
    """A :class:`PersistentMachine` under an adversarial fault model."""

    def __init__(
        self,
        compiled: CompiledProgram,
        entries: Sequence[Tuple[str, Sequence[int]]] = (("main", ()),),
        config: SystemConfig = DEFAULT_CONFIG,
        quantum: int = 16,
        schedule_seed: int = 0,
        max_steps: int = 2_000_000,
        defenses: Defenses = ALL_ON,
        trace=None,
        backend=None,
    ) -> None:
        self.defenses = defenses
        self.trace = trace if trace is not None else NullTrace()
        super().__init__(
            compiled,
            entries=entries,
            config=config,
            quantum=quantum,
            schedule_seed=schedule_seed,
            max_steps=max_steps,
            backend=backend,
        )
        n_mcs = config.mc.n_mcs
        #: per-MC set of the uncommitted regions whose boundary it has
        #: been delivered (and ACKed); a region leaves at its commit
        self.mc_seen: List[Set[int]] = [set() for _ in range(n_mcs)]
        #: the ACK schedule, and the commit gate: region -> step at which
        #: its flush-ACK exchange completes.  An entry exists exactly while
        #: the region's boundary has been broadcast and seen as
        #: ``ack_wait`` requires and the region has not committed.
        self._ack_due: Dict[int, int] = {}
        #: queued (re)deliveries: [due boundary-seq, mc, region]
        self._pending_msgs: List[List[int]] = []
        self._boundary_seq = 0
        #: armed message faults, each consumed by the next broadcast
        self._armed_msgs: List[FaultEvent] = []
        #: mc -> step of its early power-domain failure
        self.down_mcs: Dict[int, int] = {}
        # crash-time adversary state
        self._battery_powered = False
        self._settling = False
        self._armed_budget: Optional[int] = None
        self._drain_budget: Optional[int] = None
        self._torn_indices: Set[int] = set()
        self._drain_index = 0
        self._nested_armed: Optional[str] = None
        self.fault_counters: Dict[str, int] = {
            "msg_drops": 0, "msg_delays": 0, "msg_dups": 0,
            "retries_delivered": 0, "straggler_flushes": 0,
            "lost_stores": 0, "mc_downs": 0, "torn_repaired": 0,
            "torn_landed": 0, "drain_lost": 0, "nested_cuts": 0,
        }

    # ------------------------------------------------------------------
    # fault arming (driven by the campaign injector)
    # ------------------------------------------------------------------
    def arm_msg(self, event: FaultEvent) -> None:
        """Queue a message fault for the next boundary broadcast that
        targets ``event.mc``."""
        self._armed_msgs.append(event)

    def mc_down(self, mc: int) -> None:
        """MC ``mc``'s power domain fails now (skewed crash instant): it
        stops accepting stores and broadcasts; its battery holds the WPQ
        contents until the global cut."""
        if mc in self.down_mcs:
            return
        self.down_mcs[mc] = self.stats.steps
        self.fault_counters["mc_downs"] += 1
        self.trace.emit("mc_down", mc=mc, step=self.stats.steps)

    # ------------------------------------------------------------------
    # message layer
    # ------------------------------------------------------------------
    def _take_armed_msg(self, mc: int) -> Optional[FaultEvent]:
        for i, event in enumerate(self._armed_msgs):
            if event.mc == mc:
                return self._armed_msgs.pop(i)
        return None

    def _broadcast_boundary(self, region: int) -> None:
        if not self.persist.gated:
            # no boundary/ACK message layer to attack: eager schemes
            # persist at admission, so the broadcast faults are inert
            super()._broadcast_boundary(region)
            return
        self.persist.region_ended(region)
        self._boundary_seq += 1
        self._deliver_due()
        for mc in range(len(self.mc_seen)):
            armed = self._take_armed_msg(mc)
            if armed is None:
                self._deliver(mc, region)
            elif armed.op == "drop":
                self.fault_counters["msg_drops"] += 1
                self.trace.emit(
                    "msg_drop", mc=mc, region=region, step=self.stats.steps
                )
                if self.defenses.broadcast_retry:
                    self._pending_msgs.append(
                        [self._boundary_seq + RETRY_TIMEOUT_BOUNDARIES,
                         mc, region]
                    )
            elif armed.op == "delay":
                self.fault_counters["msg_delays"] += 1
                self.trace.emit(
                    "msg_delay", mc=mc, region=region, step=self.stats.steps,
                    by=max(1, armed.delay),
                )
                self._pending_msgs.append(
                    [self._boundary_seq + max(1, armed.delay), mc, region]
                )
            else:  # dup: delivered twice; the seen-set makes it idempotent
                self.fault_counters["msg_dups"] += 1
                self.trace.emit(
                    "msg_dup", mc=mc, region=region, step=self.stats.steps
                )
                self._deliver(mc, region)
                self._deliver(mc, region)

    def _deliver(self, mc: int, region: int) -> None:
        if mc in self.down_mcs:
            # a dead MC ACKs nothing; the sender keeps retrying
            if self.defenses.broadcast_retry and not self._settling:
                self._pending_msgs.append(
                    [self._boundary_seq + RETRY_TIMEOUT_BOUNDARIES, mc, region]
                )
            return
        if region < self.persist.committed_upto:
            # straggler: the region's flush ID already advanced (only
            # reachable with the ack_wait defense off) — the MC flushes
            # the late region immediately, possibly clobbering younger
            # committed values: the ordering hazard the defense prevents
            self.fault_counters["straggler_flushes"] += 1
            self.trace.emit("straggler_flush", mc=mc, region=region)
            self.pm.update(self.persist.wpqs[mc].pop_region(region))
            return
        self.mc_seen[mc].add(region)
        if region not in self._ack_due and self._seen_ok(region):
            self._ack_due[region] = self.stats.steps + ACK_LATENCY_STEPS

    def _deliver_due(self) -> None:
        if not self._pending_msgs:
            return
        due_now = [p for p in self._pending_msgs if p[0] <= self._boundary_seq]
        if not due_now:
            return
        self._pending_msgs = [
            p for p in self._pending_msgs if p[0] > self._boundary_seq
        ]
        for _, mc, region in due_now:
            self.fault_counters["retries_delivered"] += 1
            self._deliver(mc, region)

    def _seen_ok(self, region: int) -> bool:
        if self.defenses.ack_wait:
            for s in self.mc_seen:
                if region not in s:
                    return False
            return True
        for s in self.mc_seen:
            if region in s:
                return True
        return False

    def finish_messages(self) -> None:
        """The program has halted but the persist tail is still settling:
        wall-clock passes, queued (re)deliveries land, and the in-flight
        flush-ACK exchanges complete.  Call after a fault-free tail run to
        reach the final durable image."""
        self._settling = True
        try:
            for _ in range(len(self._pending_msgs) + 4):
                pending, self._pending_msgs = self._pending_msgs, []
                for _, mc, region in pending:
                    self._deliver(mc, region)
                self._try_commit()
                if not self._pending_msgs:
                    break
            self._try_commit()
        finally:
            self._settling = False

    # ------------------------------------------------------------------
    # commit gating
    # ------------------------------------------------------------------
    def _region_committable(self, region: int) -> bool:
        if not self.persist.gated:
            return super()._region_committable(region)
        # scheduled means broadcast and seen as ack_wait requires; the
        # battery and the settling wall-clock finish in-flight ACKs
        due = self._ack_due.get(region)
        return due is not None and (
            self.stats.steps >= due or self._battery_powered or self._settling
        )

    def step(self):
        event = super().step()
        if event is not None and self.persist.gated:
            due = self._ack_due.get(self.persist.committed_upto)
            if due is not None and self.stats.steps >= due:
                self._try_commit()
        return event

    def _next_ack_due(self) -> Optional[int]:
        # the commit candidate's ACK schedule entry: only gated backends
        # broadcast boundaries as messages, so only they schedule ACKs
        return self._ack_due.get(self.persist.committed_upto)

    # -- the bulk settle (PersistentMachine._settle_clean) --------------
    _ack_latency = ACK_LATENCY_STEPS

    def _clean(self) -> bool:
        # every MC sees each boundary at its broadcast and ACKs it one
        # latency later: nothing armed, queued or down, no battery or
        # settling override, and the ACK waits for every MC.  Only
        # arm_msg, mc_down, crash and finish_messages change this, and
        # they run between batches.
        return (
            self.persist.gated
            and self.defenses.ack_wait
            and not self._armed_msgs
            and not self._pending_msgs
            and not self.down_mcs
            and not self._battery_powered
            and not self._settling
        )

    def _issued_due(self, region, first_mark):
        return self._ack_due.get(region)

    def _broadcasts_settled(self, marks, k, upto) -> None:
        # what each mark's _deliver walk and each commit's _commit_flush
        # leave on a clean interconnect
        ack_due = self._ack_due
        for region in [r for r in ack_due if r < upto]:
            del ack_due[region]
        for _, step, region in marks[k:]:
            ack_due[region] = step + ACK_LATENCY_STEPS
        pending = [mark[2] for mark in marks[k:]]
        for seen in self.mc_seen:
            seen.difference_update([r for r in seen if r < upto])
            seen.update(pending)
        self._boundary_seq += len(marks)

    def _commit_flush(self, region: int) -> None:
        # direct base calls on the per-region path: a zero-argument
        # super() builds an object per call
        if not self.persist.gated:
            PersistentMachine._commit_flush(self, region)
            return
        self._ack_due.pop(region, None)
        if self._battery_powered:
            for mc, wpq in enumerate(self.persist.wpqs):
                if region in self.mc_seen[mc]:
                    for word, value in wpq.pop_region(region):
                        self._drain_one(word, value)
        elif self.defenses.ack_wait:
            PersistentMachine._commit_flush(self, region)
        else:
            # ack_wait off: only the MCs that saw the boundary flush; the
            # others keep the region quarantined (they never learned it
            # ended)
            for mc, wpq in enumerate(self.persist.wpqs):
                if region in self.mc_seen[mc]:
                    self.pm.update(wpq.pop_region(region))
        # a later delivery of a committed region is a straggler, which
        # never reads the seen sets
        for seen in self.mc_seen:
            seen.discard(region)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def _on_store(self, word: int, value: int) -> None:
        if self.persist.gated and self._mc_of_word(word) in self.down_mcs:
            # the target MC's power domain is gone: the persist-path entry
            # vanishes (its region can never commit, so recovery will
            # re-execute the store)
            self.stats.stores += 1
            self.fault_counters["lost_stores"] += 1
            return
        super()._on_store(word, value)

    def _admit_stores(self, region, stores) -> None:
        down = self.down_mcs
        if down and self.persist.gated:
            # _on_store's rule over a run: stores to a downed MC are
            # counted and lost, the rest keep their order
            mc_of = self._mc_of_word
            kept = [pair for pair in stores if mc_of(pair[0]) not in down]
            lost = len(stores) - len(kept)
            self.stats.stores += lost
            self.fault_counters["lost_stores"] += lost
            if not kept:
                return
            stores = kept
        PersistentMachine._admit_stores(self, region, stores)

    def _resolve_full(self, wpq, region, word, value) -> None:
        # with the undo-logging defense off, the §IV-D overflow flush
        # writes PM speculatively WITHOUT recording pre-images — nothing
        # to roll back at a crash
        self.persist.resolve_full(
            wpq, region, word, value, undo=self.defenses.undo_logging
        )

    # ------------------------------------------------------------------
    # power failure
    # ------------------------------------------------------------------
    def crash(self, event: Optional[FaultEvent] = None) -> Dict[str, int]:
        """Power fails now, optionally with the adversarial modifiers of
        ``event`` (torn drain writes, bounded residual energy, a nested
        failure during recovery)."""
        self._arm_cut(event)
        self.trace.emit(
            "power_cut", step=self.stats.steps,
            budget_entries=self._armed_budget,
            torn=sorted(self._torn_indices),
            nested=self._nested_armed or "",
        )
        self._pending_msgs.clear()  # in-flight broadcasts die with the power
        self._armed_msgs.clear()
        self._battery_powered = True
        try:
            while True:
                try:
                    report = super().crash()
                    break
                except NestedPowerFailure:
                    self.fault_counters["nested_cuts"] += 1
                    self.trace.emit("nested_cut", step=self.stats.steps)
                    self._pending_msgs.clear()
                    # the second failure strikes after power returned and
                    # recovery restarted on mains: the battery has had
                    # time to recharge to its full (possibly undersized)
                    # budget
                    self._drain_budget = self._armed_budget
                    self._drain_index = 0
        finally:
            self._battery_powered = False
            self._torn_indices = set()
            self._nested_armed = None
        return report

    def _arm_cut(self, event: Optional[FaultEvent]) -> None:
        residual = None
        self._torn_indices = set()
        self._nested_armed = None
        if event is not None:
            if event.torn_index >= 0:
                self._torn_indices = {event.torn_index}
            if event.residual_j >= 0.0:
                residual = event.residual_j
            self._nested_armed = event.nested_after or None
        if self.defenses.sized_battery:
            # a correctly provisioned battery never holds less than the
            # worst-case drain energy, whatever the schedule claims
            floor = default_battery_joules(self.config)
            residual = floor if residual is None else max(residual, floor)
        self._armed_budget = (
            None if residual is None
            else drainable_entries(residual, self.config)
        )
        self._drain_budget = self._armed_budget
        self._drain_index = 0

    def _drain_one(self, word: int, value: int) -> None:
        limited = self._drain_budget is not None
        if limited and self._drain_budget <= 0:
            # battery exhausted mid-drain: the entry never reaches PM
            # (only reachable with the sized_battery defense off)
            self.fault_counters["drain_lost"] += 1
            self.trace.emit("drain_exhausted", word=word)
            self._drain_index += 1
            return
        if limited:
            self._drain_budget -= 1
        if self._drain_index in self._torn_indices:
            old = self.pm.get(word, 0)
            self.pm[word] = tear_value(old, value)
            repaired = False
            if self.defenses.wpq_retention and (
                not limited or self._drain_budget > 0
            ):
                # the entry is still quarantined until its write verifies:
                # the battery re-issues it and the tear never survives
                if limited:
                    self._drain_budget -= 1
                self.pm[word] = value
                repaired = True
            key = "torn_repaired" if repaired else "torn_landed"
            self.fault_counters[key] += 1
            self.trace.emit("torn_write", word=word, repaired=repaired)
        else:
            self.pm[word] = value
        self._drain_index += 1

    # ------------------------------------------------------------------
    # recovery steps (nested-failure injection points)
    # ------------------------------------------------------------------
    def _battery_drain(self, report: Dict[str, int]) -> None:
        super()._battery_drain(report)
        if self._nested_armed == "after_drain":
            self._nested_armed = None
            raise NestedPowerFailure()

    def _rollback_overflow(self, report: Dict[str, int]) -> None:
        persist = self.persist
        if self._nested_armed == "mid_rollback" and persist.undo_log:
            log = persist.undo_log
            if not self.defenses.idempotent_recovery:
                # defense off: the log was truncated the moment recovery
                # began consuming it — the pre-images below survive only
                # in this volatile copy
                persist.undo_log = {}
            regions = sorted(log, reverse=True)
            for region in regions[: len(regions) // 2]:
                for word, old in log[region].items():
                    self.pm[word] = old
                    report["undone"] += 1
            self._nested_armed = None
            raise NestedPowerFailure()
        if not self.defenses.idempotent_recovery:
            log, persist.undo_log = persist.undo_log, {}
            report["undone"] += rollback_undo(self.pm, log)
            return
        super()._rollback_overflow(report)

    def _discard_quarantined(self, report: Dict[str, int]) -> None:
        super()._discard_quarantined(report)
        if self._nested_armed == "after_discard":
            self._nested_armed = None
            raise NestedPowerFailure()

    def _restore_threads(self) -> None:
        # power is back everywhere: dead MCs rejoin, the message layer
        # starts from scratch (undelivered broadcasts died with the power)
        self.down_mcs.clear()
        for seen in self.mc_seen:
            seen.clear()
        self._ack_due.clear()
        self._pending_msgs.clear()
        super()._restore_threads()
        if self._nested_armed == "after_recovery":
            self._nested_armed = None
            raise NestedPowerFailure()

    # ------------------------------------------------------------------
    def _clone_extra(self, new: "PersistentMachine") -> None:
        new.defenses = self.defenses
        new.trace = self.trace
        new.mc_seen = [set(s) for s in self.mc_seen]
        new._ack_due = dict(self._ack_due)
        new._pending_msgs = [list(p) for p in self._pending_msgs]
        new._boundary_seq = self._boundary_seq
        new._armed_msgs = list(self._armed_msgs)
        new.down_mcs = dict(self.down_mcs)
        new._battery_powered = self._battery_powered
        new._settling = self._settling
        new._armed_budget = self._armed_budget
        new._drain_budget = self._drain_budget
        new._torn_indices = set(self._torn_indices)
        new._drain_index = self._drain_index
        new._nested_armed = self._nested_armed
        new.fault_counters = dict(self.fault_counters)
