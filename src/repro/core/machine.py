"""The functional persistence machine: LightWSP's whole-system-persistence
semantics, executable and crash-injectable.

:class:`PersistentMachine` runs a compiled program (one or more threads)
while maintaining *two* memory images:

* the **volatile** image — what the caches and store buffers make visible
  to executing code (always up to date);
* the **PM** image — what has actually persisted: stores sit quarantined
  in per-MC functional WPQs until their region commits (boundary broadcast
  + all older regions committed), at which point they flush in bulk.

Power failure can be injected after any instruction
(:meth:`PersistentMachine.crash`): quarantined entries of committed
regions are flushed by battery, everything else is discarded, undo logs of
overflow-flushed regions are rolled back, and every thread is resumed from
its latest committed boundary with registers rebuilt from the checkpoint
array and the compiler's recovery plans (§IV-F).  Resumed execution must
reproduce the failure-free PM image — the crash-consistency invariant the
property tests check.

Simplifications (documented in DESIGN.md): the continuation restored at a
boundary (call frames, block/index, held locks) stands in for state that a
real system keeps in persistent memory anyway (the PM-resident stack, the
lock words); *register* values are deliberately NOT snapshotted — they
must be reconstructed through the checkpoint array, so a compiler bug in
liveness, checkpoint placement, or pruning makes the property tests fail.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..compiler.interp import (
    C_BOUNDARY,
    C_IO,
    Frame,
    LockTable,
    ThreadVM,
    WordMemory,
)
from ..compiler.ir import Op, Program
from ..compiler.pipeline import CompiledProgram
from ..config import SystemConfig, DEFAULT_CONFIG
from ..errors import DeadlockError, MachineLimitError
from ..trace import EK, TraceEvent
from .recovery import rebuild_registers
from .wpq import FunctionalWPQ
from .regionid import RegionIdAllocator

__all__ = ["PersistentMachine", "Continuation", "MachineStats"]


def _copy_frames(frames: List[Frame]) -> List[Frame]:
    """Snapshot a call stack.  Frames hold only a register dict and
    resume coordinates — each CALL builds a fresh register dict, so a
    per-frame shallow dict copy is a full snapshot (this replaces a
    ``copy.deepcopy`` that dominated boundary cost)."""
    return [
        Frame(dict(f.regs), f.func, f.block, f.index, f.ret_reg)
        for f in frames
    ]


@dataclass
class Continuation:
    """A resume point: where the thread restarts after a power failure in
    the region that follows this boundary."""

    func: str
    block: str
    index: int
    frames: List
    held_locks: Set[int]
    boundary_uid: int = -1
    #: for the thread-start pseudo-boundary: the initial register file
    initial_regs: Optional[Dict[str, int]] = None


@dataclass
class MachineStats:
    steps: int = 0
    stores: int = 0
    boundaries: int = 0
    commits: int = 0
    overflow_events: int = 0
    undo_writes: int = 0
    crashes: int = 0
    max_wpq_occupancy: int = 0
    #: cumulative step counts at which a power failure actually fired
    #: (crash points past program completion never appear here)
    crash_points_fired: List[int] = field(default_factory=list)
    #: opt-in latency accounting for request-serving harnesses
    #: (``repro.store``).  Both default to ``None`` so the hot paths pay
    #: nothing; assign a list to start collecting.  ``commit_steps``
    #: receives ``(region, step)`` when a region commits; ``io_steps``
    #: receives ``(payload, region, step)`` when an IO instruction retires.
    commit_steps: Optional[List[Tuple[int, int]]] = None
    io_steps: Optional[List[Tuple[int, int, int]]] = None


class _HookedMemory(WordMemory):
    """Volatile memory that routes every write through the machine's
    persistence model.

    ``written`` collects every word a store targeted.  Recovery, undo
    rollback, torn writes and the battery drain only ever rewrite such
    words, so it bounds the words whose PM value can have changed since
    the machine booted (the cluster executor's write delta)."""

    def __init__(self, machine: "PersistentMachine") -> None:
        super().__init__()
        self._machine = machine
        self.written: Set[int] = set()

    def write(self, addr: int, value: int) -> None:
        self.words[addr] = value
        self.written.add(addr)
        buf = self._machine._store_buf
        if buf is None:
            self._machine._on_store(addr, value)
        else:
            # batched quantum: defer persistence bookkeeping, admit the
            # whole run of same-region stores in one bulk call at the end
            buf.append((addr, value))


class PersistentMachine:
    """Functional persistence machine over a compiled program.

    The persist path is pluggable: a
    :class:`~repro.runtime.backend.PersistBackend` (default:
    ``lightwsp-lrpo``) supplies the functional runtime that owns WPQ
    admission, boundary/commit gating, drain ordering, and the
    crash-time durable set; this class owns execution, scheduling,
    continuations, the durable I/O log, and the recovery protocol's
    orchestration."""

    #: when a batched quantum is running with bulk admission enabled,
    #: _HookedMemory appends (word, value) here instead of calling
    #: _on_store per write; None outside a batch (the per-store path)
    _store_buf: Optional[List[Tuple[int, int]]] = None

    def __init__(
        self,
        compiled: CompiledProgram,
        entries: Sequence[Tuple[str, Sequence[int]]] = (("main", ()),),
        config: SystemConfig = DEFAULT_CONFIG,
        quantum: int = 16,
        schedule_seed: int = 0,
        max_steps: int = 2_000_000,
        backend: object = None,
    ) -> None:
        # lazy: repro.runtime imports core submodules (wpq, recovery)
        from ..runtime.backend import get_backend

        self.compiled = compiled
        self.config = config
        self.quantum = quantum
        self.max_steps = max_steps
        self.stats = MachineStats()

        self.pm: Dict[int, int] = {}
        self.volatile = _HookedMemory(self)
        self.locks = LockTable()
        self.allocator = RegionIdAllocator()
        #: the persistence scheme (PersistBackend) and its functional
        #: runtime — all WPQ/boundary/commit/crash state lives there
        self.backend = get_backend(backend)
        self.persist = self.backend.create_runtime(self)

        self.vms: List[ThreadVM] = []
        #: per-thread boundary history: (ended_region, Continuation)
        self.history: List[List[Tuple[int, Continuation]]] = []
        #: irrevocable operations performed: [tid, device, region,
        #: payload] — the
        #: durable log; entries of power-interrupted regions are dropped
        #: at recovery (the re-executed region re-issues them: LightWSP's
        #: restartable-I/O semantics are at-least-once at the wire, §IV-A)
        self.io_log: List[List[int]] = []
        self._stepping_tid = 0
        self._turn = schedule_seed
        self._halted_closed: Set[int] = set()

        for tid, (fname, args) in enumerate(entries):
            vm = ThreadVM(
                compiled.program,
                fname,
                args=args,
                memory=self.volatile,
                tid=tid,
                locks=self.locks,
            )
            self.vms.append(vm)
            self.allocator.start_thread(tid)
            start = Continuation(
                func=vm.func_name,
                block=vm.block,
                index=vm.index,
                frames=[],
                held_locks=set(),
                initial_regs=dict(vm.regs),
            )
            self.history.append([(-1, start)])

    # ------------------------------------------------------------------
    # persistence model hooks (delegating to the backend runtime)
    # ------------------------------------------------------------------

    # The runtime owns the protocol state; these views keep the historic
    # attribute surface (fault injection, campaigns, and tests use it).
    @property
    def wpqs(self) -> List[FunctionalWPQ]:
        return self.persist.wpqs

    @property
    def boundary_issued(self) -> Set[int]:
        return self.persist.boundary_issued

    @property
    def committed_upto(self) -> int:
        return self.persist.committed_upto

    @committed_upto.setter
    def committed_upto(self, value: int) -> None:
        self.persist.committed_upto = value

    @property
    def undo_log(self) -> Dict[int, Dict[int, int]]:
        return self.persist.undo_log

    @undo_log.setter
    def undo_log(self, value: Dict[int, Dict[int, int]]) -> None:
        self.persist.undo_log = value

    def _mc_of_word(self, word: int) -> int:
        return ((word * 8) // 64) % self.config.mc.n_mcs

    def _on_store(self, word: int, value: int) -> None:
        tid = self._stepping_tid
        region = self.allocator.region_of(tid)
        self.stats.stores += 1
        occupancy = self.persist.admit(region, word, value)
        if occupancy > self.stats.max_wpq_occupancy:
            self.stats.max_wpq_occupancy = occupancy

    def _resolve_full(
        self, wpq: FunctionalWPQ, region: int, word: int, value: int
    ) -> None:
        """§IV-D overflow fallback (gated backends); overridable so the
        fault subsystem can model the undo-logging defense switched off."""
        self.persist.resolve_full(wpq, region, word, value)

    def _boundary_executed(self, tid: int, boundary_uid: int) -> None:
        vm = self.vms[tid]
        ended = self.allocator.boundary(tid)
        self._broadcast_boundary(ended)
        self.stats.boundaries += 1
        continuation = Continuation(
            func=vm.func_name,
            block=vm.block,
            index=vm.index,
            frames=_copy_frames(vm.frames),
            held_locks=set(
                lock for lock, owner in self.locks.owner.items() if owner == tid
            ),
            boundary_uid=boundary_uid,
        )
        self.history[tid].append((ended, continuation))
        self._try_commit()

    def _sync_refresh(self, tid: int) -> None:
        """End the thread's current region at a synchronization point and
        hand it a fresh ID from the global counter — without creating a
        resume point (the compiler's boundary just before the sync
        instruction provides that)."""
        ended = self.allocator.boundary(tid)
        self._broadcast_boundary(ended)
        self._try_commit()

    def _thread_halted(self, tid: int) -> None:
        """Close the trailing (empty) region so later IDs can commit; the
        compiler's exit boundary guarantees it holds no stores."""
        if tid in self._halted_closed:
            return
        self._halted_closed.add(tid)
        ended = self.allocator.region_of(tid)
        self._broadcast_boundary(ended)
        self._try_commit()
        if all(vm.halted for vm in self.vms):
            # clean completion: schemes without a persist protocol drain
            # their volatile dirty state here (the flush a crash never gets)
            self.persist.on_all_halted()

    # -- overridable persistence-protocol hooks (the fault-injection
    # -- subsystem in repro.faults specializes these; see FaultyMachine) --
    def _broadcast_boundary(self, region: int) -> None:
        """The ended region's boundary leaves the core.  The base machine
        models a perfectly reliable interconnect: gated backends record
        the broadcast as instantly delivered and ACKed everywhere."""
        self.persist.region_ended(region)

    def _region_committable(self, region: int) -> bool:
        """Whether the commit candidate may commit now (gated backends:
        its boundary has been broadcast to, and ACKed by, all MCs)."""
        return self.persist.committable(region)

    def _commit_flush(self, region: int) -> None:
        """Move the committing region's quarantined entries to PM (no-op
        for backends that persisted them at admission)."""
        self.persist.commit_flush(region)

    def _try_commit(self) -> None:
        persist = self.persist
        stats = self.stats
        while True:
            region = persist.next_commit()
            if region is None or not self._region_committable(region):
                return
            self._commit_flush(region)
            persist.mark_committed(region)
            stats.commits += 1
            if stats.commit_steps is not None:
                stats.commit_steps.append((region, stats.steps))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[TraceEvent]:
        """One instruction of the round-robin schedule; None when all
        threads have halted.

        This is the single-step semantics reference (and the only path
        that surfaces every TraceEvent); :meth:`run_quantum` batches the
        uneventful stretches and falls back to this for anything
        machine-visible."""
        n = len(self.vms)
        for _ in range(2 * n):
            tid = self._turn % n
            vm = self.vms[tid]
            if vm.halted:
                self._turn += 1
                continue
            self._stepping_tid = tid
            # A conflicting-sync instruction must tag its (and the critical
            # section's) stores with a region ID allocated *now* — after
            # any happens-before predecessor's release — or the commit
            # order would not respect happens-before (§IV-C).  The atomic
            # global counter refresh models Fig. 4's ID handout.
            instr = vm.current_instr()
            if instr is not None and instr.op in (Op.ATOMIC_RMW, Op.FENCE):
                self._sync_refresh(tid)
            event = vm.step()
            if event is None:
                self._turn += 1  # blocked on a lock: rotate
                continue
            self.stats.steps += 1
            if self.stats.steps % self.quantum == 0:
                self._turn += 1
            if event.kind == EK.BOUNDARY:
                self._boundary_executed(tid, event.boundary_uid)
            elif event.kind == EK.IO:
                region = self.allocator.region_of(tid)
                self.io_log.append(
                    [tid, event.lock_id, region, event.payload]
                )
                if self.stats.io_steps is not None:
                    self.stats.io_steps.append(
                        (event.payload, region, self.stats.steps)
                    )
            elif event.kind == EK.LOCK:
                # successful acquire: the critical section's stores belong
                # to a region whose ID postdates the previous release
                self._sync_refresh(tid)
            elif event.kind == EK.HALT:
                self._thread_halted(tid)
            return event
        if all(vm.halted for vm in self.vms):
            return None
        raise DeadlockError(
            "all live threads blocked on locks: deadlock",
            steps=self.stats.steps,
        )

    # -- batched execution hooks (FaultyMachine specializes these) ------
    def _quantum_cap(self) -> Optional[int]:
        """Extra bound on how many instructions the next batch may retire
        before machine state must be re-examined (None: no bound)."""
        return None

    def _bulk_admit_ok(self) -> bool:
        """Whether per-store admission may be deferred and fused into one
        bulk call at batch end (fault injection must interpose per
        store, so FaultyMachine refuses while MCs are down)."""
        return True

    def _after_batch(self) -> None:
        """Called after every batch; FaultyMachine re-checks matured
        boundary ACKs here (the classic step path checks per step)."""

    def _flush_stores(self, tid: int, stores: List[Tuple[int, int]]) -> None:
        """Bulk-admit a batch's deferred stores: the per-region fused
        equivalent of per-store :meth:`_on_store` calls.  Regions cannot
        change mid-batch (boundaries and syncs pause the batch), so one
        ``region_of`` lookup and one ``admit_many`` cover the run."""
        region = self.allocator.region_of(tid)
        self.stats.stores += len(stores)
        occupancy = self.persist.admit_many(region, stores)
        if occupancy > self.stats.max_wpq_occupancy:
            self.stats.max_wpq_occupancy = occupancy

    def run_quantum(self, limit: Optional[int] = None) -> Optional[int]:
        """Execute the scheduled thread's quantum (or up to ``limit``
        instructions) in one batched inner loop; returns the number of
        instructions retired, or ``None`` when all threads have halted.

        The batch runs through :meth:`ThreadVM.run_fast` and is capped so
        it never crosses a point where the machine must intervene: the
        round-robin rotation (``steps % quantum == 0``), ``max_steps``,
        a subclass cap (:meth:`_quantum_cap`), or any machine-visible
        instruction (LOCK / ATOMIC_RMW / FENCE / BOUNDARY / IO), which
        falls back to the classic :meth:`step`.  Byte-for-bit equivalent
        to single-stepping — the parity suite pins this."""
        n = len(self.vms)
        budget = limit if limit is not None else self.quantum
        if n == 1:
            return self._run_quantum_single(budget)
        for _ in range(2 * n):
            tid = self._turn % n
            vm = self.vms[tid]
            if vm.halted:
                self._turn += 1
                continue
            self._stepping_tid = tid
            cap = self.quantum - self.stats.steps % self.quantum
            if cap > budget:
                cap = budget
            remaining = self.max_steps - self.stats.steps
            if cap > remaining:
                cap = remaining
            hook_cap = self._quantum_cap()
            if hook_cap is not None and cap > hook_cap:
                cap = hook_cap
            if cap < 1:
                # a subclass deadline is due (or max_steps is exhausted):
                # advance one instruction, then re-check machine state
                cap = 1
            # bulk admission is skipped when _on_store was replaced on
            # the instance (test spies interpose on the per-store path)
            if (
                cap > 1
                and "_on_store" not in self.__dict__
                and self._bulk_admit_ok()
            ):
                buf: List[Tuple[int, int]] = []
                self._store_buf = buf
                try:
                    retired, why = vm.run_fast(cap)
                finally:
                    self._store_buf = None
                    if buf:
                        self._flush_stores(tid, buf)
            else:
                retired, why = vm.run_fast(cap)
            if retired:
                self.stats.steps += retired
                if self.stats.steps % self.quantum == 0:
                    self._turn += 1
                if why == "halt":
                    self._thread_halted(tid)
                self._after_batch()
                return retired
            # current instruction is machine-visible or a blocked lock:
            # the classic path owns sync refreshes, event dispatch,
            # blocked-thread rotation, and deadlock detection
            event = self.step()
            return None if event is None else 1
        if all(vm.halted for vm in self.vms):
            return None
        raise DeadlockError(
            "all live threads blocked on locks: deadlock",
            steps=self.stats.steps,
        )

    def _run_quantum_single(self, budget: int) -> Optional[int]:
        """Single-thread batching: with one VM there is no round-robin
        fairness point, so batches run visible-event to visible-event
        and the loop stays here instead of bouncing through :meth:`run`
        per batch.  ``_turn`` is advanced arithmetically — the classic
        path bumps it once per ``steps %% quantum == 0`` crossing, which
        over a batch is ``(after // q) - (before // q)`` increments —
        keeping it bit-identical for the parity suite."""
        vm = self.vms[0]
        if vm.halted:
            # the classic scan visits the halted VM 2n times (n == 1),
            # rotating past it each visit, before reporting completion
            self._turn += 2
            return None
        self._stepping_tid = 0
        stats = self.stats
        q = self.quantum
        max_steps = self.max_steps
        buffered = "_on_store" not in self.__dict__
        run_fast = vm.run_fast
        total = 0
        while total < budget:
            cap = budget - total
            remaining = max_steps - stats.steps
            if cap > remaining:
                cap = remaining
            hook_cap = self._quantum_cap()
            if hook_cap is not None and cap > hook_cap:
                cap = hook_cap
            if cap < 1:
                cap = 1
            if cap > 1 and buffered and self._bulk_admit_ok():
                buf: List[Tuple[int, int]] = []
                self._store_buf = buf
                try:
                    retired, why = run_fast(cap)
                finally:
                    self._store_buf = None
                    if buf:
                        self._flush_stores(0, buf)
            else:
                retired, why = run_fast(cap)
            if retired:
                before = stats.steps
                after = before + retired
                stats.steps = after
                self._turn += after // q - before // q
                if why == "halt":
                    self._thread_halted(0)
                self._after_batch()
                total += retired
                if why == "halt" or after >= max_steps:
                    break
                if total >= budget:
                    break
                if why == "limit":
                    # the cap (not a visible instruction) ended the
                    # batch: recompute caps and keep batching
                    continue
            if why != "pause":
                # nothing visible pending: the thread is blocked on a
                # lock (or the batch bookkeeping already broke above);
                # the classic scan owns deadlock detection
                event = self.step()
                if event is None:
                    return total if total else None
                total += 1
                if vm.halted or stats.steps >= max_steps:
                    break
                continue
            # The batch paused before a machine-visible instruction whose
            # code tuple run_fast stashed.  Boundaries and IO dominate
            # that traffic and have no sync refresh or blocking cases, so
            # retire them here without the classic scan or a re-fetch;
            # the per-step ACK recheck the FaultyMachine wrapper does is
            # exactly _after_batch.  LOCK / ATOMIC_RMW / FENCE keep the
            # classic path (sync refreshes, deadlock detection).
            c = vm.paused_code
            k = c[0] if c is not None else -1
            if k == C_BOUNDARY:
                event = vm._h_boundary(c)
                stats.steps += 1
                if stats.steps % q == 0:
                    self._turn += 1
                self._boundary_executed(0, event.boundary_uid)
                self._after_batch()
            elif k == C_IO:
                event = vm._h_io(c)
                stats.steps += 1
                if stats.steps % q == 0:
                    self._turn += 1
                region = self.allocator.region_of(0)
                self.io_log.append([0, event.lock_id, region, event.payload])
                if stats.io_steps is not None:
                    stats.io_steps.append(
                        (event.payload, region, stats.steps)
                    )
                self._after_batch()
            else:
                event = self.step()
                if event is None:
                    return total if total else None
            total += 1
            if vm.halted or stats.steps >= max_steps:
                break
        return total

    def run(self, steps: Optional[int] = None) -> bool:
        """Execute up to ``steps`` instructions (or to completion).
        Returns True when the program has finished."""
        remaining = steps if steps is not None else self.max_steps
        while remaining > 0:
            retired = self.run_quantum(remaining)
            if retired is None:
                return True
            remaining -= retired
            if self.stats.steps >= self.max_steps:
                raise MachineLimitError(
                    "machine exceeded max_steps",
                    steps=self.stats.steps,
                    limit=self.max_steps,
                )
        return all(vm.halted for vm in self.vms)

    @property
    def finished(self) -> bool:
        return all(vm.halted for vm in self.vms)

    # ------------------------------------------------------------------
    # power failure + recovery (§IV-F)
    # ------------------------------------------------------------------
    def crash(self) -> Dict[str, int]:
        """Power fails *now*.  Performs the six-step recovery protocol and
        leaves the machine ready to resume.  Returns a small report.

        The protocol is split into named steps so the fault-injection
        subsystem (:mod:`repro.faults`) can adversarially perturb or
        interrupt each one (torn battery writes, energy-bounded drains, a
        second power failure mid-recovery)."""
        self.stats.crashes += 1
        self.stats.crash_points_fired.append(self.stats.steps)
        report = {"flushed": 0, "discarded": 0, "undone": 0, "io_replayed": 0}
        self._battery_drain(report)
        self._rollback_overflow(report)
        self._discard_quarantined(report)
        self._drop_interrupted_io(report)
        self._restore_threads()
        return report

    def _battery_drain(self, report: Dict[str, int]) -> None:
        """Steps 1-5: commit every region the backend can still make
        durable (the battery covers in-flight ACKs), in drain order."""
        before = self.stats.commits
        self._try_commit()
        report["flushed"] += self.stats.commits - before

    def _rollback_overflow(self, report: Dict[str, int]) -> None:
        """Roll back speculatively persisted writes of uncommitted
        regions (overflow flushes under LRPO, every store under the
        eager-undo schemes), youngest region first so the oldest
        pre-image wins."""
        report["undone"] += self.persist.rollback()

    def _discard_quarantined(self, report: Dict[str, int]) -> None:
        """Step 6: everything still volatile is lost with the power
        (quarantined WPQ entries; memory-mode's whole dirty set)."""
        report["discarded"] += self.persist.discard()

    def _drop_interrupted_io(self, report: Dict[str, int]) -> None:
        """Irrevocable operations of interrupted regions will re-execute;
        drop them from the durable log (they were not "completed")."""
        before_io = len(self.io_log)
        self.io_log = [
            entry for entry in self.io_log
            if self.persist.region_durable(entry[2])
        ]
        report["io_replayed"] += before_io - len(self.io_log)

    def _restore_threads(self) -> None:
        self.volatile.words = dict(self.pm)  # caches are gone
        self.locks = LockTable()
        self._halted_closed.clear()

        for tid, vm in enumerate(self.vms):
            # latest boundary whose *ended* region is durable
            resume: Optional[Continuation] = None
            for ended, continuation in reversed(self.history[tid]):
                if self.persist.region_durable(ended):
                    resume = continuation
                    break
            assert resume is not None  # the thread-start sentinel has -1
            # trim history past the resume point
            while self.history[tid] and self.history[tid][-1][1] is not resume:
                self.history[tid].pop()

            vm.locks = self.locks
            vm.func_name = resume.func
            vm.block = resume.block
            vm.index = resume.index
            vm.frames = _copy_frames(resume.frames)
            vm.halted = False
            vm.regs = self._rebuild_registers(tid, resume)
            for lock in resume.held_locks:
                if not self.locks.try_acquire(lock, tid):
                    raise RuntimeError(
                        "lock %d held by two threads at recovery" % lock
                    )

        # Dead region IDs (allocated to interrupted regions) will never be
        # re-broadcast; re-executed code gets fresh IDs.  Footnote 7: the
        # region ID register is reseeded from the flush ID domain.
        self.persist.reseed(self.allocator.allocated)
        for tid in range(len(self.vms)):
            self.allocator.start_thread(tid)
            if self.vms[tid].halted:
                self._thread_halted(tid)

    def _rebuild_registers(self, tid: int, resume: Continuation) -> Dict[str, int]:
        """Registers come ONLY from the checkpoint array + recovery plans
        (or the initial arguments for the thread-start sentinel)."""
        if resume.initial_regs is not None:
            return dict(resume.initial_regs)
        plan = self.compiled.plan_for(resume.boundary_uid)
        return rebuild_registers(
            plan, lambda reg: self.pm.get(Program.checkpoint_slot(tid, reg), 0)
        )

    # ------------------------------------------------------------------
    def clone(self) -> "PersistentMachine":
        """An independent snapshot of the machine's mutable state, sharing
        the (immutable) compiled program and config.  ``crash_sweep`` forks
        one clone per probe point off a single shared execution instead of
        re-running the program prefix from scratch every time."""
        new = object.__new__(type(self))
        new.compiled = self.compiled
        new.config = self.config
        new.quantum = self.quantum
        new.max_steps = self.max_steps
        new.stats = copy.deepcopy(self.stats)
        new.pm = dict(self.pm)
        new.volatile = _HookedMemory(new)
        new.volatile.words = dict(self.volatile.words)
        new.volatile.written = set(self.volatile.written)
        new.locks = LockTable()
        new.locks.owner = dict(self.locks.owner)
        new.allocator = copy.deepcopy(self.allocator)
        new.backend = self.backend
        new.persist = self.persist.clone_onto(new)
        new.io_log = [list(e) for e in self.io_log]
        new._stepping_tid = self._stepping_tid
        new._turn = self._turn
        new._halted_closed = set(self._halted_closed)
        new.vms = []
        for vm in self.vms:
            nvm = copy.copy(vm)
            nvm.memory = new.volatile
            nvm.locks = new.locks
            nvm.regs = dict(vm.regs)
            nvm.frames = _copy_frames(vm.frames)
            nvm.io_log = list(vm.io_log)
            new.vms.append(nvm)
        new.history = copy.deepcopy(self.history)
        self._clone_extra(new)
        return new

    def _clone_extra(self, new: "PersistentMachine") -> None:
        """Subclass hook: copy any additional mutable state onto a clone."""

    # ------------------------------------------------------------------
    def pm_data(self, min_word: Optional[int] = None) -> Dict[int, int]:
        """The persisted image restricted to data words (checkpoint array
        excluded) with zeros dropped."""
        floor = (
            min_word
            if min_word is not None
            else Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS
        )
        return {w: v for w, v in self.pm.items() if w >= floor and v != 0}

    def wpq_occupancy(self) -> List[int]:
        return self.persist.occupancy()
