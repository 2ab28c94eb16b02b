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

Simplifications (documented in DESIGN.md): the resume point restored at
a boundary (call frames, block/index, held locks) stands in for state that
a real system keeps in persistent memory anyway (the PM-resident stack, the
lock words); *register* values are deliberately NOT snapshotted — they
must be reconstructed through the checkpoint array, so a compiler bug in
liveness, checkpoint placement, or pruning makes the property tests fail.
A resume point is one plain tuple (:data:`ResumePoint`) that shares the
call stack's frames: the interpreter never writes a pushed frame again,
so taking one costs a tuple, not a copy of the stack.

:meth:`PersistentMachine.run` batches execution through
:meth:`~repro.compiler.interp.ThreadVM.run_fast`, whose BOUNDARY and IO
instructions retire inside the batch through the machine's handlers;
:meth:`PersistentMachine.step` is the one-instruction reference the
batched path must match.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..compiler.interp import NO_LOCKS, Frame, LockTable, ThreadVM, WordMemory
from ..compiler.ir import Op, Program
from ..compiler.pipeline import CompiledProgram
from ..config import SystemConfig, DEFAULT_CONFIG
from ..errors import DeadlockError, MachineLimitError
from ..trace import EK, TraceEvent
from .recovery import rebuild_registers
from .wpq import FunctionalWPQ
from .regionid import RegionIdAllocator

__all__ = ["PersistentMachine", "MachineStats", "PMLayer"]

#: the most steps one :meth:`PersistentMachine.run` batch retires: a long
#: single-thread run with no sync instruction would otherwise buffer
#: every store until its halt.  The settle is exact at any cut.
BATCH_STEPS = 16_384


#: A resume point: where a thread restarts after a power failure in the
#: region that follows a boundary.  One plain tuple, never written:
#: ``(ended, func, block, index, frames, held_locks, boundary_uid,
#: initial_regs)``.  ``ended`` is the region the boundary ended (-1 for
#: the thread-start sentinel, which is always durable); ``func``,
#: ``block`` and ``index`` are the position just past the boundary;
#: ``frames`` is a tuple of the call stack's frames, shared, since no
#: pushed frame is ever written again; ``held_locks`` is the thread's
#: frozenset from the lock table; ``initial_regs`` is the thread-start
#: sentinel's register file (None for a boundary, whose registers are
#: rebuilt from the checkpoint array).
ResumePoint = Tuple[
    int, str, str, int, Tuple[Frame, ...], FrozenSet[int], int,
    Optional[Dict[str, int]],
]


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


class PMLayer(Dict[int, int]):
    """A PM image kept as a layer over a read-only ``base`` image: every
    write lands in the layer, and a :meth:`get` that misses reads
    ``base``.  The machine reads PM only through ``get``, so nothing else
    is overridden: ``update`` stays the C-level ``dict.update`` the
    commit path calls, and ``items()`` is exactly what was written over
    ``base``.  The store-node executor runs each epoch over the shard
    image this way instead of over a copy of it."""

    __slots__ = ("base",)

    def __init__(self, base: Dict[int, int]) -> None:
        super().__init__()
        self.base = base

    def get(self, word: int, default: Any = None) -> Any:
        if word in self:
            return self[word]
        return self.base.get(word, default)

    def copy(self) -> "PMLayer":
        new = PMLayer(self.base)
        new.update(self)
        return new


class _HookedMemory(WordMemory):
    """Volatile memory that routes every write through the machine's
    persistence model: admitted on the spot under
    :meth:`PersistentMachine.step`, or appended to the open batch's
    buffer under :meth:`PersistentMachine.run`, whose settle admits it
    in step order.

    ``words`` holds only the words written since boot or since the last
    crash, and a read that misses reads PM.  That is exact: outside a
    crash every PM write (a commit or overflow flush, an eager scheme's
    write-through, memory mode's final drain) targets a word some store
    already wrote here, so an unwritten word's PM value is still the one
    it had when ``words`` was last emptied."""

    def __init__(self, machine: "PersistentMachine") -> None:
        super().__init__()
        self._machine = machine

    def read(self, addr: int) -> int:
        words = self.words
        if addr in words:
            return words[addr]
        return self._machine.pm.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self.words[addr] = value
        buf = self._machine._store_buf
        if buf is None:
            self._machine._on_store(addr, value)
        else:
            buf.append((addr, value))


class PersistentMachine:
    """Functional persistence machine over a compiled program.

    The persist path is pluggable: a
    :class:`~repro.runtime.backend.PersistBackend` (default:
    ``lightwsp-lrpo``) supplies the functional runtime that owns WPQ
    admission, boundary/commit gating, drain ordering, and the
    crash-time durable set; this class owns execution, scheduling,
    resume points, the durable I/O log, and the recovery protocol's
    orchestration."""

    #: the open batch's stores: _HookedMemory appends (word, value) here
    #: instead of calling _on_store per write; None outside a batch
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
        #: per-thread boundary history, oldest first; entry 0 is the
        #: thread-start sentinel
        self.history: List[List[ResumePoint]] = []
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
            self.history.append([(
                -1, vm.func_name, vm.block, vm.index, (), NO_LOCKS, -1,
                dict(vm.regs),
            )])

    # ------------------------------------------------------------------
    # persistence model hooks (delegating to the backend runtime)
    # ------------------------------------------------------------------

    def _mc_of_word(self, word: int) -> int:
        return ((word * 8) // 64) % self.config.mc.n_mcs

    def _on_store(self, word: int, value: int) -> None:
        tid = self._stepping_tid
        region = self.allocator.region_of(tid)
        self.stats.stores += 1
        occupancy = self.persist.admit(region, word, value)
        if occupancy > self.stats.max_wpq_occupancy:
            self.stats.max_wpq_occupancy = occupancy

    def _admit_stores(self, region: int, stores: List[Tuple[int, int]]) -> None:
        """Admit a run of one region's stores in order: the fused
        equivalent of one :meth:`_on_store` per store (FaultyMachine
        drops the ones whose MC is down)."""
        stats = self.stats
        stats.stores += len(stores)
        occupancy = self.persist.admit_many(region, stores)
        if occupancy > stats.max_wpq_occupancy:
            stats.max_wpq_occupancy = occupancy

    def _resolve_full(
        self, wpq: FunctionalWPQ, region: int, word: int, value: int
    ) -> None:
        """§IV-D overflow fallback (gated backends); overridable so the
        fault subsystem can model the undo-logging defense switched off."""
        self.persist.resolve_full(wpq, region, word, value)

    def _boundary_executed(self, tid: int, boundary_uid: int) -> int:
        """The live half of a retired BOUNDARY: end the thread's region,
        hand it a fresh ID and record the resume point.  Returns the
        ended region, which :meth:`_boundary_settled` broadcasts — at
        once under :meth:`step`, in the batch's settle under
        :meth:`run`."""
        vm = self.vms[tid]
        ended = self.allocator.boundary(tid)
        self.stats.boundaries += 1
        self.history[tid].append((
            ended, vm.func_name, vm.block, vm.index, tuple(vm.frames),
            self.locks.held.get(tid, NO_LOCKS), boundary_uid, None,
        ))
        return ended

    def _io_executed(
        self, tid: int, device: int, payload: int, step: int
    ) -> None:
        """A retired IO: log it under the thread's current region, and
        its global ``step`` when ``io_steps`` is collected."""
        region = self.allocator.region_of(tid)
        self.io_log.append([tid, device, region, payload])
        io_steps = self.stats.io_steps
        if io_steps is not None:
            io_steps.append((payload, region, step))

    def _boundary_settled(self, ended: int) -> None:
        """The persistence half of a region end: the boundary leaves the
        core, and whatever that makes committable commits."""
        self._broadcast_boundary(ended)
        self._try_commit()

    def _sync_refresh(self, tid: int) -> None:
        """End the thread's current region at a synchronization point and
        hand it a fresh ID from the global counter — without creating a
        resume point (the compiler's boundary just before the sync
        instruction provides that)."""
        self._boundary_settled(self.allocator.boundary(tid))

    def _thread_halted(self, tid: int) -> None:
        """Close the trailing (empty) region so later IDs can commit; the
        compiler's exit boundary guarantees it holds no stores."""
        if tid in self._halted_closed:
            return
        self._halted_closed.add(tid)
        self._boundary_settled(self.allocator.region_of(tid))
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

    def _next_ack_due(self) -> Optional[int]:
        """The step at which the commit candidate's flush-ACK matures, or
        None when no ACK is in flight.  The base machine's interconnect
        ACKs at once, so its regions commit only at boundaries, syncs and
        halts; FaultyMachine returns its ACK schedule's entry."""
        return None

    # -- the bulk settle's view of the same protocol (see _settle_clean) --
    #: steps from a boundary's broadcast to its region's flush-ACK
    _ack_latency = 0

    def _clean(self) -> bool:
        """Whether the next batch may settle in bulk: a gated backend
        (the LRPO runtime), and on FaultyMachine a clean interconnect.
        Only calls made between batches change the answer."""
        return self.persist.gated

    def _issued_due(
        self, region: int, first_mark: Optional[int]
    ) -> Optional[int]:
        """The step at which a region broadcast before the batch may
        commit, or None if it may not.  The base machine tries commits
        only at boundaries, so at the batch's first mark."""
        if region in self.persist.boundary_issued:
            return first_mark
        return None

    def _broadcasts_settled(
        self, marks: List[Tuple[int, int, int]], k: int, upto: int
    ) -> None:
        """The bulk settle's broadcast bookkeeping: every mark's region
        was broadcast, those of ``marks[k:]`` stay uncommitted, and every
        region below ``upto`` has committed.  The base machine keeps
        none beyond the runtime's ``boundary_issued``."""

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
        that surfaces every TraceEvent); :meth:`run` batches the
        uneventful stretches and falls back to this for LOCK,
        ATOMIC_RMW and FENCE."""
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
                self._boundary_settled(
                    self._boundary_executed(tid, event.boundary_uid)
                )
            elif event.kind == EK.IO:
                self._io_executed(
                    tid, event.lock_id, event.payload, self.stats.steps
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

    def run(self, steps: Optional[int] = None) -> bool:
        """Execute up to ``steps`` instructions (or to completion).
        Returns True when the program has finished.

        The one batching loop, for any thread count.  A batch is one
        :meth:`ThreadVM.run_fast` call on the scheduled thread (picked
        with :meth:`step`'s rotation), and its BOUNDARY and IO
        instructions retire inside it through two handlers: a boundary's
        live half (:meth:`_boundary_executed`) plus a settle mark, and
        the IO log (:meth:`_io_executed`).  A batch ends only at its cap
        (``max_steps``, ``steps``, :data:`BATCH_STEPS` and, with several
        threads, the next rotation point), at a halt, or before LOCK /
        ATOMIC_RMW / FENCE, which go through :meth:`step` (sync
        refreshes, blocked-thread rotation, deadlock detection).
        :meth:`_settle` then applies the batch's persistence events in
        step order, before anything can read them: before :meth:`step`,
        :meth:`_thread_halted`, and any return or raise.  ``_turn``
        advances arithmetically: the classic path bumps it once per
        ``steps % quantum == 0`` crossing, which over a batch is
        ``(end // q) - (start // q)`` increments.
        Byte-for-bit equivalent to single-stepping — the parity suite
        pins this."""
        stats = self.stats
        vms = self.vms
        n = len(vms)
        rotate = n > 1
        q = self.quantum
        max_steps = self.max_steps
        remaining = steps if steps is not None else max_steps
        tid = 0
        vm = vms[0]
        run_fast = vm.run_fast
        boundary_executed = self._boundary_executed
        io_executed = self._io_executed

        # the handlers read the current batch's tid, base, stores and marks
        def on_boundary(uid: int, step: int) -> None:
            marks.append(
                (len(stores), step + base, boundary_executed(tid, uid))
            )

        def on_io(device: int, payload: int, step: int) -> None:
            io_executed(tid, device, payload, step + base)

        while remaining > 0:
            if rotate or vm.halted:
                # the classic scan: rotate past halted threads; after 2n
                # visits with none live, the program has finished
                for _ in range(2 * n):
                    tid = self._turn % n
                    vm = vms[tid]
                    if not vm.halted:
                        break
                    self._turn += 1
                else:
                    return True
                self._stepping_tid = tid
                run_fast = vm.run_fast
            start = stats.steps
            left = max_steps - start
            if left > remaining:
                left = remaining
            if left > BATCH_STEPS:
                left = BATCH_STEPS
            if rotate and left > q - start % q:
                left = q - start % q
            if left < 1:
                left = 1  # max_steps is exhausted: one step, then raise
            # the thread's own step count runs in lockstep with the
            # machine's for the whole batch: global step = vm.steps + base
            base = start - vm.steps
            stores: List[Tuple[int, int]] = []
            store_steps: List[int] = []
            marks: List[Tuple[int, int, int]] = []
            self._store_buf = stores
            try:
                _, why = run_fast(left, None, store_steps, on_boundary, on_io)
            finally:
                self._store_buf = None
                end = vm.steps + base
                # a halting batch settles up to the step before its HALT,
                # which then retires as step() retires it
                self._settle(
                    tid, stores, store_steps, base, marks,
                    end - 1 if vm.halted else end,
                )
            self._turn += end // q - start // q
            remaining -= end - start
            if vm.halted:
                stats.steps = end
                self._thread_halted(tid)
            if end >= max_steps:
                raise MachineLimitError(
                    "machine exceeded max_steps", steps=end, limit=max_steps
                )
            if why == "pause":
                # LOCK / ATOMIC_RMW / FENCE: a live thread stands at the
                # scheduled turn, so the classic step never reports done
                self.step()
                remaining -= 1
                if stats.steps >= max_steps:
                    raise MachineLimitError(
                        "machine exceeded max_steps",
                        steps=stats.steps,
                        limit=max_steps,
                    )
        return self.finished

    def _settle(
        self,
        tid: int,
        stores: List[Tuple[int, int]],
        store_steps: List[int],
        base: int,
        marks: List[Tuple[int, int, int]],
        end: int,
    ) -> None:
        """Apply a batch's persistence events in the order the per-step
        path applies them, leaving ``stats.steps`` at ``end``.

        ``stores[i]`` retired at global step ``store_steps[i] + base``.
        Each mark ``(position, step, ended)`` is a BOUNDARY that retired
        at ``step`` after ``stores[:position]``: that segment is the
        ended region's, and once it is admitted the boundary is
        broadcast at ``step``.  The tail segment belongs to the thread's
        current region.  Before each store, every region whose flush-ACK
        matured by the store's step commits; last, every ACK due by
        ``end`` matures.  Between two machine-visible instructions
        nothing reads the WPQs, PM or the commit state (LOADs read
        volatile memory), so replaying the events in step order is
        exact — and the settle must run even for a batch that buffered
        nothing, since an ACK can mature during an ALU-only stretch.

        ``due`` is the commit candidate's ACK due step: only a commit or
        a broadcast changes it, never an admission, so :meth:`_mature`
        runs only once a store or a mark reaches it.

        On a clean machine (:meth:`_clean`) :meth:`_settle_clean`
        computes the same net effect once per batch instead; this
        per-event walk runs when it cannot."""
        if self._clean() and self._settle_clean(
            tid, stores, store_steps, base, marks, end
        ):
            return
        lo = 0
        due = self._next_ack_due()
        tail = (len(stores), -1, self.allocator.region_of(tid))
        for hi, step, region in marks + [tail]:
            while lo < hi:
                # one bulk admission per run of stores between maturities
                first = store_steps[lo] + base
                if due is not None and due <= first:
                    due = self._mature(first)
                cut = hi
                if due is not None and due - base <= store_steps[hi - 1]:
                    cut = bisect_left(store_steps, due - base, lo + 1, hi)
                self._admit_stores(region, stores[lo:cut])
                lo = cut
            if step >= 0:
                if due is not None and due < step:
                    self._mature(step - 1)
                self.stats.steps = step
                self._boundary_settled(region)
                due = self._next_ack_due()
        if due is not None and due <= end:
            self._mature(end)
        self.stats.steps = end

    def _mature(self, upto: int) -> Optional[int]:
        """The per-step ACK check of every step up to ``upto``: commit,
        at its due step, each region whose flush-ACK matures by then.
        Returns the due step of the ACK still in flight, if any."""
        due = self._next_ack_due()
        while due is not None and due <= upto:
            self.stats.steps = due
            self._try_commit()
            after = self._next_ack_due()
            if after == due:
                break  # nothing committed: only a broadcast changes that
            due = after
        return due

    def _settle_clean(
        self,
        tid: int,
        stores: List[Tuple[int, int]],
        store_steps: List[int],
        base: int,
        marks: List[Tuple[int, int, int]],
        end: int,
    ) -> bool:
        """:meth:`_settle` once per batch on a clean machine: the regions
        that end and commit inside the batch reach PM as slices of
        ``stores`` and never enter the WPQs.  Returns False, having
        changed nothing, when a WPQ would overflow; the per-event settle
        then runs the §IV-D fallback where it fires.

        Regions commit in ID order from ``committed_upto``, each at the
        later of its due step and the previous commit's step, up to the
        first region with no due step or one past ``end``.  A mark's
        region is due ``_ack_latency`` steps after its boundary, one
        broadcast before the batch at :meth:`_issued_due`.  A store
        stamped ``k`` is admitted after every commit at a step ``<= k``
        and a queue grows only between commits, so each WPQ peaks just
        before a commit step or at the batch end.  Its count there is
        computed only where the largest queue plus the batch's
        uncommitted stores could pass the running peak."""
        persist = self.persist
        wpqs = persist.wpqs
        latency = self._ack_latency
        issued_due = self._issued_due
        first_mark = marks[0][1] if marks else None
        n_marks = len(marks)
        # the queues' pre-batch counts, less the runs of committed regions
        counts = [len(wpq) for wpq in wpqs]
        top = max(counts)
        queued = {region for wpq in wpqs for region in wpq.runs}
        peak = self.stats.max_wpq_occupancy
        capacity = wpqs[0].capacity
        mc_of = self._mc_of_word
        start = region = persist.committed_upto
        at: List[int] = []  # commit steps of regions start, start + 1, ...
        # (position, region): a committing region's queued runs reach PM
        # after stores[:position]
        flushes: List[Tuple[int, int]] = []
        # marks[:k] ended regions that have committed, whose stores
        # are stores[:done]
        k = done = 0
        admitted = 0  # stores admitted before the latest commit step
        last = -1  # the latest commit step
        while True:
            mark = k < n_marks and marks[k][2] == region
            if mark:
                due = marks[k][1] + latency
            else:
                due = issued_due(region, first_mark)
            if due is not None and due > end:
                due = None
            if due is None or due > last:
                # a commit step, or the batch end: every queue peaks here
                admitted = (
                    len(stores) if due is None
                    else bisect_left(store_steps, due - base, admitted)
                )
                if top + admitted - done > peak:
                    window = [mc_of(word) for word, _ in stores[done:admitted]]
                    for mc, count in enumerate(counts):
                        count += window.count(mc)
                        if count > peak:
                            if count > capacity:
                                return False
                            peak = count
                if due is None:
                    break
                last = due
            at.append(last)
            if region in queued:
                flushes.append((done, region))
                for mc, wpq in enumerate(wpqs):
                    counts[mc] -= len(wpq.runs.get(region, ()))
                top = max(counts)
            if mark:
                done = marks[k][0]
                k += 1
            region += 1

        # it fits: settle
        persist.commit_through(region, stores, done, flushes)
        lo = done
        for hi, _, ended in marks[k:]:
            persist.region_ended(ended)
            if hi > lo:
                persist.queue(ended, stores[lo:hi])
                lo = hi
        if len(stores) > lo:
            persist.queue(self.allocator.region_of(tid), stores[lo:])
        self._broadcasts_settled(marks, k, region)
        stats = self.stats
        stats.stores += len(stores)
        stats.commits += region - start
        stats.max_wpq_occupancy = peak
        if stats.commit_steps is not None:
            stats.commit_steps.extend(zip(range(start, region), at))
        stats.steps = end
        return True

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
        # caches are gone: every read falls through to PM
        self.volatile.words = {}
        self.locks = LockTable()
        self._halted_closed.clear()

        for tid, vm in enumerate(self.vms):
            # the latest boundary whose *ended* region is durable; entry 0,
            # the thread-start sentinel, always is
            history = self.history[tid]
            i = len(history) - 1
            while i and not self.persist.region_durable(history[i][0]):
                i -= 1
            del history[i + 1:]  # trim history past the resume point
            resume = history[i]
            _, func, block, index, frames, held_locks, _, _ = resume

            vm.locks = self.locks
            vm.func_name = func
            vm.block = block
            vm.index = index
            vm.frames = list(frames)
            vm.halted = False
            vm.regs = self._rebuild_registers(tid, resume)
            for lock in held_locks:
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

    def _rebuild_registers(
        self, tid: int, resume: ResumePoint
    ) -> Dict[str, int]:
        """Registers come ONLY from the checkpoint array + recovery plans
        (or the initial arguments for the thread-start sentinel)."""
        *_, boundary_uid, initial_regs = resume
        if initial_regs is not None:
            return dict(initial_regs)
        plan = self.compiled.plan_for(boundary_uid)
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
        new.pm = self.pm.copy()  # a PMLayer keeps its base
        new.volatile = _HookedMemory(new)
        new.volatile.words = dict(self.volatile.words)
        new.locks = self.locks.copy()
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
            nvm.frames = list(vm.frames)
            new.vms.append(nvm)
        # entries are immutable tuples over frames nothing writes again
        new.history = [list(h) for h in self.history]
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
