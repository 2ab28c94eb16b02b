"""The timing engine: replays a dynamic trace against a machine
configuration under a persistence *scheme policy*.

One engine serves every scheme in the paper; the policies differ only in a
handful of knobs (persist-path entry granularity, WPQ gating vs eager
drain, whether the core stalls at region boundaries, per-entry drain
inflation for undo logging, DRAM cache availability).  See
:mod:`repro.runtime.backends` for the instances.

The model is a deterministic multi-core discrete-event replay:

* cores advance a cycle clock over their slice of the trace's columns
  (one slice per ``tid``, or per ``tid % hardware_cores`` when threads
  outnumber cores), paying cache latencies for loads and queueing
  delays for persist-path back-pressure;
* each store places ``entry_factor`` 8-byte entries on its core's persist
  path (a bandwidth-limited serial pipe) into the target MC's WPQ;
* gated WPQs quarantine entries per region; the commit pipeline flushes
  regions in allocation order after their boundary broadcast + ACK
  exchange (LRPO, §IV-B); eager WPQs drain on arrival;
* a core whose front-end buffer fills with entries whose WPQ admission is
  still unknown parks; if every runnable core parks, the §IV-D deadlock
  fallback force-flushes the oldest region with undo logging;
* L1 dirty evictions snoop the front-end buffer and re-select victims per
  the configured policy (§IV-G); LLC load misses search the WPQ (§IV-H).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..config import SystemConfig, VictimPolicy
from ..runtime.policy import SchemePolicy
from .snoop import make_victim_selector
from .cache import CacheHierarchy, HierarchyOutcome, VictimSelector
from .mc import AckFaults, CommitPipeline, MemoryController
from .memory import AddressMap
from .queues import SerialServer
from ..trace import (
    K_ALU, K_ATOMIC, K_BOUNDARY, K_CKPT, K_FENCE, K_HALT, K_IO, K_LOAD,
    K_LOCK, K_STORE, K_UNLOCK, Trace, TraceEvent, as_trace,
)

__all__ = ["SimResult", "TimingEngine", "simulate"]

#: fraction of post-L1 load latency exposed to the core (OoO/MLP hiding)
LOAD_EXPOSURE = 0.35
#: fixed cost of a lock/unlock operation (cycles)
LOCK_OP_CYCLES = 6.0
#: fixed device latency of an irrevocable I/O operation (cycles) — an
#: MMIO doorbell write, not a full block transfer
IO_OP_CYCLES = 300.0


#: codes that place an entry on the persist path
_STORE_CODES = frozenset({K_STORE, K_CKPT, K_ATOMIC, K_BOUNDARY})

#: one core's slice of the trace: its (kind, addr, aux) columns
Stream = Tuple[List[int], List[int], List[int]]


def _core_streams(trace: Trace, cores: Optional[int]) -> Dict[int, Stream]:
    """Split the trace's columns per core, in trace order: by ``tid``, or
    by ``tid % cores`` when threads time-share ``cores`` hardware
    contexts.  A trace on one core keeps the trace's own columns."""
    tids = trace.tid
    keys = tids if cores is None else [t % cores for t in tids]
    distinct = set(keys)
    if len(distinct) == 1:
        return {distinct.pop(): (trace.kind, trace.addr, trace.aux)}
    streams: Dict[int, Stream] = {key: ([], [], []) for key in distinct}
    for key, kind, addr, aux in zip(keys, trace.kind, trace.addr, trace.aux):
        stream = streams[key]
        stream[0].append(kind)
        stream[1].append(addr)
        stream[2].append(aux)
    return streams


@dataclass
class SimResult:
    """Everything the experiment drivers read off one simulation."""

    scheme: str
    cycles: float = 0.0
    instructions: int = 0
    # stall breakdown (cycles)
    fe_stall: float = 0.0
    boundary_stall: float = 0.0
    eviction_stall: float = 0.0
    wpq_hit_stall: float = 0.0
    lock_stall: float = 0.0
    # persistence-efficiency accounting (Eq. 1)
    persist_exposed: float = 0.0     # Tp
    persist_waited: float = 0.0      # Twait
    # event counters
    loads: int = 0
    stores: int = 0
    persist_entries: int = 0
    regions: int = 0
    l1_evictions: int = 0
    buffer_conflicts: int = 0
    stale_loads: int = 0
    wpq_hits: int = 0
    wpq_probes: int = 0
    llc_misses: int = 0
    overflow_flushes: int = 0
    undo_logged_entries: int = 0
    deadlock_events: int = 0
    ack_retries: int = 0
    l1_miss_rate: float = 0.0

    @property
    def persistence_efficiency(self) -> float:
        """Eq. 1: ((Tp - Twait) / Tp) * 100."""
        if self.persist_exposed <= 0.0:
            return 100.0
        eff = (self.persist_exposed - self.persist_waited) / self.persist_exposed
        return max(0.0, min(1.0, eff)) * 100.0

    @property
    def conflict_rate(self) -> float:
        """Buffer conflicts per L1 eviction."""
        if not self.l1_evictions:
            return 0.0
        return self.buffer_conflicts / self.l1_evictions

    def wpq_hits_per_minst(self) -> float:
        if not self.instructions:
            return 0.0
        return self.wpq_hits / (self.instructions / 1e6)


def _conflict_counter(result: SimResult) -> Callable[[], None]:
    """A victim selector's conflict callback: it counts into ``result``
    and reaches nothing else.  A callback that reached the engine would
    close a reference cycle (engine -> core -> selector -> engine), and
    each finished replay's caches and WPQ contents would then live until
    a gen-2 collection."""

    def on_conflict() -> None:
        result.buffer_conflicts += 1

    return on_conflict


@dataclass
class _Core:
    cid: int
    #: this core's records: kind codes, byte addresses, aux values
    kinds: List[int]
    addrs: List[int]
    auxs: List[int]
    index: int = 0
    time: float = 0.0
    region: int = -1
    stores_in_region: int = 0
    done: bool = False
    parked: bool = False
    # front-end buffer: deque of entry records [departure_or_None, block]
    fe: Deque[List] = field(default_factory=deque)
    path: SerialServer = None  # type: ignore[assignment]
    #: block -> count of in-flight persist entries (conflict window)
    inflight: Dict[int, int] = field(default_factory=dict)
    #: the §IV-G victim selector over ``inflight``, built once per replay
    #: (None when the scheme does not snoop, or under stale-load)
    selector: Optional[VictimSelector] = None
    #: records pending WPQ admission: [entry_record, mc, region, word, arr]
    waiting: List[List] = field(default_factory=list)
    #: parked reason: "fe" | "lock"
    park_reason: str = ""
    park_lock: int = -1


class TimingEngine:
    """Replays one trace under one policy.  Single-use."""

    def __init__(
        self,
        config: SystemConfig,
        policy: SchemePolicy,
        cache_scale: Optional[float] = None,
        hardware_cores: Optional[int] = None,
        ack_faults: Optional[AckFaults] = None,
    ) -> None:
        # accept a PersistBackend anywhere a policy is expected
        policy = getattr(policy, "policy", policy)
        if policy.gated and policy.boundary_wait:
            raise ValueError(
                "gated + boundary_wait is not a modelled scheme: the global "
                "flush-ID pipeline belongs to LRPO (no waits); region-"
                "waiting schemes (Capri, PPA) persist eagerly per region"
            )
        if not policy.uses_dram_cache:
            config = config.without_dram_cache()
        self.config = config
        self.policy = policy
        self.amap = AddressMap(config)
        self.mcs = [
            MemoryController(
                config, m, drain_factor=policy.drain_factor, eager=not policy.gated
            )
            for m in range(config.mc.n_mcs)
        ]
        self.pipeline = CommitPipeline(config, self.mcs, ack_faults=ack_faults)
        self.cache_scale = cache_scale or CacheHierarchy.DEFAULT_SCALE
        #: software threads beyond this many hardware contexts time-share
        #: cores (the Fig. 16 oversubscription setup: 64 threads, 8 cores)
        self.hardware_cores = hardware_cores
        self.result = SimResult(scheme=policy.name)
        # cycle constants, read once
        self._base_cpi = config.base_cpi
        self._l1_latency = float(config.l1d.latency_cycles)
        self._block_bytes = config.l1d.block_bytes
        self._fe_entries = config.persist_path.fe_entries
        self._noc_cycles = config.noc_cycles
        self._persist_latency = config.persist_latency_cycles
        self._entry_cycles = config.persist_entry_cycles
        #: the fixed part of Eq. 1's Tp at each boundary
        self._exposed_fixed = (
            config.persist_latency_cycles + config.pm_write_cycles
        )
        self._pm_read_exposed = config.pm_read_cycles * LOAD_EXPOSURE
        self._snoops = policy.persists and policy.snoop
        self._detect_stale_loads = (
            policy.persists and config.victim_policy == VictimPolicy.STALE_LOAD
        )
        self._next_region = 0
        self._lock_owner: Dict[int, Optional[int]] = {}
        self._lock_release: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def run(self, trace: Union[Trace, Iterable[TraceEvent]]) -> SimResult:
        streams = _core_streams(as_trace(trace), self.hardware_cores)
        n_cores = max(1, len(streams))
        self.hierarchy = CacheHierarchy(
            self.config, cores=n_cores, scale=self.cache_scale
        )
        #: [core][mc] one-way persist-path latency
        self._path_latency = [
            [self.amap.path_latency_cycles(c, mc.mc_id) for mc in self.mcs]
            for c in range(n_cores)
        ]
        path_interval = self._entry_cycles * self.policy.entry_factor
        cores = [
            _Core(i, *streams[key], path=SerialServer(path_interval))
            for i, key in enumerate(sorted(streams))
        ]
        for core in cores:
            core.region = self._alloc_region(core)
            if self._snoops:
                core.selector = make_victim_selector(
                    self.config.victim_policy,
                    core.inflight,
                    _conflict_counter(self.result),
                )

        ready: List[Tuple[float, int]] = [(0.0, c.cid) for c in cores]
        heapq.heapify(ready)
        self.cores = cores
        base_cpi = self._base_cpi
        result = self.result

        while ready or any(c.parked for c in cores):
            if not ready:
                # Every runnable core is parked: WPQ deadlock (§IV-D).
                now = max(c.time for c in cores)
                self.result.deadlock_events += 1
                self.pipeline.force_overflow(now)
                # The MC keeps accepting the currently-persisting region's
                # stores (undo-logged) even while full.  If the flush-ID
                # region is an *empty* region owned by a lock-blocked
                # thread (boundary-before-lock + a lost acquire race), the
                # fallback generalizes to the oldest region actually
                # waiting — still crash-safe: every overflow write is
                # undo-logged.
                woken = False
                while not woken:
                    current = self.pipeline.next_commit
                    waiting_regions = [
                        item[2] for core in cores for item in core.waiting
                    ]
                    if not waiting_regions:
                        raise RuntimeError(
                            "timing deadlock not resolved by overflow "
                            "fallback: lock-only cycle in the replay"
                        )
                    target = (
                        current
                        if current in waiting_regions
                        else min(waiting_regions)
                    )
                    for core in cores:
                        still: List[List] = []
                        for item in core.waiting:
                            record, mc_id, region, word, arr = item
                            if region == target:
                                grant = self.mcs[mc_id].overflow_admit(
                                    region, word, arr
                                )
                                record[2] = grant
                                record[0] = (
                                    grant + self._path_latency[core.cid][mc_id]
                                )
                            else:
                                still.append(item)
                        core.waiting = still
                    woken = self._wake_parked(ready)
                continue
            _, cid = heapq.heappop(ready)
            core = cores[cid]
            if core.done or core.parked:
                continue
            # Batched advancement: stay on this core while it is the
            # globally earliest runnable one, instead of a heap push/pop
            # round-trip per event.  Heap entries are unique per cid, so
            # "would be popped next" is exactly (time, cid) < ready[0].
            while True:
                # Fold the ALU and FENCE records in one batch: they touch
                # no shared simulator state, so they commute with every
                # other core's events and can never wake or park anyone.
                # The clock still advances by one sequential float add
                # per event, never one ``run * base_cpi`` product: the
                # two round differently, and the sequential sum is what
                # stepping event by event computed.
                kinds = core.kinds
                index = core.index
                t = core.time
                while index < len(kinds):
                    kind = kinds[index]
                    if kind == K_ALU:
                        run = core.auxs[index]
                    elif kind == K_FENCE:
                        run = 1
                    else:
                        break
                    for _ in range(run):
                        t += base_cpi
                    result.instructions += run
                    index += 1
                core.time = t
                core.index = index
                # The next event is machine-visible (or stream end):
                # yield to any core that is earlier in global time order.
                if ready and ready[0] < (core.time, core.cid):
                    heapq.heappush(ready, (core.time, core.cid))
                    break
                progressed = self._step(core)
                if core.done or core.parked:
                    break
                if progressed:
                    self._wake_parked(ready)

        self.result.cycles = max((c.time for c in cores), default=0.0)
        self._finalize()
        return self.result

    # ------------------------------------------------------------------
    def _alloc_region(self, core: _Core) -> int:
        region = self._next_region
        self._next_region += 1
        core.stores_in_region = 0
        return region

    def _step(self, core: _Core) -> bool:
        """Process the core's next record, never an ALU or FENCE one (the
        replay loop folds those).  Returns True when it may have
        unblocked other cores (boundary, unlock)."""
        index = core.index
        if index >= len(core.kinds):
            core.done = True
            self._thread_finished(core)
            return True
        kind = core.kinds[index]
        woke_others = False

        if kind == K_HALT:
            # One software thread finished: close its trailing region so
            # the commit pipeline can drain past it.  Under
            # oversubscription more threads' events may follow on this
            # core, so the core itself is only done at stream end.
            core.index += 1
            self._thread_finished(core)
            core.region = self._alloc_region(core)
            if core.index >= len(core.kinds):
                core.done = True
            return True

        self.result.instructions += 1
        cpi = self._base_cpi

        # A load's latency is computed before the clock is read: a delayed
        # L1 eviction inside it charges its wait to ``core.time`` itself.
        if kind == K_LOAD:
            latency = self._load(core, core.addrs[index])
            core.time += cpi + latency
            self.result.loads += 1
        elif kind in _STORE_CODES:
            addr = core.addrs[index]
            # Reserve the front-end slot *before* any side effect so a
            # parked store can be re-processed from scratch on wake-up.
            if self.policy.persists and not self._ensure_fe_slot(core):
                self.result.instructions -= 1
                return False
            if kind == K_ATOMIC:
                latency = self._load(core, addr)
                core.time += cpi + latency
                self.result.loads += 1
            else:
                core.time += cpi
            self._store(core, addr)
            self.result.stores += 1
            core.stores_in_region += 1
            if self.policy.persists:
                if kind == K_BOUNDARY and not self.policy.implicit_region_stores:
                    woke_others = self._boundary(core)
                elif (
                    self.policy.implicit_region_stores
                    and core.stores_in_region
                    >= self.policy.implicit_region_stores
                ):
                    woke_others = self._boundary(core, implicit=True)
        elif kind == K_IO:
            core.time += cpi + IO_OP_CYCLES
        elif kind == K_LOCK:
            # Under core oversubscription (Fig. 16) the merged per-core
            # streams already encode a valid serialization of critical
            # sections, and re-enforcing mutual exclusion against the
            # per-core total order can fabricate cycles the real OS
            # scheduler would never create — locks become cost-only.
            if self.hardware_cores is None and not self._try_lock(
                core, core.auxs[index]
            ):
                self.result.instructions -= 1  # retried later
                return False
            core.time += cpi + LOCK_OP_CYCLES
        elif kind == K_UNLOCK:
            if self.hardware_cores is None:
                self._unlock(core, core.auxs[index])
                woke_others = True
            core.time += cpi + LOCK_OP_CYCLES

        core.index += 1
        return woke_others

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------
    def _access(self, core: _Core, addr: int, write: bool) -> HierarchyOutcome:
        """One cache access, with the front-end buffer pruned first when
        the scheme snoops, and any delayed L1 eviction charged."""
        if self._snoops:
            self._prune_inflight(core)
        outcome = self.hierarchy.access(core.cid, addr, write, core.selector)
        if outcome.l1_eviction is not None:
            self.result.l1_evictions += 1
            if outcome.l1_eviction_delayed and self.policy.persists:
                stall = self._conflict_drain_wait(core, outcome.l1_eviction[0])
                core.time += stall
                self.result.eviction_stall += stall
        return outcome

    def _load(self, core: _Core, addr: int) -> float:
        outcome = self._access(core, addr, False)
        if outcome.l1_hit:
            return self._l1_latency
        penalty = (outcome.latency - self._l1_latency) * LOAD_EXPOSURE
        if outcome.llc_miss:
            self.result.llc_misses += 1
            if self.policy.persists:
                penalty += self._wpq_search(core, addr)
        # stale-load detection: the block is being re-fetched from PM while
        # its latest store is still in flight on the persist path
        if self._detect_stale_loads:
            self._prune_inflight(core)
            if addr // self._block_bytes in core.inflight:
                self.result.stale_loads += 1
        return self._l1_latency + penalty

    def _wpq_search(self, core: _Core, addr: int) -> float:
        mc = self.mcs[self.amap.mc_of(addr)]
        hit, ready = mc.search(addr // 8, core.time)
        self.result.wpq_probes += 1
        if not hit:
            return 0.0
        self.result.wpq_hits += 1
        if ready is None:
            wait = mc.drain_interval  # flush not yet scheduled: conservative
        else:
            wait = max(0.0, ready - core.time)
        # drop the first PM load, re-load after the entry lands (§IV-H)
        stall = wait + self._pm_read_exposed
        self.result.wpq_hit_stall += stall
        return stall

    def _store(self, core: _Core, addr: int) -> None:
        self._access(core, addr, True)
        if not self.policy.persists:
            return
        self._persist_enqueue(core, addr)

    def _conflict_drain_wait(self, core: _Core, block: int) -> float:
        """Zero-victim delay: wait until the conflicting front-end entry
        reaches its WPQ."""
        best: Optional[float] = None
        for record in core.fe:
            if record[1] == block and record[0] is not None:
                best = record[0] if best is None else min(best, record[0])
        if best is None:
            return self._persist_latency
        return max(0.0, best - core.time)

    # ------------------------------------------------------------------
    # persist path
    # ------------------------------------------------------------------
    def _ensure_fe_slot(self, core: _Core) -> bool:
        """Free or wait for a front-end buffer slot.  Returns False after
        parking the core when the head entry's WPQ admission is unknown."""
        self._prune_inflight(core)
        if len(core.fe) < self._fe_entries:
            return True
        head = core.fe[0]
        if head[0] is None:
            self._park(core, "fe")
            return False
        stall = max(0.0, head[0] - core.time)
        core.time += stall
        self.result.fe_stall += stall
        self.result.persist_waited += stall
        self._inflight_remove(core, core.fe.popleft()[1])
        return True

    def _persist_enqueue(self, core: _Core, addr: int) -> None:
        self.result.persist_entries += 1
        dep = core.path.service(core.time)
        mc_id = self.amap.mc_of(addr)
        path_latency = self._path_latency[core.cid][mc_id]
        arr = dep + path_latency
        word = addr // 8
        block = addr // self._block_bytes
        # record: [fe-slot free time (WPQ-arrival ACK), block, WPQ arrival]
        record = [None, block, None]
        core.fe.append(record)
        core.inflight[block] = core.inflight.get(block, 0) + 1

        grant = self.mcs[mc_id].admit(core.region, word, arr)
        if grant is None:
            core.waiting.append([record, mc_id, core.region, word, arr])
        else:
            record[2] = grant
            record[0] = grant + path_latency  # ACK returns to the buffer
            # The path is a pipeline: only the extra time the entry waited
            # at the WPQ (grant - arr) blocks entries behind it.
            core.path.next_free = max(
                core.path.next_free, dep + (grant - arr)
            )

    def _inflight_remove(self, core: _Core, block: int) -> None:
        count = core.inflight.get(block, 0)
        if count <= 1:
            core.inflight.pop(block, None)
        else:
            core.inflight[block] = count - 1

    def _prune_inflight(self, core: _Core) -> None:
        while core.fe and core.fe[0][0] is not None and core.fe[0][0] <= core.time:
            self._inflight_remove(core, core.fe.popleft()[1])

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    def _boundary(self, core: _Core, implicit: bool = False) -> bool:
        """End the core's current region.  Returns True when the commit
        pipeline advanced (slot releases published)."""
        region = core.region
        issue = core.time
        self.result.regions += 1
        core.time += self.policy.region_comm_cycles
        # Eq. 1's Tp: the persistence latency a scheme with *no* hiding
        # would expose at this boundary — serially pushing the region's
        # entries down the path and into PM.
        self.result.persist_exposed += (
            self._exposed_fixed
            + core.stores_in_region * self._entry_cycles * self.policy.entry_factor
        )

        if self.policy.gated:
            # No wait here: __init__ rejects a gated boundary_wait policy.
            # broadcast = boundary entry's WPQ arrival + NoC hop; the last
            # appended FE record is the boundary store (explicit case) —
            # for implicit regions use the core clock.
            broadcast = issue + self._noc_cycles
            if not implicit and core.fe:
                last = core.fe[-1][2]
                if last is not None:
                    broadcast = last + self._noc_cycles
            before = self.pipeline.next_commit
            self.pipeline.boundary(region, broadcast)
            advanced = self.pipeline.next_commit != before
        else:
            source = (
                "eager_flush_done" if self.policy.wait_for == "flush" else "eager_done"
            )
            done = max(
                (getattr(mc, source).pop(region, 0.0) for mc in self.mcs),
                default=0.0,
            )
            advanced = False
            if self.policy.boundary_wait:
                stall = max(0.0, done - core.time)
                core.time += stall
                self.result.boundary_stall += stall
                self.result.persist_waited += stall

        core.region = self._alloc_region(core)
        return advanced

    def _thread_finished(self, core: _Core) -> None:
        """Close the trailing region so the commit pipeline can drain."""
        if self.policy.persists and self.policy.gated:
            self.pipeline.boundary(core.region, core.time + self._noc_cycles)
            self._retry_waiting()

    # ------------------------------------------------------------------
    # parking / waking
    # ------------------------------------------------------------------
    def _park(self, core: _Core, reason: str, lock: int = -1) -> None:
        core.parked = True
        core.park_reason = reason
        core.park_lock = lock

    def _retry_waiting(self) -> None:
        """Retry pending WPQ admissions after slot releases."""
        for core in self.cores:
            still: List[List] = []
            for item in core.waiting:
                record, mc_id, region, word, arr = item
                grant = self.mcs[mc_id].admit(region, word, arr)
                if grant is None:
                    still.append(item)
                else:
                    record[2] = grant
                    record[0] = grant + self._path_latency[core.cid][mc_id]
            core.waiting = still

    def _wake_parked(self, ready: List[Tuple[float, int]]) -> bool:
        self._retry_waiting()
        woke = False
        for core in self.cores:
            if not core.parked:
                continue
            if core.park_reason == "fe":
                if core.fe and core.fe[0][0] is not None:
                    core.parked = False
                    heapq.heappush(ready, (core.time, core.cid))
                    woke = True
            elif core.park_reason == "lock":
                owner = self._lock_owner.get(core.park_lock)
                if owner is None:
                    release = self._lock_release.get(core.park_lock, core.time)
                    stall = max(0.0, release - core.time)
                    core.time += stall
                    self.result.lock_stall += stall
                    core.parked = False
                    heapq.heappush(ready, (core.time, core.cid))
                    woke = True
        return woke

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def _try_lock(self, core: _Core, lock_id: int) -> bool:
        owner = self._lock_owner.get(lock_id)
        if owner is None:
            self._lock_owner[lock_id] = core.cid
            return True
        self._park(core, "lock", lock=lock_id)
        return False

    def _unlock(self, core: _Core, lock_id: int) -> None:
        self._lock_owner[lock_id] = None
        self._lock_release[lock_id] = core.time

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        res = self.result
        res.l1_miss_rate = self.hierarchy.l1_miss_rate()
        res.ack_retries = self.pipeline.ack_retries
        for mc in self.mcs:
            res.overflow_flushes += mc.stats.overflow_flushes
            res.undo_logged_entries += mc.stats.undo_logged_entries


def simulate(
    trace: Union[Trace, Iterable[TraceEvent]],
    config: SystemConfig,
    policy: SchemePolicy,
    cache_scale: Optional[float] = None,
    hardware_cores: Optional[int] = None,
    ack_faults: Optional[AckFaults] = None,
) -> SimResult:
    """Convenience wrapper: run one trace under one policy (or a
    :class:`~repro.runtime.backend.PersistBackend`, whose policy is
    used).  A hand-built event list converts once to a :class:`Trace`."""
    return TimingEngine(
        config, policy, cache_scale=cache_scale,
        hardware_cores=hardware_cores, ack_faults=ack_faults,
    ).run(trace)
