"""The cluster coordinator: routing, retries, supervision, and 2PC.

A :class:`ClusterSession` drives N store shards — each a full LightWSP
machine with its own pluggable persist backend, run in process through
:func:`~repro.parallel.fan_out` — in lock-step *epochs*:

1. **supervise** — tick the shard state machine; shards whose darkness
   expired rejoin (their recovery completed the interrupted batch; the
   acks it produced in the dark are delivered now).
2. **admit** — pending logical ops acquire their per-key locks (a
   transaction locks all its keys; FIFO per key) and get a deadline.
3. **dispatch** — every due sub-operation is routed over the hash ring
   and batched per shard with a fencing sequence number
   (``first_id = served``); batches execute in process via
   :func:`fan_out`, each returning its write delta, which
   :meth:`ClusterSession._commit` folds into the shard's image.  The
   cluster chaos layer perturbs the exchange: kills crash the machine
   mid-epoch, requests and acks drop, delay, or duplicate, partitions
   silence a shard coordinator-side.
4. **ack** — surviving acknowledgements complete sub-ops (idempotency
   tokens make duplicates no-ops), drive the 2PC decision log, and
   complete flights.
5. **expire** — ops past their deadline complete with a typed error:
   ``unavailable`` when the blamed shard is not serving (and immediately
   when the supervisor has declared it dead — graceful degradation:
   the dead range fails fast while every other range keeps serving),
   ``deadline_exceeded`` when the shard is up but the retries lost the
   race.  Writes whose application is unknown are marked indeterminate.

Cross-shard multi-key writes are epoch-ordered two-phase commits over
*shadow keys*: prepare PUTs the value under ``key + keyspace`` on the
owner shard, the coordinator logs the commit/abort decision, and the
commit phase PUTs the real key and DELETEs the shadow (abort just
DELETEs the shadow).  Post-decision sub-ops retry forever — a decision,
once logged, always drains.  No client ever reads a shadow key (scans
are clamped to the real keyspace), so a half-prepared transaction is
invisible by construction and a *visible* shadow key at quiesce is a
cluster-oracle violation.

Replication phase two (``replicate=True``) upgrades every key range to
a **primary + follower** pair.  The primary's settled per-epoch batches
are shipped to the follower in epoch order (the follower re-applies
them through the same pure executor, lagging by at most ``ship_lag``
settled batches); when the supervisor declares a primary DEAD, the
coordinator catches the follower up on the full shipped log, bumps the
range's fencing token, swaps the follower into the primary slot, clones
a fresh follower, and delivers the dead primary's dark acknowledgements
from the replicated log — the range keeps serving with zero acked-write
loss instead of degrading to ``unavailable``.  **Live resharding**
(``reshard_at >= 0``) migrates the arcs a new shard steals from the
extended hash ring while the cluster serves: copied in chunks with
dirty-key tracking, then one delta-sync + migrate-out handoff between
epochs flips the ring and reroutes in-flight sub-operations, reusing
the sequence-fence machinery so no epoch is ever double-served.

Every shard batch — client traffic, a batch shipped to a follower, a
migration copy — takes one path: :meth:`ClusterSession._execute` runs
it through the pure executor and :meth:`ClusterSession._commit` folds
the result into the shard, and every primary power cut goes dark
through :meth:`ClusterSession._go_dark`.

Everything is deterministic in ``(workload seed, chaos schedule)``
(the retry policy is seeded from the workload seed): executor calls are pure functions fanned out per epoch and
merged in shard order — replication shipping, promotion, and migration
are coordinator-side inline work — and the JSONL trace is emitted only
from the merged timeline, so the same seed produces a byte-identical
trace at any ``--jobs``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..compiler.pipeline import compile_program
from ..config import DEFAULT_CONFIG
from ..faults.model import FaultEvent
from ..parallel import fan_out
from ..runtime.backend import get_backend, require_recovering
from ..store.layout import OP_DELETE, OP_GET, OP_PUT, OP_SCAN
from ..store.oracle import StoreModel
from ..store.programs import Request, build_store_program
from ..trace import NullTrace, mix_int
from .chaos import ClusterFault
from .protocol import (
    ABORTED,
    DEADLINE_EXCEEDED,
    OK,
    UNAVAILABLE,
    ClusterResponse,
    RetryPolicy,
    SessionTracker,
)
from .ring import HashRing, moved_keys
from .shard import EpochResult, RangeState, ShardState, execute_shard_epoch
from .supervisor import Supervisor
from .workload import LogicalOp, generate_cluster_ops

__all__ = ["ClusterSession", "Applied"]

#: the session's fixed shape: words per stored value, requests per shard
#: epoch, and virtual nodes per shard on the hash ring
VALUE_WORDS = 2
MAX_BATCH = 8
VNODES = 16
#: moved keys per migration copy: each may bring its shadow, so a chunk
#: fills at most one batch
COPY_CHUNK = MAX_BATCH // 2


class Applied(NamedTuple):
    """One ground-truth log entry: a request a shard actually executed.

    ``request`` stays at index 3 (the pre-replication tuple shape) so
    positional consumers keep working.  ``role`` distinguishes client
    traffic (``serve``) from resharding's internal copies
    (``migrate_in`` at the target, ``migrate_out`` at the source);
    ``fence`` is the range's fencing token at application time and
    ``epoch`` the cluster epoch — together they let the oracle prove no
    demoted primary's write ever entered the log."""

    shard: int
    gid: int
    token: int                  # client token; -1 internal; -2 probe
    request: Request
    role: str = "serve"
    fence: int = 1
    epoch: int = 0


@dataclass
class _SubOp:
    """One routed store request belonging to a logical op."""

    token: int
    index: int                  # position within the flight's phase
    shard: int
    request: Request
    post_decision: bool = False  # 2PC commit/abort: retry forever
    acked: bool = False
    attempts: int = 0
    next_due: int = 0
    value: Optional[int] = None
    gid: int = -1               # log position of the accepted ack
    served_by: int = -1         # shard slot that produced that ack


@dataclass
class _Flight:
    """A logical op in flight: its sub-ops, phase, and deadline."""

    op: LogicalOp
    admitted: int
    deadline: int
    phase: str                  # "single" | "prepare" | "commit" | "abort"
    subops: List[_SubOp] = field(default_factory=list)
    decision: str = ""          # txn only: "" | "commit" | "abort"
    decision_epoch: int = -1
    response: Optional[ClusterResponse] = None

    @property
    def settled(self) -> bool:
        """Response issued and every sub-op drained (locks releasable)."""
        return self.response is not None and all(
            s.acked for s in self.subops
        )

    def total_attempts(self) -> int:
        return sum(s.attempts for s in self.subops)


class ClusterSession:
    """One run of the resilient sharded store cluster."""

    def __init__(
        self,
        n_shards: int,
        keyspace: int,
        ops: Sequence[LogicalOp],
        seed: int = 0,
        backend: Optional[str] = None,
        chaos: Sequence[ClusterFault] = (),
        jobs: int = 1,  # ignored: every epoch runs in process
        max_epochs: Optional[int] = None,
        trace: Any = None,
        replicate: bool = False,
        ship_lag: int = 1,
        reshard_at: int = -1,
    ) -> None:
        from ..store.layout import StoreLayout

        if n_shards < 1:
            raise ValueError("need at least one shard")
        if ship_lag < 0:
            raise ValueError("ship_lag must be >= 0")
        self.n_shards = n_shards
        self.keyspace = keyspace
        self.seed = seed
        self.backend = require_recovering(
            get_backend(backend), "the cluster's crash-recovery supervisor"
        )
        self.policy = RetryPolicy(seed=seed)
        #: an explicit epoch cap; without one, only the no-progress
        #: watchdog (``RetryPolicy.stall_window``) ends a stuck run
        self.max_epochs = max_epochs
        #: the last epoch that issued a response, acked a sub-op, logged
        #: a 2PC decision, or ran a reshard step
        self._last_progress = 0
        self.trace = trace if trace is not None else NullTrace()
        # shadow keys live at key + keyspace, so the layout is sized for
        # both halves; scans are clamped to the real half by the workload
        sizing = StoreLayout.sized(
            2 * keyspace, value_words=VALUE_WORDS, max_batch=MAX_BATCH
        )
        prog, self.layout = build_store_program(sizing)
        self.compiled = compile_program(prog, DEFAULT_CONFIG.compiler)
        self.ring = HashRing(n_shards, VNODES)
        self.shards = [
            ShardState(shard=i, model=StoreModel(self.layout))
            for i in range(n_shards)
        ]
        self.replicate = replicate
        self.ship_lag = ship_lag
        self.reshard_at = reshard_at
        self.ranges: List[RangeState] = []
        if replicate:
            self.ranges = [
                RangeState(
                    range_id=i,
                    follower=ShardState(
                        shard=i, model=StoreModel(self.layout)
                    ),
                )
                for i in range(n_shards)
            ]
        self.sessions = SessionTracker()
        #: (epoch, range, new fence) per promotion, in order
        self.promotion_log: List[Tuple[int, int, int]] = []
        self._follower_dark: Dict[int, int] = {}
        self._mig: Optional[Dict[str, Any]] = None
        self.supervisor = Supervisor(n_shards, self.policy.shard_deadline)
        self.pending: List[LogicalOp] = list(ops)
        self.ops_by_token: Dict[int, LogicalOp] = {
            op.token: op for op in self.pending
        }
        self.inflight: Dict[int, _Flight] = {}
        self.locks: Dict[int, int] = {}          # key -> token
        self.responses: Dict[int, ClusterResponse] = {}
        self.violations: List[str] = []
        #: ground truth: every request actually applied, in application
        #: order per shard (see :class:`Applied`)
        self.applied_log: List[Applied] = []
        self.decision_log: List[Tuple[int, int, str]] = []
        self.epoch = 0
        self.admit_cap = max(2, 2 * n_shards)
        # chaos, indexed for O(1) lookup per (epoch, shard)
        self._kills: Dict[Tuple[int, int], ClusterFault] = {}
        self._follower_kills: Dict[Tuple[int, int], ClusterFault] = {}
        self._transport: Dict[Tuple[int, int], List[ClusterFault]] = {}
        self._partitions: List[ClusterFault] = []
        self._msg: Dict[Tuple[int, int], List[ClusterFault]] = {}
        for fault in chaos:
            key = (fault.epoch, fault.shard)
            if fault.kind == "kill" and fault.replica == 1:
                self._follower_kills[key] = fault
            elif fault.kind == "kill":
                self._kills[key] = fault
            elif fault.kind == "partition":
                self._partitions.append(fault)
            elif fault.kind == "msg":
                self._msg.setdefault(key, []).append(fault)
            else:
                self._transport.setdefault(key, []).append(fault)
        self.chaos = list(chaos)
        #: the last epoch the chaos schedule holds anything back; the
        #: no-progress watchdog does not count the wait for it
        self._chaos_end = max((f.end for f in chaos), default=0)
        #: acks awaiting delivery: (deliver_epoch, shard, [(global_id, value)])
        self._held: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        #: global_id -> sub-op, for ack routing (ids are never reused)
        self._dispatched: Dict[Tuple[int, int], _SubOp] = {}
        self.counters: Dict[str, int] = {
            "dispatches": 0, "retries": 0, "replays_rejected": 0,
            "acks_dropped": 0, "acks_delayed": 0, "acks_duplicated": 0,
            "reqs_dropped": 0, "partition_drops": 0, "kills": 0,
            "promotions": 0, "shipped": 0, "fenced_rejected": 0,
            "follower_kills": 0, "migrated_keys": 0, "ryw_checked": 0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_shards: int = 3,
        keyspace: int = 16,
        ops: int = 32,
        seed: int = 0,
        backend: Optional[str] = None,
        mix: str = "crud",
        dist: str = "zipfian",
        txn_every: int = 6,
        chaos: Sequence[ClusterFault] = (),
        **kwargs: Any,
    ) -> "ClusterSession":
        """Session over a generated workload (the common entry point)."""
        logical = generate_cluster_ops(
            mix, ops, keyspace, seed=seed, dist=dist, txn_every=txn_every
        )
        return cls(
            n_shards, keyspace, logical, seed=seed, backend=backend,
            chaos=chaos, **kwargs,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _real(self, key: int) -> int:
        """The real key behind a 2PC shadow key (itself otherwise)."""
        return key - self.keyspace if key > self.keyspace else key

    def owner(self, key: int) -> int:
        """Owning shard; a shadow key lives with its real key."""
        return self.ring.shard_for(self._real(key))

    def _lock_keys(self, op: LogicalOp) -> Tuple[int, ...]:
        if op.kind == "scan":
            return ()
        return op.keys

    def _scan_targets(self, op: LogicalOp) -> List[int]:
        start, count = op.keys[0], op.args[0]
        return sorted({
            self.owner(k) for k in range(start, start + count)
        })

    # ------------------------------------------------------------------
    # the epoch loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        extras: Dict[str, Any] = {}
        if self.replicate:
            extras["replicate"] = True
            extras["ship_lag"] = self.ship_lag
        if self.reshard_at >= 0:
            extras["reshard_at"] = self.reshard_at
        self.trace.emit(
            "cluster_start",
            n_shards=self.n_shards, keyspace=self.keyspace,
            backend=self.backend.name, seed=self.seed,
            ring=self.ring.digest(), vnodes=self.ring.vnodes,
            ops=len(self.pending),
            policy={
                "ack_timeout": self.policy.ack_timeout,
                "backoff_base": self.policy.backoff_base,
                "backoff_cap": self.policy.backoff_cap,
                "max_attempts": self.policy.max_attempts,
                "deadline": self.policy.deadline,
                "shard_deadline": self.policy.shard_deadline,
            },
            chaos=[f.to_json() for f in self.chaos],
            sharding="epoch executors are pure per-shard functions merged "
                     "in shard order; --jobs never changes this trace",
            **extras,
        )
        window = self.policy.stall_window
        # waiting out the chaos schedule (a dark shard's rejoin, a
        # partition, a late ack) or a scheduled reshard is not a stall
        waits_until = max(self._chaos_end, self.reshard_at)
        while self.pending or self.inflight or self._reshard_active():
            if self.max_epochs is not None and self.epoch >= self.max_epochs:
                self.violations.append(
                    "cluster did not quiesce within %d epochs "
                    "(%d pending, %d in flight)"
                    % (self.max_epochs, len(self.pending), len(self.inflight))
                )
                break
            idle = self.epoch - max(self._last_progress, waits_until)
            if idle > window:
                self.violations.append(
                    "cluster made no progress for %d epochs "
                    "(%d pending, %d in flight)"
                    % (idle, len(self.pending), len(self.inflight))
                )
                break
            self.step_epoch()
        self.finalize()

    def step_epoch(self) -> None:
        e = self.epoch
        rejoined = self.supervisor.tick(e)
        self._promote_dead(e)
        self._strike_followers(e)
        self._deliver_held(e)
        self._reshard_tick(e)
        self._admit(e)
        completions = self._dispatch(e)
        completions.extend(self._expire(e))
        self._settle_flights()
        self._ship(e)
        transitions = self.supervisor.drain_transitions()
        if completions or transitions or rejoined:
            self.trace.emit(
                "cluster_epoch",
                epoch=e,
                rejoined=rejoined,
                transitions=[
                    {"epoch": te, "shard": ts, "status": st}
                    for te, ts, st in transitions
                ],
                completions=[
                    self.responses[t].to_json() for t in completions
                ],
            )
        self.epoch = e + 1

    # ------------------------------------------------------------------
    def _admit(self, e: int) -> None:
        admitted = 0
        blocked: Set[int] = set()
        remaining: List[LogicalOp] = []
        pending = self.pending
        for i, op in enumerate(pending):
            if admitted >= self.admit_cap:
                # nothing behind the cap can be admitted this epoch
                remaining.extend(pending[i:])
                break
            keys = self._lock_keys(op)
            if any(k in self.locks or k in blocked for k in keys):
                blocked.update(keys)
                remaining.append(op)
                continue
            for k in keys:
                self.locks[k] = op.token
            self.inflight[op.token] = self._launch(op, e)
            admitted += 1
        self.pending = remaining

    def _launch(self, op: LogicalOp, e: int) -> _Flight:
        flight = _Flight(
            op=op, admitted=e, deadline=e + self.policy.deadline,
            phase="prepare" if op.kind == "txn" else "single",
        )
        if op.kind == "txn":
            # phase 1: PUT each value under its shadow key on the owner
            for i, (k, seed_val) in enumerate(zip(op.keys, op.args)):
                shadow = k + self.keyspace
                flight.subops.append(_SubOp(
                    token=op.token, index=i, shard=self.owner(k),
                    request=(OP_PUT, shadow, seed_val), next_due=e,
                ))
        elif op.kind == "scan":
            start, count = op.keys[0], op.args[0]
            for i, shard in enumerate(self._scan_targets(op)):
                flight.subops.append(_SubOp(
                    token=op.token, index=i, shard=shard,
                    request=(OP_SCAN, start, count), next_due=e,
                ))
        else:
            key = op.keys[0]
            opcode = {"put": OP_PUT, "get": OP_GET, "delete": OP_DELETE}[
                op.kind
            ]
            arg = op.args[0] if op.kind == "put" else 0
            flight.subops.append(_SubOp(
                token=op.token, index=0, shard=self.owner(key),
                request=(opcode, key, arg), next_due=e,
            ))
        return flight

    # ------------------------------------------------------------------
    def _partitioned(self, shard: int, e: int) -> bool:
        return any(
            p.shard == shard and p.epoch <= e < p.until
            for p in self._partitions
        )

    def _dispatch(self, e: int) -> List[int]:
        # gather due sub-ops per serving shard, in token order
        per_shard: Dict[int, List[_SubOp]] = {}
        for token in sorted(self.inflight):
            flight = self.inflight[token]
            for sub in flight.subops:
                if sub.acked or sub.next_due > e:
                    continue
                health = self.supervisor[sub.shard]
                if not health.serving:
                    continue  # wait for rejoin (or the deadline)
                if not sub.post_decision and \
                        sub.attempts >= self.policy.max_attempts:
                    continue  # out of attempts; the deadline decides
                per_shard.setdefault(sub.shard, []).append(sub)
        exec_units = []
        for shard_id in sorted(per_shard):
            subs = per_shard[shard_id][: self.layout.max_batch]
            for sub in subs:
                attempt = sub.attempts
                sub.attempts += 1
                if attempt:
                    self.counters["retries"] += 1
                sub.next_due = self.policy.retry_at(sub.token, attempt, e)
            self.counters["dispatches"] += len(subs)
            if self._partitioned(shard_id, e):
                self.counters["partition_drops"] += len(subs)
                self.supervisor.observe_silence(shard_id, e)
                continue
            faults = self._transport.get((e, shard_id), [])
            if any(f.kind == "drop_req" for f in faults):
                self.counters["reqs_dropped"] += len(subs)
                self.supervisor.observe_silence(shard_id, e)
                continue
            first_id = self.shards[shard_id].served
            for i, sub in enumerate(subs):
                self._dispatched[(shard_id, first_id + i)] = sub
            exec_units.append({
                "shard": shard_id,
                "subs": subs,
                "first_id": first_id,
                "requests": [s.request for s in subs],
                "msg": [
                    FaultEvent(
                        kind="msg", step=1, op=f.op, mc=f.mc, delay=f.delay
                    )
                    for f in self._msg.get((e, shard_id), [])
                ],
                "kill": self._kills.get((e, shard_id)),
                "faults": faults,
            })

        # the actual shard work: pure executors, run in process; a
        # forked pool per epoch cost more than the batches it ran
        # (measured in DESIGN.md, "Topology and the epoch loop")
        def unit_worker(unit: Dict[str, Any]) -> EpochResult:
            shard_id = unit["shard"]
            return self._execute(
                shard_id, self.shards[shard_id], unit["requests"], e,
                kill=unit["kill"], msg=unit["msg"],
            )
        results = fan_out(
            unit_worker, exec_units, jobs=1, label="cluster-epoch"
        )

        completions: List[int] = []
        for unit, result in zip(exec_units, results):
            completions.extend(self._merge(e, unit, result))

        # a power cut strikes whether or not a batch was in flight: a
        # kill on an idle (or partitioned/dropped) exchange still takes
        # the shard dark — there is just no interrupted batch to resume
        executed = {u["shard"] for u in exec_units}
        for (fe, fs), kill in sorted(self._kills.items()):
            if fe != e or fs in executed or not self.supervisor[fs].serving:
                continue
            self._go_dark(fs, e, kill)
        return completions

    # ------------------------------------------------------------------
    # the one batch path: execute, commit, and the power cut
    # ------------------------------------------------------------------
    def _execute(
        self,
        shard_id: int,
        state: ShardState,
        requests: List[Request],
        e: int,
        first_id: Optional[int] = None,
        kill: Optional[ClusterFault] = None,
        msg: Sequence[FaultEvent] = (),
        fence: Optional[int] = None,
    ) -> EpochResult:
        """Run one batch at ``state`` through the pure executor — the
        only call into it.  Side-effect free, so it runs as a forked
        :func:`fan_out` worker or inline alike.  The batch is stamped
        with the slot's live fencing token unless ``fence`` overrides
        it; a ``kill`` cuts power at a step seeded by ``(epoch, shard)``."""
        cut = None
        if kill is not None:
            cut = FaultEvent(kind="cut", step=1 + mix_int(
                self.seed, "kill", e, shard_id
            ) % (60 * len(requests)))
        live = self._fence_of(shard_id)
        return execute_shard_epoch(
            shard_id, self.compiled, self.layout, state.image, state.served,
            requests, state.served if first_id is None else first_id,
            state.model, self.backend.name, cut=cut, msg_faults=msg,
            batch_fence=live if fence is None else fence, range_fence=live,
        )

    def _commit(
        self,
        state: ShardState,
        e: int,
        first_id: int,
        requests: List[Request],
        result: EpochResult,
        role: str,
        tokens: Optional[List[int]] = None,
    ) -> bool:
        """Fold one executed batch into ``state`` — the only place that
        does.  A refused batch is a coordinator sequencing bug (returns
        False).  Otherwise the batch is applied in full: a cut resumes
        and completes on recovery — whole-system persistence — so the
        model advances by the whole batch and must agree with the
        durable results.  A primary's batch also enters the ground-truth
        log and, with replication, the ship log."""
        shard_id = state.shard
        self.violations.extend(result.violations)
        if result.outcome in ("replay_rejected", "fenced_rejected"):
            self.counters["replays_rejected"] += 1
            self.violations.append(
                "shard %d epoch %d: %s batch at id %d was refused (%s) "
                "— coordinator sequencing bug"
                % (shard_id, e, role, first_id, result.outcome)
            )
            return False
        want = state.model.apply_all(requests)
        if result.results != want:
            self.violations.append(
                "shard %d epoch %d: %s batch at id %d: durable results %r "
                "diverge from model %r"
                % (shard_id, e, role, first_id, result.results, want)
            )
        # cleared words stay as zeros, which read exactly like absent
        # words (the next epoch's PM layer reads this image as its base),
        # so the delta folds in with one C-level update
        state.image.update(result.image)
        state.served += len(requests)
        state.epochs += 1
        state.steps += result.steps
        if state is self.shards[shard_id]:
            fence = self._fence_of(shard_id)
            for i, request in enumerate(requests):
                self.applied_log.append(Applied(
                    shard_id, first_id + i, tokens[i] if tokens else -1,
                    request, role, fence, e,
                ))
            if self.replicate:
                self.ranges[shard_id].ship_log.append(
                    (e, first_id, list(requests))
                )
        return True

    def _go_dark(
        self,
        shard_id: int,
        e: int,
        kill: ClusterFault,
        result: Optional[EpochResult] = None,
    ) -> None:
        """A primary's power cut: the shard goes dark for the kill's
        window.  ``result`` is the batch the cut was armed on (None when
        the shard was idle); a batch that finished before its cut step
        leaves the shard up."""
        self.counters["kills"] += 1
        if result is not None and result.outcome != "crashed":
            return
        self.shards[shard_id].crashes += 1
        self.supervisor.observe_crash(shard_id, e, kill.down_for)
        self.trace.emit(
            "shard_kill", epoch=e, shard=shard_id,
            step=result.crash_step if result else 0,
            down_for=kill.down_for,
            acked_before_cut=len(result.acked_local) if result else 0,
            completed_in_dark=len(result.late_local) if result else 0,
        )

    # ------------------------------------------------------------------
    def _merge(
        self, e: int, unit: Dict[str, Any], result: EpochResult
    ) -> List[int]:
        shard_id = unit["shard"]
        subs: List[_SubOp] = unit["subs"]
        first_id: int = unit["first_id"]
        requests: List[Request] = unit["requests"]
        kill: Optional[ClusterFault] = unit["kill"]
        committed = self._commit(
            self.shards[shard_id], e, first_id, requests, result, "serve",
            [s.token for s in subs],
        )
        if kill is not None:
            self._go_dark(shard_id, e, kill, result)
        if not committed:
            return []
        self._track_dirty(requests)

        acks = [
            (first_id + p, result.results[p]) for p in result.acked_local
        ]
        late = [
            (first_id + p, result.results[p]) for p in result.late_local
        ]
        if kill is not None and late:
            # completed in the dark; delivered at the rejoin
            self._held.append((e + kill.down_for, shard_id, late))

        # transport faults on the ack path
        dup = False
        for fault in unit["faults"]:
            if fault.kind == "drop_ack":
                self.counters["acks_dropped"] += len(acks)
                acks = []
            elif fault.kind == "delay_ack":
                self.counters["acks_delayed"] += len(acks)
                self._held.append((e + max(1, fault.delay), shard_id, acks))
                acks = []
            elif fault.kind == "dup_ack":
                dup = True
        if not acks and result.outcome == "ok":
            self.supervisor.observe_silence(shard_id, e)
        completions: List[int] = []
        for rounds in range(2 if dup else 1):
            if rounds:
                self.counters["acks_duplicated"] += len(acks)
            for global_id, value in acks:
                completions.extend(
                    self._deliver_ack(shard_id, global_id, value, e)
                )
        for fault in unit["faults"]:
            if fault.kind == "dup_req":
                self._replay_probe(shard_id, requests, first_id, e)
        return completions

    def _replay_probe(
        self, shard_id: int, requests: List[Request], first_id: int, e: int
    ) -> None:
        """A duplicated batch delivery: the shard's sequence fence must
        reject it (its ``served`` has moved past ``first_id``)."""
        probe = self._execute(
            shard_id, self.shards[shard_id], requests, e, first_id=first_id
        )
        if probe.outcome != "replay_rejected":
            self.violations.append(
                "shard %d epoch %d: duplicated batch at id %d was "
                "re-applied instead of fenced" % (shard_id, e, first_id)
            )
            return
        self.counters["replays_rejected"] += 1
        self.trace.emit(
            "replay_rejected", epoch=e, shard=shard_id, first_id=first_id
        )

    # ------------------------------------------------------------------
    # replication: log shipping, failover, fencing
    # ------------------------------------------------------------------
    def _fence_of(self, shard_id: int) -> int:
        """The range's current fencing token (1 when un-replicated)."""
        if self.replicate and shard_id < len(self.ranges):
            return self.ranges[shard_id].fence
        return 1

    def _ship(self, e: int) -> None:
        """Epoch-ordered log shipping: apply the primary's settled
        batches at the follower until each range's lag is within the
        bounded window.  Inline coordinator work — identical at any
        ``--jobs``."""
        if not self.replicate:
            return
        for rs in self.ranges:
            if self._follower_dark.get(rs.range_id, 0) > e:
                continue  # follower dark: shipping pauses, backlog grows
            while rs.lag > self.ship_lag:
                self._ship_one(rs)

    def _ship_one(self, rs: RangeState) -> None:
        """Apply the oldest unshipped settled batch at the follower,
        through the same pure executor the primary used."""
        _settled_epoch, first_id, requests = rs.ship_log[rs.shipped]
        follower = rs.follower
        assert follower is not None
        rs.shipped += 1
        result = self._execute(
            rs.range_id, follower, requests, self.epoch, first_id=first_id
        )
        if self._commit(
            follower, self.epoch, first_id, requests, result, "ship"
        ):
            self.counters["shipped"] += 1

    def _promote_dead(self, e: int) -> None:
        """Promote-on-DEAD: a range whose primary the supervisor just
        declared dead fails over to its follower instead of degrading."""
        if not self.replicate:
            return
        for rs in self.ranges:
            if self.supervisor[rs.range_id].declared_dead:
                self._promote(rs, e)

    def _promote(self, rs: RangeState, e: int) -> None:
        r = rs.range_id
        caught_up = rs.lag
        # 1. fence the follower at the last replicated epoch: catch it up
        #    on the full shipped log (every settled batch, including the
        #    one the dead primary completed during its crash-recovery)
        self._follower_dark.pop(r, None)
        while rs.shipped < len(rs.ship_log):
            self._ship_one(rs)
        # 2. bump the fencing token and retire the dead primary: any
        #    batch it could still utter carries the old token and is
        #    refused by fence_admits
        retired = self.shards[r]
        rs.retired = retired
        rs.retired_fence = rs.fence
        rs.fence += 1
        rs.promotions += 1
        promoted = rs.follower
        assert promoted is not None
        self.shards[r] = promoted
        # 3. re-replicate: clone the new primary as the next follower
        rs.follower = ShardState(
            shard=r, image=dict(promoted.image),
            model=promoted.model.copy(), served=promoted.served,
        )
        rs.ship_log = []
        rs.shipped = 0
        self.promotion_log.append((e, r, rs.fence))
        self.counters["promotions"] += 1
        self.supervisor.reset(r, e)
        # 4. the dark acknowledgements: every settled-but-undelivered ack
        #    is in the replicated log the new primary serves from, so it
        #    is deliverable immediately — zero acked-write loss
        self._held = [
            (min(due, e), shard, acks) if shard == r else
            (due, shard, acks)
            for due, shard, acks in self._held
        ]
        self.trace.emit(
            "promote", epoch=e, range=r, fence=rs.fence,
            caught_up=caught_up, served=promoted.served,
        )

    def _strike_followers(self, e: int) -> None:
        """Follower power cuts (``kill`` faults with ``replica=1``):
        whole-system persistence means the interrupted ship apply resumes
        on restored power, so the only effect is a paused replication
        channel — the backlog drains at the rejoin."""
        if not self.replicate:
            return
        for (fe, r), kill in sorted(self._follower_kills.items()):
            if fe != e or r >= len(self.ranges):
                continue
            self._follower_dark[r] = e + kill.down_for
            self.counters["follower_kills"] += 1
            self.trace.emit(
                "shard_kill", epoch=e, shard=r, step=0,
                down_for=kill.down_for, acked_before_cut=0,
                completed_in_dark=0, replica=1,
            )

    # ------------------------------------------------------------------
    # live resharding
    # ------------------------------------------------------------------
    def _reshard_active(self) -> bool:
        if self.reshard_at < 0:
            return False
        return self._mig is None or self._mig["state"] != "done"

    def _reshard_tick(self, e: int) -> None:
        if self.reshard_at < 0:
            return
        if self._mig is None:
            if e < self.reshard_at:
                return
            self._reshard_setup(e)
        m = self._mig
        assert m is not None
        if m["state"] == "copy":
            self._reshard_copy(e)
        elif m["state"] == "handoff":
            self._reshard_handoff(e)

    def _reshard_setup(self, e: int) -> None:
        """Open the migration: one new shard joins the extended ring;
        the arcs it steals are the complete copy plan."""
        old = self.ring
        new = old.extended()
        moved = moved_keys(old, new, self.keyspace)
        target = self.supervisor.add_shard()
        self.shards.append(
            ShardState(shard=target, model=StoreModel(self.layout))
        )
        if self.replicate:
            self.ranges.append(RangeState(
                range_id=target,
                follower=ShardState(
                    shard=target, model=StoreModel(self.layout)
                ),
            ))
        self._mig = {
            "state": "copy", "target": target,
            "moved": moved, "moved_set": set(moved),
            "copied": 0, "dirty": set(),
            "old_ring": old, "new_ring": new,
        }
        self.trace.emit(
            "reshard_start", epoch=e, new_shard=target,
            moved=len(moved), ring_from=old.digest(),
            ring_to=new.digest(),
        )

    def _track_dirty(self, requests: Sequence[Request]) -> None:
        """While a migration is copying, every write to a moved key (or
        its shadow) applied at the old owner is re-synced at handoff."""
        m = self._mig
        if m is None or m["state"] not in ("copy", "handoff"):
            return
        for opcode, key, _arg in requests:
            if opcode not in (OP_PUT, OP_DELETE):
                continue
            if self._real(key) in m["moved_set"]:
                m["dirty"].add(key)

    def _reshard_copy(self, e: int) -> None:
        """Copy one chunk of moved keys (values from the old owners'
        settled state, shadows included) into the target shard."""
        m = self._mig
        assert m is not None
        target: int = m["target"]
        if not self.supervisor[target].serving or \
                self._partitioned(target, e):
            return  # migration pauses while the target is unreachable
        moved: List[int] = m["moved"]
        if m["copied"] < len(moved):
            keys = moved[m["copied"]:m["copied"] + COPY_CHUNK]
            requests: List[Request] = []
            for k in keys:
                kv = self.shards[m["old_ring"].shard_for(k)].model.kv
                if k in kv:
                    requests.append((OP_PUT, k, kv[k]))
                shadow = k + self.keyspace
                if shadow in kv:
                    requests.append((OP_PUT, shadow, kv[shadow]))
            kill = self._kills.pop((e, target), None)
            if requests:
                self._apply_internal(
                    target, requests, e, "migrate_in", kill=kill
                )
            elif kill is not None:
                # nothing to copy this chunk, but the power cut strikes
                # regardless — the idle-kill path, migration edition
                self._go_dark(target, e, kill)
            m["copied"] += len(keys)
            self._last_progress = e
            self.counters["migrated_keys"] += len(keys)
            self.trace.emit(
                "reshard_copy", epoch=e, new_shard=target,
                keys=len(keys), copied=m["copied"], total=len(moved),
            )
        if m["copied"] >= len(moved):
            m["state"] = "handoff"

    def _reshard_handoff(self, e: int) -> None:
        """The one-shot handoff between epochs: delta-sync the dirty
        keys, drop the moved arc at the sources, flip the ring, and
        reroute in-flight sub-operations — no epoch double-served, no
        frozen window a client can observe."""
        m = self._mig
        assert m is not None
        target: int = m["target"]
        old_ring: HashRing = m["old_ring"]
        sources = sorted({old_ring.shard_for(k) for k in m["moved"]})
        involved = sources + [target]
        if any(
            not self.supervisor[s].serving or self._partitioned(s, e)
            for s in involved
        ):
            return  # partition/darkness during handoff: postpone whole
        max_batch = self.layout.max_batch
        # delta sync: re-copy every key written behind the copy pass
        delta: List[Request] = []
        for key in sorted(m["dirty"]):
            kv = self.shards[old_ring.shard_for(self._real(key))].model.kv
            if key in kv:
                delta.append((OP_PUT, key, kv[key]))
            else:
                delta.append((OP_DELETE, key, 0))
        for i in range(0, len(delta), max_batch):
            self._apply_internal(
                target, delta[i:i + max_batch], e, "migrate_in"
            )
        # migrate out: the sources drop the arc they no longer own
        dropped = 0
        for src in sources:
            kv = self.shards[src].model.kv
            drops: List[Request] = []
            for k in m["moved"]:
                if old_ring.shard_for(k) != src:
                    continue
                for kk in (k, k + self.keyspace):
                    if kk in kv:
                        drops.append((OP_DELETE, kk, 0))
            for i in range(0, len(drops), max_batch):
                self._apply_internal(
                    src, drops[i:i + max_batch], e, "migrate_out"
                )
            dropped += len(drops)
        # the flip: one atomic ownership switch between epochs
        self.ring = m["new_ring"]
        self.n_shards = len(self.shards)
        self._reroute(e)
        m["state"] = "done"
        self._last_progress = e
        self.trace.emit(
            "reshard_handoff", epoch=e, new_shard=target,
            delta=len(delta), dropped=dropped, moved=len(m["moved"]),
        )

    def _reroute(self, e: int) -> None:
        """Point every unacknowledged in-flight sub-op at the new ring.
        Scans restart whole (a half-old, half-new scan would double- or
        under-count the moved arc); single-key sub-ops just re-aim."""
        for token in sorted(self.inflight):
            flight = self.inflight[token]
            if flight.response is not None:
                continue
            if flight.op.kind == "scan" and \
                    any(not s.acked for s in flight.subops):
                start, count = flight.op.keys[0], flight.op.args[0]
                flight.subops = [
                    _SubOp(
                        token=token, index=i, shard=shard,
                        request=(OP_SCAN, start, count), next_due=e,
                    )
                    for i, shard in enumerate(self._scan_targets(flight.op))
                ]
                continue
            for sub in flight.subops:
                if not sub.acked:
                    sub.shard = self.owner(sub.request[1])

    def _apply_internal(
        self,
        shard_id: int,
        requests: List[Request],
        e: int,
        role: str,
        kill: Optional[ClusterFault] = None,
    ) -> None:
        """Apply one coordinator-internal batch (migration traffic) at a
        shard, through the same executor, fences, ground-truth log, and
        ship log as client batches — a kill mid-copy crashes the real
        machine and recovery completes the batch."""
        state = self.shards[shard_id]
        first_id = state.served
        result = self._execute(shard_id, state, requests, e, kill=kill)
        self._commit(state, e, first_id, requests, result, role)
        if kill is not None:
            self._go_dark(shard_id, e, kill, result)

    # ------------------------------------------------------------------
    # negative-oracle hooks (the cluster's mutation self-test)
    # ------------------------------------------------------------------
    def inject_stale_primary_write(
        self, range_id: int, request: Request, honor_fence: bool = True
    ) -> bool:
        """Test/chaos hook: a demoted primary tries to serve one more
        write.  With ``honor_fence`` the executor's fence refuses it
        (the defended path); with ``honor_fence=False`` the fence check
        is bypassed — modelling a broken fencing layer — the write lands
        and is recorded under the stale token, which
        :func:`~repro.cluster.oracle.check_cluster` must flag.  Returns
        True iff the write was (wrongly) applied."""
        rs = self.ranges[range_id]
        retired = rs.retired
        if retired is None:
            raise ValueError(
                "range %d has no retired primary to probe" % range_id
            )
        # a broken fencing layer passes the stale token off as current
        stamp = rs.retired_fence if honor_fence else rs.fence
        gid = retired.served
        result = self._execute(
            range_id, retired, [request], self.epoch, fence=stamp
        )
        if result.outcome == "fenced_rejected":
            self.counters["fenced_rejected"] += 1
            return False
        self._commit(retired, self.epoch, gid, [request], result, "serve")
        self.applied_log.append(Applied(
            range_id, gid, -2, request, "serve", rs.retired_fence,
            self.epoch,
        ))
        return True

    def drop_shipped_batch(self, range_id: int) -> int:
        """Test/chaos hook: the shipping layer silently loses one
        settled batch — the follower's book-keeping advances as if it
        applied, its durable image does not.  The replica-divergence
        check in :func:`~repro.cluster.oracle.check_cluster` must flag
        the gap at quiesce.  Returns the number of ops dropped."""
        rs = self.ranges[range_id]
        if rs.shipped >= len(rs.ship_log):
            raise ValueError(
                "range %d has no unshipped batch to drop" % range_id
            )
        _epoch, _first_id, requests = rs.ship_log[rs.shipped]
        follower = rs.follower
        assert follower is not None
        follower.model.apply_all(requests)
        follower.served += len(requests)
        rs.shipped += 1
        return len(requests)

    # ------------------------------------------------------------------
    def _deliver_held(self, e: int) -> None:
        due = [h for h in self._held if h[0] <= e]
        if not due:
            return
        self._held = [h for h in self._held if h[0] > e]
        completions: List[int] = []
        for _, shard_id, acks in sorted(due, key=lambda h: (h[0], h[1])):
            for global_id, value in acks:
                completions.extend(
                    self._deliver_ack(shard_id, global_id, value, e)
                )
        for token in completions:
            self.trace.emit(
                "late_completion", epoch=e,
                response=self.responses[token].to_json(),
            )

    def _deliver_ack(
        self, shard_id: int, global_id: int, value: int, e: int
    ) -> List[int]:
        self.supervisor.observe_ack(shard_id, e)
        sub = self._dispatched.get((shard_id, global_id))
        if sub is None or sub.acked:
            return []  # duplicate or superseded: the token absorbs it
        self._last_progress = e
        sub.acked = True
        sub.value = value
        sub.gid = global_id
        sub.served_by = shard_id
        flight = self.inflight.get(sub.token)
        if flight is None or flight.response is not None:
            return []
        return self._advance_flight(flight, e)

    # ------------------------------------------------------------------
    # flight state machine
    # ------------------------------------------------------------------
    def _advance_flight(self, flight: _Flight, e: int) -> List[int]:
        if not all(s.acked for s in flight.subops):
            return []
        op = flight.op
        if flight.phase == "single":
            if op.kind == "scan":
                value = sum(s.value or 0 for s in flight.subops)
            else:
                value = flight.subops[0].value
            return self._respond(flight, OK, e, value=value)
        if flight.phase == "prepare":
            self._decide(flight, "commit", e)
            return []
        if flight.phase == "commit":
            return self._respond(flight, OK, e)
        return self._respond(flight, ABORTED, e)

    def _decide(self, flight: _Flight, decision: str, e: int) -> None:
        """Log a 2PC decision and launch its post-decision phase; the
        phase's sub-ops retry forever — the decision always drains."""
        op = flight.op
        self._last_progress = e
        flight.decision = decision
        flight.decision_epoch = e
        flight.phase = decision
        self.decision_log.append((e, op.token, decision))
        self.trace.emit(
            "txn_decision", epoch=e, token=op.token, decision=decision,
            keys=list(op.keys),
        )
        subops: List[_SubOp] = []
        for i, (k, seed_val) in enumerate(zip(op.keys, op.args)):
            shadow = k + self.keyspace
            shard = self.owner(k)
            if decision == "commit":
                subops.append(_SubOp(
                    token=op.token, index=2 * i, shard=shard,
                    request=(OP_PUT, k, seed_val),
                    post_decision=True, next_due=e + 1,
                ))
                subops.append(_SubOp(
                    token=op.token, index=2 * i + 1, shard=shard,
                    request=(OP_DELETE, shadow, 0),
                    post_decision=True, next_due=e + 1,
                ))
            else:
                subops.append(_SubOp(
                    token=op.token, index=i, shard=shard,
                    request=(OP_DELETE, shadow, 0),
                    post_decision=True, next_due=e + 1,
                ))
        flight.subops = subops

    def _respond(
        self,
        flight: _Flight,
        status: str,
        e: int,
        value: Optional[int] = None,
        shard: int = -1,
        indeterminate: bool = False,
    ) -> List[int]:
        token = flight.op.token
        self._last_progress = e
        flight.response = ClusterResponse(
            token=token, status=status, value=value, shard=shard,
            attempts=flight.total_attempts(), epoch=e,
            indeterminate=indeterminate,
        )
        self.responses[token] = flight.response
        if status == OK:
            self._track_session(flight)
        return [token]

    def _track_session(self, flight: _Flight) -> None:
        """Read-your-writes certification at acknowledgement time: an OK
        write records its log position for the client session, an OK
        read must observe a position at least as new (per key, per
        range) — the guarantee a promoted follower must preserve."""
        op = flight.op
        if op.kind == "get":
            sub = flight.subops[0]
            problem = self.sessions.check_read(
                op.token, op.keys[0], sub.served_by, sub.gid
            )
            if problem:
                self.violations.append(problem)
        elif op.kind in ("put", "delete"):
            sub = flight.subops[0]
            self.sessions.note_write(
                op.token, op.keys[0], sub.served_by, sub.gid
            )
        elif op.kind == "txn" and flight.phase == "commit":
            for sub in flight.subops:
                if sub.request[0] == OP_PUT and \
                        sub.request[1] <= self.keyspace:
                    self.sessions.note_write(
                        op.token, sub.request[1], sub.served_by, sub.gid
                    )

    def _settle_flights(self) -> None:
        """Release locks and retire flights whose response is out and
        whose sub-ops have drained."""
        done = [t for t, f in self.inflight.items() if f.settled]
        for token in sorted(done):
            flight = self.inflight.pop(token)
            for k in self._lock_keys(flight.op):
                if self.locks.get(k) == token:
                    del self.locks[k]

    # ------------------------------------------------------------------
    def _expire(self, e: int) -> List[int]:
        """Deadlines and fail-fast degradation."""
        completions: List[int] = []
        for token in sorted(self.inflight):
            flight = self.inflight[token]
            if flight.response is not None:
                continue
            op = flight.op
            # fail fast: a declared-dead shard degrades its whole key
            # range immediately — no point burning the client's deadline
            dead = [
                s.shard for s in flight.subops
                if not s.acked and self.supervisor[s.shard].declared_dead
            ]
            if dead and flight.phase == "prepare":
                self._decide(flight, "abort", e)
                continue
            if dead and flight.phase == "single":
                indeterminate = op.is_write and any(
                    s.attempts and not s.acked for s in flight.subops
                )
                # cancel undone work so nothing lands after the verdict
                flight.subops = [s for s in flight.subops if s.acked]
                completions.extend(self._respond(
                    flight, UNAVAILABLE, e, shard=dead[0],
                    indeterminate=indeterminate,
                ))
                continue
            if e < flight.deadline or flight.phase in ("commit", "abort"):
                continue  # post-decision phases always drain
            if flight.phase == "prepare":
                self._decide(flight, "abort", e)
                continue
            blamed = next(
                (s for s in flight.subops if not s.acked), flight.subops[0]
            )
            status = (
                DEADLINE_EXCEEDED
                if self.supervisor[blamed.shard].serving
                else UNAVAILABLE
            )
            indeterminate = op.is_write and any(
                s.attempts and not s.acked for s in flight.subops
            )
            flight.subops = [s for s in flight.subops if s.acked]
            completions.extend(self._respond(
                flight, status, e, shard=blamed.shard,
                indeterminate=indeterminate,
            ))
        return completions

    # ------------------------------------------------------------------
    # the end of the run
    # ------------------------------------------------------------------
    def digest(self) -> str:
        h = hashlib.sha256()
        for state in self.shards:
            h.update(
                ("%d:%s:%d;" % (state.shard, state.image_digest(),
                                state.served)).encode()
            )
        for token in sorted(self.responses):
            r = self.responses[token]
            h.update(
                ("%d=%s:%s:%d;" % (token, r.status, r.value,
                                   r.epoch)).encode()
            )
        return h.hexdigest()[:16]

    def finalize(self) -> None:
        from .oracle import check_cluster

        if self.replicate:
            # drain the ship backlog: at quiesce the replica pair must
            # have converged for the oracle's divergence check
            self._follower_dark.clear()
            for rs in self.ranges:
                while rs.lag > 0:
                    self._ship_one(rs)
        self.counters["ryw_checked"] = self.sessions.reads_checked
        self.violations.extend(check_cluster(self))
        extras: Dict[str, Any] = {}
        if self.replicate:
            extras["ranges"] = [
                {
                    "range": rs.range_id, "fence": rs.fence,
                    "promotions": rs.promotions,
                    "follower_served": (
                        rs.follower.served if rs.follower else 0
                    ),
                }
                for rs in self.ranges
            ]
        if self._mig is not None:
            extras["resharded"] = {
                "new_shard": self._mig["target"],
                "moved": len(self._mig["moved"]),
                "done": self._mig["state"] == "done",
            }
        self.trace.emit(
            "cluster_end",
            epochs=self.epoch,
            responses={
                str(t): self.responses[t].to_json()
                for t in sorted(self.responses)
            },
            violations=self.violations,
            counters=self.counters,
            shards=[
                {
                    "shard": s.shard, "served": s.served,
                    "epochs": s.epochs, "crashes": s.crashes,
                    "image": s.image_digest(),
                }
                for s in self.shards
            ],
            digest=self.digest(),
            **extras,
        )
