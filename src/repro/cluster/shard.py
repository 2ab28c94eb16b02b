"""The store-node executor: one epoch of one store shard, as a pure
function fit for a :mod:`repro.parallel` worker process.  It serves both
the single-process store server (:class:`repro.store.StoreServer`) and
the cluster's shards.

Each shard is a full LightWSP store node — its own
:class:`~repro.faults.machine.FaultyMachine` with all defenses on and
its own pluggable persist backend — but the executor holds **no** live
machine between epochs: a shard's identity is its durable data
(``image``, a word map) plus how many requests it has served.  Every
epoch the executor boots a fresh machine from that image, seeds the
request ring, runs the shared compiled store program (acknowledgement
payloads are *local* indices the caller translates through the batch's
``first_id``), and returns the *write delta*: only the data words whose
durable value the batch changed or cleared, never the whole image.
That makes :func:`execute_shard_epoch` a deterministic, picklable
function of its arguments whose result costs what the batch wrote, with
bit-identical results wherever it runs.

Three robustness guards live here, at the point of application:

* **sequence fencing** — a batch whose ``first_id`` does not equal the
  shard's served count is refused (``replay_rejected`` outcome, mirroring
  :class:`repro.store.ReplayedEpochError`): a duplicated or re-ordered
  epoch delivery can never double-apply non-idempotent ops.
* **promotion fencing** — with replication every batch is stamped with
  its range's fencing token; a token that is not the range's current one
  is refused (``fenced_rejected``), checked *before* the sequence fence:
  a demoted primary speaking after failover is split brain, not replay,
  and nothing it applies may count.
* **crash-means-finish** — a power cut mid-epoch triggers the machine's
  real recovery, and — whole-system persistence — the interrupted batch
  *resumes and completes* on restored power.  The executor reports which
  acks were durable before the cut (those are all a live client saw) and
  the full post-recovery ack set separately, so the coordinator can model
  the dark window between the kill and the shard's rejoin.  The store's
  acked-prefix theorem is checked at the cut via
  :func:`repro.store.check_recovery`.

:class:`RangeState` is the coordinator-held replication record per key
range: the fencing token, the follower image the primary's settled
batches are shipped to, the ship log itself, and — after a failover —
the retired primary kept around for the oracle's split-brain checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..faults.defenses import ALL_ON
from ..faults.machine import FaultyMachine
from ..faults.model import FaultEvent
from ..store.layout import DATA_FLOOR, StoreLayout
from ..store.oracle import StoreModel, check_recovery
from ..store.programs import Request, request_words
from ..trace import image_digest
from .protocol import fence_admits

__all__ = [
    "ShardState",
    "RangeState",
    "ShipEntry",
    "EpochResult",
    "execute_shard_epoch",
]

#: per-epoch machine step budget — a batch that exceeds it is a bug, not
#: a slow run: the machine raises ``MachineLimitError`` instead of hanging
MAX_EPOCH_STEPS = 8_000_000


@dataclass
class ShardState:
    """Everything durable about one shard between epochs (parent-side)."""

    shard: int
    #: durable data words; a word the shard cleared may stay as a 0,
    #: which reads exactly like an absent word
    image: Dict[int, int] = field(default_factory=dict)
    model: StoreModel = None  # type: ignore[assignment]
    served: int = 0           # requests applied in completed epochs
    epochs: int = 0
    steps: int = 0
    crashes: int = 0

    def image_digest(self) -> str:
        return image_digest({w: v for w, v in self.image.items() if v})


#: one shipped unit of the replication log: the epoch the batch settled,
#: its sequence-fence position, and the requests it applied, in order
ShipEntry = Tuple[int, int, List[Request]]


@dataclass
class RangeState:
    """Replication bookkeeping for one key range (coordinator-held).

    The *range* is the unit of failover: its primary is always
    ``ClusterSession.shards[range_id]`` (promotion swaps the object into
    that slot), its follower re-applies the primary's settled batches
    from ``ship_log`` — each exactly once, in order, through the same
    executor — lagging by at most the configured window.  ``fence``
    starts at 1 and bumps at every promotion; the retired primary and
    the token it was fenced at stay on record so the oracle can prove no
    post-demotion write of it was ever admitted."""

    range_id: int
    fence: int = 1
    follower: Optional[ShardState] = None
    #: settled batches not all of which have reached the follower yet
    ship_log: List[ShipEntry] = field(default_factory=list)
    shipped: int = 0          # ship_log prefix applied at the follower
    promotions: int = 0
    retired: Optional[ShardState] = None
    retired_fence: int = 0    # token the retired primary was fenced at

    @property
    def lag(self) -> int:
        """Settled batches the follower has not applied yet."""
        return len(self.ship_log) - self.shipped


@dataclass
class EpochResult:
    """What one :func:`execute_shard_epoch` call produced (picklable)."""

    shard: int
    #: "ok" | "crashed" | "replay_rejected" | "fenced_rejected"
    outcome: str = "ok"
    #: the write delta: ``{word: new value}`` for every data word
    #: (``>= DATA_FLOOR``) whose final PM value differs from the input
    #: image; 0 means the batch cleared the word.  Empty for a refused
    #: batch.  The input image updated with it is the shard's new image.
    image: Dict[int, int] = field(default_factory=dict)
    #: local request indices whose acks were durable before any cut —
    #: the acknowledgements a live coordinator actually receives
    acked_local: List[int] = field(default_factory=list)
    #: local indices acked only after crash-recovery resumed the batch
    #: (delivered to the coordinator when the shard rejoins)
    late_local: List[int] = field(default_factory=list)
    #: durable result word per local request index, post-epoch
    results: List[int] = field(default_factory=list)
    #: per acked request, in local-index order: the step at which the
    #: region holding its response committed (first commit wins)
    ack_steps: List[int] = field(default_factory=list)
    steps: int = 0
    commits: int = 0
    max_wpq_occupancy: int = 0
    crash_step: int = 0
    violations: List[str] = field(default_factory=list)


def execute_shard_epoch(
    shard: int,
    compiled: CompiledProgram,
    layout: StoreLayout,
    image: Dict[int, int],
    served: int,
    batch: Sequence[Request],
    first_id: int,
    base_model: StoreModel,
    backend: str,
    config: SystemConfig = DEFAULT_CONFIG,
    cut: Optional[FaultEvent] = None,
    msg_faults: Sequence[FaultEvent] = (),
    batch_fence: int = 1,
    range_fence: int = 1,
) -> EpochResult:
    """Run one epoch of one shard.  Pure in its arguments; touches no
    global state, so it can run in a forked worker or inline with
    identical results.  ``cut`` is a power-cut event; it strikes at its
    ``step`` unless the batch finishes first.  ``image`` is only read."""
    result = EpochResult(shard=shard)
    if not fence_admits(range_fence, batch_fence):
        # promotion fence: a batch stamped with a stale (or future)
        # fencing token is split brain, refused before anything applies
        result.outcome = "fenced_rejected"
        return result
    if first_id != served:
        # sequence fence: the message layer (or a buggy driver) delivered
        # an epoch the shard is not at — refuse rather than double-apply
        result.outcome = "replay_rejected"
        return result

    machine = FaultyMachine(
        compiled, config=config, defenses=ALL_ON,
        max_steps=MAX_EPOCH_STEPS, backend=backend,
    )
    machine.pm.update(image)
    machine.volatile.words.update(image)
    ring = request_words(layout, list(batch))
    machine.pm.update(ring)
    machine.volatile.words.update(ring)
    for event in msg_faults:
        machine.arm_msg(event)
    commit_steps: List[Tuple[int, int]] = []
    io_steps: List[Tuple[int, int, int]] = []
    machine.stats.commit_steps = commit_steps
    machine.stats.io_steps = io_steps

    crashed = False
    pre_acked: List[int] = []
    if cut is not None:
        machine.run(steps=cut.step)
        if not machine.finished:
            crashed = True
            result.crash_step = machine.stats.steps
            machine.crash(cut)
            # acks durable at the cut: payloads are local indices
            pre_acked = sorted({entry[3] for entry in machine.io_log})
            acked_global = {first_id + p for p in pre_acked}
            found = check_recovery(
                machine.pm, acked_global, base_model, list(batch), first_id
            )
            result.violations.extend(
                "shard %d epoch at id %d (cut at step %d): %s"
                % (shard, first_id, result.crash_step, v)
                for v in found
            )
    # whole-system persistence: on restored power the interrupted batch
    # resumes from its checkpoint and completes
    machine.run()
    machine.finish_messages()

    all_acked = sorted({entry[3] for entry in machine.io_log})
    if crashed:
        result.outcome = "crashed"
        result.acked_local = pre_acked
        result.late_local = [p for p in all_acked if p not in set(pre_acked)]
    else:
        result.outcome = "ok"
        result.acked_local = all_acked
    # only the ring and the words some store targeted can differ from
    # the input image (see _HookedMemory.written)
    pm_get = machine.pm.get
    image_get = image.get
    result.image = {
        w: pm_get(w, 0)
        for w in machine.volatile.written.union(ring)
        if w >= DATA_FLOOR and pm_get(w, 0) != image_get(w, 0)
    }
    result.results = [pm_get(layout.out + i, 0) for i in range(len(batch))]
    commit_at = dict(commit_steps)
    ack_at: Dict[int, int] = {}
    for payload, region, _ in io_steps:
        if payload not in ack_at and region in commit_at:
            ack_at[payload] = commit_at[region]
    result.ack_steps = [ack_at[p] for p in sorted(ack_at)]
    result.steps = machine.stats.steps
    result.commits = machine.stats.commits
    result.max_wpq_occupancy = machine.stats.max_wpq_occupancy
    _release(machine)
    return result


def _release(machine: FaultyMachine) -> None:
    """Drop a finished machine's word maps.  The machine is cyclic (its
    memory and persist runtime point back at it), so without this only
    a full collection would free them."""
    machine.pm.clear()
    machine.volatile.words.clear()
