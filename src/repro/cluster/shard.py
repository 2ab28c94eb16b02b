"""The cluster's shard executor: one epoch of one store shard, as a pure
function fit for a :mod:`repro.parallel` worker process.

Each shard is a full LightWSP store node — its own
:class:`~repro.faults.machine.FaultyMachine` with all defenses on and
its own pluggable persist backend — but the executor holds **no** live
machine between epochs: a shard's identity is its durable data
(``image``, a word map) plus how many requests it has served.  Every
epoch the executor boots a fresh machine from that image, seeds the
request ring, runs the shared compiled store program (``epoch_base=0``;
acknowledgement payloads are *local* indices the coordinator translates
through the batch's ``first_id``), and returns the new image.  That
makes :func:`execute_shard_epoch` a deterministic, picklable function of
its arguments — exactly what lets the coordinator fan shards out over
real worker processes with bit-identical results at any ``--jobs``.

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

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..faults.defenses import ALL_ON
from ..faults.machine import FaultyMachine
from ..faults.model import FaultEvent
from ..store.layout import StoreLayout
from ..store.oracle import StoreModel, check_recovery
from ..store.programs import Request, request_words
from ..store.server import DATA_FLOOR
from .protocol import fence_admits

__all__ = [
    "ShardState",
    "RangeState",
    "ShipEntry",
    "EpochResult",
    "execute_shard_epoch",
]

#: per-epoch machine step budget — a batch that exceeds it is a bug, not
#: a slow run, and surfaces as a violation instead of a hang
MAX_EPOCH_STEPS = 8_000_000


@dataclass
class ShardState:
    """Everything durable about one shard between epochs (parent-side)."""

    shard: int
    image: Dict[int, int] = field(default_factory=dict)
    model: StoreModel = None  # type: ignore[assignment]
    served: int = 0           # requests applied in completed epochs
    epochs: int = 0
    steps: int = 0
    crashes: int = 0

    def image_digest(self) -> str:
        h = hashlib.sha256()
        for w in sorted(self.image):
            h.update(("%d=%d;" % (w, self.image[w])).encode())
        return h.hexdigest()[:16]


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
    image: Dict[int, int] = field(default_factory=dict)
    #: local request indices whose acks were durable before any cut —
    #: the acknowledgements a live coordinator actually receives
    acked_local: List[int] = field(default_factory=list)
    #: local indices acked only after crash-recovery resumed the batch
    #: (delivered to the coordinator when the shard rejoins)
    late_local: List[int] = field(default_factory=list)
    #: durable result word per local request index, post-epoch
    results: List[int] = field(default_factory=list)
    steps: int = 0
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
    ``step`` unless the batch finishes first."""
    result = EpochResult(shard=shard)
    if not fence_admits(range_fence, batch_fence):
        # promotion fence: a batch stamped with a stale (or future)
        # fencing token is split brain, refused before anything applies
        result.outcome = "fenced_rejected"
        result.image = dict(image)
        return result
    if first_id != served:
        # sequence fence: the message layer (or a buggy driver) delivered
        # an epoch the shard is not at — refuse rather than double-apply
        result.outcome = "replay_rejected"
        result.image = dict(image)
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
    if not machine.finished:
        result.outcome = "crashed" if crashed else "ok"
        result.violations.append(
            "shard %d: epoch at id %d did not finish within %d steps"
            % (shard, first_id, MAX_EPOCH_STEPS)
        )
        return result

    all_acked = sorted({entry[3] for entry in machine.io_log})
    if crashed:
        result.outcome = "crashed"
        result.acked_local = pre_acked
        result.late_local = [p for p in all_acked if p not in set(pre_acked)]
    else:
        result.outcome = "ok"
        result.acked_local = all_acked
    result.image = {
        w: v for w, v in machine.pm.items()
        if w >= DATA_FLOOR and v != 0
    }
    result.results = [
        machine.pm.get(layout.out + i, 0) for i in range(len(batch))
    ]
    result.steps = machine.stats.steps
    return result
