"""Cluster-level chaos: the fault vocabulary, seeded schedule generation,
and the campaign runner that hammers the cluster and checks the oracle.

A :class:`ClusterFault` is one adversarial event at the *cluster* layer —
above the machine-level fault model of :mod:`repro.faults.model`, which
keeps attacking each shard from below (``msg`` faults here arm real
boundary-broadcast drops/delays/dups inside the target shard's machine):

=============  ======================================================
kind           effect, at ``(epoch, shard)``
=============  ======================================================
``kill``       power cut mid-epoch at a seeded step; the shard is dark
               for ``down_for`` epochs, then LightWSP recovery resumes
               and completes the interrupted batch and the shard rejoins
``drop_req``   the epoch's batch never reaches the shard
``dup_req``    the batch is delivered twice; the replica must bounce
               off the shard's sequence fence, not double-apply
``drop_ack``   the batch executes but every acknowledgement is lost
``delay_ack``  acknowledgements arrive ``delay`` epochs late
``dup_ack``    acknowledgements are delivered twice (idempotency tokens
               make the second delivery a no-op)
``partition``  coordinator-side: all traffic to the shard is lost from
               ``epoch`` until ``until`` (requests and acks both)
``msg``        arm one machine-level boundary-broadcast fault (op/mc)
               inside the shard's epoch execution
=============  ======================================================

Schedules are lists of these events with a loss-free JSON round-trip, so
a chaos run's full adversary serializes into the JSONL trace, replays
bit-for-bit, and shrinks with the generic delta-debugging minimizer
(:func:`repro.faults.shrink.shrink_schedule`).

:func:`run_cluster_campaign` is the entry point behind
``repro faults campaign --workload cluster``: a seeded sweep of chaos
scenarios over every *recovering* backend, run through the campaign
kernel (:mod:`repro.faults.kernel`), asserting zero acked-write loss and
transaction atomicity for each, and shrinking any failure to a minimal
fault schedule.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..faults.kernel import Campaign, Plane
from ..faults.model import MSG_OPS
from ..faults.shrink import shrink_schedule
from ..runtime.backend import get_backend, require_recovering

if TYPE_CHECKING:
    from .coordinator import ClusterSession

__all__ = [
    "CLUSTER_FAULT_KINDS",
    "ClusterFault",
    "chaos_to_json",
    "chaos_from_json",
    "generate_cluster_chaos",
    "ClusterScenario",
    "ClusterCampaignReport",
    "run_cluster_campaign",
]

CLUSTER_FAULT_KINDS: Tuple[str, ...] = (
    "kill",
    "drop_req",
    "dup_req",
    "drop_ack",
    "delay_ack",
    "dup_ack",
    "partition",
    "msg",
)

#: the chaos every generated schedule carries by default (the campaign
#: and the `repro cluster` commands): primary power cuts, request/ack
#: transport faults, coordinator-side partitions, machine-level
#: broadcast faults
KILLS = 2
TRANSPORT = 5
PARTITIONS = 1
MSG_FAULTS = 2
#: the campaign's client mix, and its shrinker's budget per failure
MIX = "crud"
SHRINK_BUDGET = 40


@dataclass(frozen=True)
class ClusterFault:
    """One cluster-layer adversarial event."""

    kind: str
    epoch: int
    shard: int
    down_for: int = 0       # kill: epochs of darkness before rejoin
    until: int = 0          # partition: first epoch traffic flows again
    delay: int = 1          # delay_ack: epochs of ack lateness
    op: str = ""            # msg: "drop" | "delay" | "dup"
    mc: int = -1            # msg: target memory controller
    replica: int = 0        # kill: 0 = primary, 1 = the range's follower

    def __post_init__(self) -> None:
        if self.kind not in CLUSTER_FAULT_KINDS:
            raise ValueError("unknown cluster fault kind %r" % (self.kind,))
        if self.epoch < 0 or self.shard < 0:
            raise ValueError("fault needs epoch >= 0 and shard >= 0")
        if self.kind == "kill" and self.down_for < 1:
            raise ValueError("kill needs down_for >= 1")
        if self.replica not in (0, 1):
            raise ValueError("replica must be 0 (primary) or 1 (follower)")
        if self.replica == 1 and self.kind != "kill":
            raise ValueError("only kill faults target a follower replica")
        if self.kind == "partition" and self.until <= self.epoch:
            raise ValueError("partition needs until > epoch")
        if self.kind == "msg":
            if self.op not in MSG_OPS:
                raise ValueError("msg fault needs op in %r" % (MSG_OPS,))
            if self.mc < 0:
                raise ValueError("msg fault needs a target mc")

    @property
    def end(self) -> int:
        """The epoch this fault stops holding anything back: a killed
        replica's rejoin, a partition's end, a delayed ack's delivery."""
        if self.kind == "kill":
            return self.epoch + self.down_for
        if self.kind == "partition":
            return self.until
        if self.kind == "delay_ack":
            return self.epoch + self.delay
        return self.epoch

    def to_json(self) -> Dict:
        data = asdict(self)
        for key, default in (
            ("down_for", 0), ("until", 0), ("delay", 1),
            ("op", ""), ("mc", -1), ("replica", 0),
        ):
            if data[key] == default:
                del data[key]
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "ClusterFault":
        return cls(**data)


def chaos_to_json(schedule: Sequence[ClusterFault]) -> List[Dict]:
    return [f.to_json() for f in schedule]


def chaos_from_json(data: Sequence[Dict]) -> List[ClusterFault]:
    return [ClusterFault.from_json(d) for d in data]


def generate_cluster_chaos(
    seed: int,
    n_shards: int,
    horizon: int,
    kills: int = KILLS,
    transport: int = TRANSPORT,
    partitions: int = PARTITIONS,
    msg_faults: int = MSG_FAULTS,
    n_mcs: int = 4,
    reshard_at: int = -1,
    follower_kills: int = 0,
) -> List[ClusterFault]:
    """A seeded chaos schedule within ``horizon`` epochs: ``kills`` power
    cuts (each healing within the horizon), ``transport`` request/ack
    faults, ``partitions`` coordinator-side partitions, and
    ``msg_faults`` machine-level broadcast faults.  When ``reshard_at``
    names a migration epoch, kills landing at or after it may target the
    joining shard too (kill-during-migration schedules);
    ``follower_kills`` adds ``replica=1`` power cuts for replicated
    runs.  Deterministic in its arguments."""
    rng = random.Random(seed * 2654435761 + 0x5EED)
    out: List[ClusterFault] = []
    span = max(2, horizon - 1)
    for _ in range(kills):
        # long enough that some kills outlive the supervisor's
        # shard_deadline and exercise declared-death degradation
        down = rng.randint(2, 6)
        epoch = rng.randint(1, max(1, span - down - 1))
        targets = n_shards
        if reshard_at >= 0 and epoch >= reshard_at:
            targets = n_shards + 1
        out.append(ClusterFault(
            kind="kill", epoch=epoch,
            shard=rng.randrange(targets), down_for=down,
        ))
    for _ in range(follower_kills):
        down = rng.randint(2, 6)
        epoch = rng.randint(1, max(1, span - down - 1))
        out.append(ClusterFault(
            kind="kill", epoch=epoch,
            shard=rng.randrange(n_shards), down_for=down, replica=1,
        ))
    kinds = ("drop_req", "dup_req", "drop_ack", "delay_ack", "dup_ack")
    for _ in range(transport):
        kind = kinds[rng.randrange(len(kinds))]
        out.append(ClusterFault(
            kind=kind, epoch=rng.randint(0, span),
            shard=rng.randrange(n_shards),
            delay=rng.randint(1, 3) if kind == "delay_ack" else 1,
        ))
    for _ in range(partitions):
        epoch = rng.randint(1, max(1, span - 3))
        out.append(ClusterFault(
            kind="partition", epoch=epoch,
            shard=rng.randrange(n_shards),
            until=epoch + rng.randint(1, 3),
        ))
    for _ in range(msg_faults):
        out.append(ClusterFault(
            kind="msg", epoch=rng.randint(0, span),
            shard=rng.randrange(n_shards),
            op=MSG_OPS[rng.randrange(len(MSG_OPS))],
            mc=rng.randrange(n_mcs),
        ))
    out.sort(key=lambda f: (
        f.epoch, f.shard, f.kind, f.replica, f.until, f.delay
    ))
    return out


# ----------------------------------------------------------------------
# the chaos campaign
# ----------------------------------------------------------------------

@dataclass
class ClusterScenario:
    """One chaos scenario's outcome."""

    backend: str
    seed: int
    chaos: List[ClusterFault]
    violations: List[str]
    digest: str
    epochs: int
    responses: Dict[str, int]           # status -> count
    unavailable_shards: List[int]
    shrunk: Optional[List[ClusterFault]] = None
    shrink_evals: int = 0
    promotions: int = 0                 # failovers served (replicate)
    resharded: bool = False             # a live migration completed

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_record(self) -> Dict:
        """The scenario's ``cluster_scenario`` trace record."""
        record = {
            "backend": self.backend, "seed": self.seed,
            "chaos": chaos_to_json(self.chaos),
            "violations": self.violations,
            "digest": self.digest,
            "epochs": self.epochs,
            "responses": self.responses,
            "unavailable_shards": self.unavailable_shards,
        }
        if self.promotions:
            record["promotions"] = self.promotions
        if self.resharded:
            record["resharded"] = True
        if self.shrunk is not None:
            record["shrunk"] = chaos_to_json(self.shrunk)
            record["shrink_evals"] = self.shrink_evals
        return record


@dataclass
class ClusterCampaignReport:
    """The whole campaign: one scenario per (backend, seed)."""

    scenarios: List[ClusterScenario]
    trace_path: Optional[str] = None

    @property
    def failures(self) -> List[ClusterScenario]:
        return [s for s in self.scenarios if not s.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_session(
    start: Dict, backend: str, seed: int, chaos: Sequence[ClusterFault]
) -> "ClusterSession":
    """Run one chaos session, built from the campaign's start record
    plus the scenario's backend, seed and schedule.  Running it checks
    the cluster oracle: the verdict is ``session.violations``."""
    from .coordinator import ClusterSession

    session = ClusterSession.build(
        n_shards=start["n_shards"],
        keyspace=start["keyspace"],
        ops=start["ops"],
        seed=seed,
        backend=backend,
        mix=start["mix"],
        chaos=list(chaos),
        replicate=start.get("replicate", False),
        ship_lag=start.get("ship_lag", 1),
        reshard_at=start.get("reshard_at", -1),
    )
    session.run()
    return session


def _scenario_unit(
    start: Dict, unit: Tuple[str, int]
) -> Tuple[List[Dict], ClusterScenario]:
    """Run one (backend, seed) chaos scenario, shrinking its schedule if
    the oracle fails — a pool worker body."""
    backend, seed = unit
    chaos = generate_cluster_chaos(
        seed, start["n_shards"], start["horizon"],
        kills=start["kills"], transport=start["transport"],
        partitions=start["partitions"], msg_faults=start["msg_faults"],
        reshard_at=start.get("reshard_at", -1),
        follower_kills=start.get("follower_kills", 0),
    )
    session = _run_session(start, backend, seed, chaos)
    shrunk = None
    evals = 0
    if session.violations and chaos:
        shrunk, evals = shrink_schedule(
            list(chaos),
            lambda schedule: bool(
                _run_session(start, backend, seed, schedule).violations
            ),
            budget=SHRINK_BUDGET,
        )
    counts: Dict[str, int] = {}
    for resp in session.responses.values():
        counts[resp.status] = counts.get(resp.status, 0) + 1
    resharded = bool(
        session._mig is not None and session._mig["state"] == "done"
    )
    scenario = ClusterScenario(
        backend=backend,
        seed=seed,
        chaos=chaos,
        violations=list(session.violations),
        digest=session.digest(),
        epochs=session.epoch,
        responses=counts,
        unavailable_shards=sorted({
            r.shard for r in session.responses.values()
            if r.status == "unavailable" and r.shard >= 0
        }),
        shrunk=shrunk,
        shrink_evals=evals,
        promotions=session.counters.get("promotions", 0),
        resharded=resharded,
    )
    return [scenario.to_record()], scenario


def run_cluster_campaign(
    backends: Sequence[str] = ("lightwsp-lrpo", "cwsp-eager"),
    seeds: Sequence[int] = (0, 1, 2),
    n_shards: int = 3,
    keyspace: int = 16,
    ops: int = 36,
    jobs: int = 1,
    trace_path: Optional[str] = None,
    horizon: int = 24,
    replicate: bool = False,
    ship_lag: int = 1,
    reshard_at: int = -1,
    follower_kills: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> ClusterCampaignReport:
    """The seeded cluster chaos campaign: every (backend, seed) pair gets
    its own generated fault schedule, cluster run, and oracle check;
    failing scenarios are shrunk to a minimal schedule.  Backends must be
    crash-consistent by design (``require_recovering``) — a backend that
    loses acked writes at a power cut cannot satisfy the cluster oracle
    and belongs in ``repro compare`` instead."""
    say = progress or (lambda msg: None)
    for name in backends:
        require_recovering(get_backend(name), "the cluster chaos campaign")
    start: Dict = {
        "backends": list(backends), "seeds": list(seeds),
        "n_shards": n_shards, "keyspace": keyspace, "ops": ops,
        "mix": MIX, "kills": KILLS, "transport": TRANSPORT,
        "partitions": PARTITIONS, "msg_faults": MSG_FAULTS,
        "horizon": horizon,
        "sharding": "unit order is (backend-major, seed-minor); results "
                    "are merged by unit index, so jobs never changes "
                    "this trace",
    }
    if replicate:
        start.update(
            replicate=True, ship_lag=ship_lag, follower_kills=follower_kills
        )
    if reshard_at >= 0:
        start["reshard_at"] = reshard_at
    units = [(b, s) for b in backends for s in seeds]
    say("cluster campaign: %d scenarios (%d backends x %d seeds), jobs=%d"
        % (len(units), len(backends), len(seeds), jobs))
    with Campaign(PLANE, start, trace_path) as campaign:
        results = campaign.sweep(
            lambda unit: _scenario_unit(start, unit), units, jobs=jobs
        )
        scenarios = [scenario for _, scenario in results]
        for scenario in scenarios:
            say("  %-14s seed=%-3d %s (%d epochs, %s)"
                % (scenario.backend, scenario.seed,
                   "ok" if scenario.ok else "VIOLATION",
                   scenario.epochs,
                   ", ".join("%s=%d" % kv
                             for kv in sorted(scenario.responses.items()))))
        report = ClusterCampaignReport(
            scenarios=scenarios, trace_path=trace_path
        )
        campaign.end(
            scenarios=len(scenarios), failures=len(report.failures)
        )
    return report


def _replayer(start: Dict, path: str) -> Callable[[Dict], Dict]:
    """Replay for a cluster campaign trace: each scenario record's
    session, rebuilt from the start record plus the record itself, must
    reproduce the recorded digest and oracle verdict."""

    def rerun(record: Dict) -> Dict:
        session = _run_session(
            start, record["backend"], record["seed"],
            chaos_from_json(record["chaos"]),
        )
        return {
            "digest": session.digest(),
            "violations": list(session.violations),
        }

    return rerun


PLANE = Plane(
    start="cluster_campaign_start",
    scenario="cluster_scenario",
    end="cluster_campaign_end",
    label="cluster-chaos",
    replay_label="cluster-replay",
    replayer=_replayer,
    name_of=lambda record: "%s seed=%d" % (record["backend"], record["seed"]),
)
