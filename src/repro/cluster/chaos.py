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
scenarios over every *recovering* backend, fanned out over worker
processes, asserting zero acked-write loss and transaction atomicity for
each, and shrinking any failure to a minimal fault schedule.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.model import MSG_OPS
from ..parallel import fan_out
from ..runtime.backend import get_backend, require_recovering
from ..trace import JsonlTrace, NullTrace

__all__ = [
    "CLUSTER_FAULT_KINDS",
    "ClusterFault",
    "chaos_to_json",
    "chaos_from_json",
    "generate_cluster_chaos",
    "ClusterScenario",
    "ClusterCampaignReport",
    "run_cluster_campaign",
    "replay_cluster_trace",
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
    kills: int = 2,
    transport: int = 6,
    partitions: int = 1,
    msg_faults: int = 2,
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


def _scenario_unit(unit: Tuple[str, int], params: Dict) -> ClusterScenario:
    """Run one (backend, seed) chaos scenario — a pool worker body."""
    from .coordinator import ClusterSession

    backend, seed = unit
    chaos = generate_cluster_chaos(
        seed, params["n_shards"], params["horizon"],
        kills=params["kills"], transport=params["transport"],
        partitions=params["partitions"], msg_faults=params["msg_faults"],
        reshard_at=params["reshard_at"],
        follower_kills=(
            params["follower_kills"] if params["replicate"] else 0
        ),
    )

    def run_once(schedule: Sequence[ClusterFault]) -> "ClusterSession":
        session = ClusterSession.build(
            n_shards=params["n_shards"],
            keyspace=params["keyspace"],
            ops=params["ops"],
            seed=seed,
            backend=backend,
            mix=params["mix"],
            chaos=list(schedule),
            replicate=params["replicate"],
            ship_lag=params["ship_lag"],
            reshard_at=params["reshard_at"],
        )
        session.run()
        return session

    session = run_once(chaos)
    shrunk = None
    evals = 0
    if session.violations and chaos:
        from ..faults.shrink import shrink_schedule

        def still_fails(schedule: Sequence[ClusterFault]) -> bool:
            return bool(run_once(schedule).violations)

        shrunk, evals = shrink_schedule(
            list(chaos), still_fails, budget=params["shrink_budget"]
        )
    counts: Dict[str, int] = {}
    for resp in session.responses.values():
        counts[resp.status] = counts.get(resp.status, 0) + 1
    resharded = bool(
        session._mig is not None and session._mig["state"] == "done"
    )
    return ClusterScenario(
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


def run_cluster_campaign(
    backends: Sequence[str] = ("lightwsp-lrpo", "cwsp-eager"),
    seeds: Sequence[int] = (0, 1, 2),
    n_shards: int = 3,
    keyspace: int = 16,
    ops: int = 36,
    mix: str = "crud",
    jobs: int = 1,
    trace_path: Optional[str] = None,
    kills: int = 2,
    transport: int = 5,
    partitions: int = 1,
    msg_faults: int = 2,
    horizon: int = 24,
    shrink_budget: int = 40,
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
    params = {
        "n_shards": n_shards, "keyspace": keyspace, "ops": ops, "mix": mix,
        "kills": kills, "transport": transport, "partitions": partitions,
        "msg_faults": msg_faults, "horizon": horizon,
        "shrink_budget": shrink_budget, "replicate": replicate,
        "ship_lag": ship_lag, "reshard_at": reshard_at,
        "follower_kills": follower_kills,
    }
    units = [(b, s) for b in backends for s in seeds]
    say("cluster campaign: %d scenarios (%d backends x %d seeds), jobs=%d"
        % (len(units), len(backends), len(seeds), jobs))
    scenarios = fan_out(
        lambda unit: _scenario_unit(unit, params),
        units, jobs=jobs, label="cluster-chaos",
    )
    trace = JsonlTrace(trace_path) if trace_path else NullTrace()
    extras: Dict = {}
    if replicate:
        extras["replicate"] = True
        extras["ship_lag"] = ship_lag
        extras["follower_kills"] = follower_kills
    if reshard_at >= 0:
        extras["reshard_at"] = reshard_at
    trace.emit(
        "cluster_campaign_start",
        backends=list(backends), seeds=list(seeds), n_shards=n_shards,
        keyspace=keyspace, ops=ops, mix=mix, kills=kills,
        transport=transport, partitions=partitions, msg_faults=msg_faults,
        horizon=horizon,
        sharding="unit order is (backend-major, seed-minor); results are "
                 "merged by unit index, so jobs never changes this trace",
        **extras,
    )
    for scenario in scenarios:
        record = {
            "backend": scenario.backend, "seed": scenario.seed,
            "chaos": chaos_to_json(scenario.chaos),
            "violations": scenario.violations,
            "digest": scenario.digest,
            "epochs": scenario.epochs,
            "responses": scenario.responses,
            "unavailable_shards": scenario.unavailable_shards,
        }
        if scenario.promotions:
            record["promotions"] = scenario.promotions
        if scenario.resharded:
            record["resharded"] = True
        if scenario.shrunk is not None:
            record["shrunk"] = chaos_to_json(scenario.shrunk)
            record["shrink_evals"] = scenario.shrink_evals
        trace.emit("cluster_scenario", **record)
        say("  %-14s seed=%-3d %s (%d epochs, %s)"
            % (scenario.backend, scenario.seed,
               "ok" if scenario.ok else "VIOLATION",
               scenario.epochs,
               ", ".join("%s=%d" % kv
                         for kv in sorted(scenario.responses.items()))))
    failures = [s for s in scenarios if not s.ok]
    trace.emit(
        "cluster_campaign_end",
        scenarios=len(scenarios), failures=len(failures),
    )
    trace.close()
    return ClusterCampaignReport(
        scenarios=scenarios, trace_path=trace_path
    )


def replay_cluster_trace(
    records: List[Dict],
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[str]:
    """Re-run every ``cluster_scenario`` in a campaign trace and verify
    its outcome (digest + violations) reproduces exactly.  Returns the
    mismatches (empty = faithful replay).  Scenarios are independent,
    so ``jobs > 1`` fans them out over worker processes; the mismatches
    come back in recorded order at any ``jobs``."""
    from .coordinator import ClusterSession
    from ..obs.schema import ensure_supported_version

    say = progress or (lambda msg: None)
    ensure_supported_version(records, "cluster trace")
    start = next(
        (r for r in records if r.get("type") == "cluster_campaign_start"),
        None,
    )
    if start is None:
        return ["trace has no cluster_campaign_start record"]
    scenarios = [r for r in records if r.get("type") == "cluster_scenario"]
    if not scenarios:
        return ["trace has no cluster_scenario records"]

    def replay_one(record: Dict) -> List[str]:
        session = ClusterSession.build(
            n_shards=start["n_shards"],
            keyspace=start["keyspace"],
            ops=start["ops"],
            seed=record["seed"],
            backend=record["backend"],
            mix=start["mix"],
            chaos=chaos_from_json(record["chaos"]),
            replicate=start.get("replicate", False),
            ship_lag=start.get("ship_lag", 1),
            reshard_at=start.get("reshard_at", -1),
        )
        session.run()
        label = "%s seed=%d" % (record["backend"], record["seed"])
        found: List[str] = []
        if session.digest() != record["digest"]:
            found.append(
                "%s: digest %s, trace recorded %s"
                % (label, session.digest(), record["digest"])
            )
        if list(session.violations) != list(record["violations"]):
            found.append(
                "%s: violations %r, trace recorded %r"
                % (label, session.violations, record["violations"])
            )
        return found

    outcomes = fan_out(
        replay_one, scenarios, jobs=jobs, label="cluster-replay"
    )
    mismatches: List[str] = []
    for record, found in zip(scenarios, outcomes):
        say("  replayed %s seed=%d: %s" % (
            record["backend"], record["seed"],
            "MISMATCH" if found else "ok",
        ))
        mismatches.extend(found)
    return mismatches
