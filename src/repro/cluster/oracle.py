"""The cluster-level oracle: zero acked-write loss and 2PC atomicity,
extended with the replication/failover/resharding invariants.

Checked at quiesce, against two independent sources of truth:

* the **applied log** — every store request a shard actually executed,
  in application order, recorded as batches merged (the ground truth a
  real cluster does not have; the simulation does, which is the point);
* the **client's view** — the typed responses per idempotency token.

The theorem, cluster edition:

1. **Shard honesty.**  Replaying each shard's applied log through a
   fresh :class:`~repro.store.StoreModel` reproduces exactly the visible
   state of its final durable image (no dirty, torn, or lost state at
   any shard — whatever kills, partitions, and message faults ran).
2. **Zero acked-write loss.**  Every write the client saw succeed
   (status ``ok``) was applied; since the final value of every key is by
   (1) the last *applied* write, an acknowledged write can only be
   superseded by another applied — i.e. legitimately issued — write,
   never silently dropped.  Failover preserves this: a promoted
   follower serves from the full shipped log, so the dead primary's
   acknowledged writes survive the promotion.
3. **No phantom writes.**  A write that failed *determinately* (the
   coordinator proved no dispatch could have reached a shard) appears
   nowhere in the applied log; only ``indeterminate`` failures may have
   landed.
4. **Transaction atomicity.**  A committed transaction's every real-key
   PUT is applied; an aborted transaction touched no real key at all
   (its prepares live under shadow keys); and no shadow key is visible
   anywhere at quiesce — so no client-visible half-commit exists after
   any shard-kill schedule, including kills during a live migration.
5. **Completion.**  Every token of the workload carries exactly one
   response (idempotent retries never double-complete, and no op is
   lost before admission) and nothing is left in flight.
6. **No double-serving.**  Per shard slot, the applied log's positions
   are exactly ``0..served-1``, each applied once, in order — a
   duplicated or skipped epoch (the failure live resharding and
   promotion must not introduce) breaks the sequence.
7. **Key placement.**  Every key visible at quiesce lives on the shard
   the final hash ring assigns it — after a live reshard the moved arc
   exists only at the joining shard (the sources dropped it at
   handoff).
8. **Fence integrity** (replicated runs).  Every applied op carries the
   fencing token its range held at that epoch; an op under a stale
   token is a demoted primary speaking after its promotion — split
   brain — and is flagged.
9. **Replica convergence** (replicated runs).  At quiesce, after the
   ship backlog drains, each range's follower has applied exactly the
   primary's log: same served count, same durable image.  A shipping
   layer that silently lost a batch cannot pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from ..store.layout import OP_DELETE, OP_PUT
from ..store.oracle import StoreModel, visible_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import ClusterSession

__all__ = ["check_cluster"]


def check_cluster(session: "ClusterSession") -> List[str]:
    """Run the full cluster oracle; returns violation descriptions
    (empty = the theorem holds)."""
    violations: List[str] = []
    keyspace = session.keyspace
    layout = session.layout

    # (1) shard honesty: independent replay of the applied log,
    # (7) key placement under the final ring
    per_shard: Dict[int, List] = {s.shard: [] for s in session.shards}
    for entry in session.applied_log:
        if entry.shard in per_shard:
            per_shard[entry.shard].append(entry.request)
    for state in session.shards:
        replay = StoreModel(layout)
        replay.apply_all(per_shard[state.shard])
        visible, problems = visible_state(state.image, layout)
        violations.extend(
            "shard %d final: %s" % (state.shard, p) for p in problems
        )
        if visible != replay.kv:
            diffs = sorted(
                k for k in set(visible) | set(replay.kv)
                if visible.get(k) != replay.kv.get(k)
            )
            violations.append(
                "shard %d: visible state diverges from its applied log "
                "at keys %s" % (state.shard, diffs[:6])
            )
        # (4, part) no shadow key survives quiesce
        shadows = sorted(k for k in visible if k > keyspace)
        if shadows:
            violations.append(
                "shard %d: shadow keys %s visible at quiesce "
                "(2PC half-commit left behind)" % (state.shard, shadows[:6])
            )
        misplaced = sorted(
            k for k in visible
            if k <= keyspace and session.owner(k) != state.shard
        )
        if misplaced:
            violations.append(
                "shard %d: keys %s visible but owned by another shard "
                "under the final ring (migration left the arc behind)"
                % (state.shard, misplaced[:6])
            )

    # (6) no double-serving: per-slot positions are 0..served-1 in order
    next_gid: Dict[int, int] = {}
    for entry in session.applied_log:
        want = next_gid.get(entry.shard, 0)
        if entry.gid != want:
            violations.append(
                "shard %d: application order broke at position %d "
                "(expected %d) — an epoch was double-served or skipped"
                % (entry.shard, entry.gid, want)
            )
        next_gid[entry.shard] = max(want, entry.gid) + 1

    applied_tokens: Set[int] = {
        e.token for e in session.applied_log if e.token >= 0
    }

    # (5) completion: one response per token, nothing in flight
    if session.inflight:
        violations.append(
            "tokens still in flight at quiesce: %s"
            % sorted(session.inflight)[:6]
        )
    tokens = applied_tokens | set(session.responses) | set(
        session.ops_by_token
    )
    unanswered = sorted(tokens - set(session.responses))
    if unanswered:
        violations.append(
            "tokens never completed: %s" % unanswered[:6]
        )

    flights_by_token = {
        t: session.responses[t] for t in session.responses
    }

    # (2) zero acked-write loss + (3) no phantom writes
    for token, resp in sorted(flights_by_token.items()):
        if resp.status == "ok":
            continue
        # a determinately-failed write must not have landed anywhere
        if not resp.indeterminate and resp.status in (
            "unavailable", "deadline_exceeded"
        ):
            wrote = [
                (e.shard, e.gid) for e in session.applied_log
                if e.token == token and e.request[0] in (OP_PUT, OP_DELETE)
                and e.request[1] <= keyspace
            ]
            if wrote:
                violations.append(
                    "token %d failed %s (determinate) but its write was "
                    "applied at %s" % (token, resp.status, wrote[:3])
                )

    # (4) transaction atomicity against the decision log
    decisions = {token: d for _, token, d in session.decision_log}
    txn_tokens = set(decisions)
    for token in sorted(txn_tokens):
        decision = decisions[token]
        resp = session.responses.get(token)
        real_puts = [
            e.request for e in session.applied_log
            if e.token == token and e.request[0] == OP_PUT
            and e.request[1] <= keyspace
        ]
        if decision == "commit":
            if resp is None or resp.status != "ok":
                violations.append(
                    "txn %d: committed but client saw %s"
                    % (token, resp.status if resp else "nothing")
                )
            # every participant's real-key PUT drained at least once
            flight_keys = {req[1] for req in real_puts}
            want = _txn_keys(session, token)
            missing = sorted(want - flight_keys)
            if missing:
                violations.append(
                    "txn %d: committed but keys %s never received their "
                    "PUT (half-commit)" % (token, missing)
                )
        else:
            if real_puts:
                violations.append(
                    "txn %d: aborted but applied real-key PUTs %s"
                    % (token, sorted({r[1] for r in real_puts}))
                )
            if resp is not None and resp.status == "ok":
                violations.append(
                    "txn %d: aborted but client saw ok" % token
                )

    # (8) fence integrity: every applied op under its range's live token
    promos: Dict[int, List] = {}
    for pe, pr, pf in session.promotion_log:
        promos.setdefault(pr, []).append((pe, pf))
    if session.replicate:
        for entry in session.applied_log:
            want_fence = 1
            for pe, pf in promos.get(entry.shard, []):
                if pe <= entry.epoch:
                    want_fence = pf
            if entry.fence != want_fence:
                violations.append(
                    "shard %d: op at position %d applied under fencing "
                    "token %d but the range's token at epoch %d was %d "
                    "(a demoted primary's write entered the log)"
                    % (entry.shard, entry.gid, entry.fence,
                       entry.epoch, want_fence)
                )

    # (9) replica convergence at quiesce
    if session.replicate:
        for rs in session.ranges:
            primary = session.shards[rs.range_id]
            follower = rs.follower
            if follower is None:
                violations.append(
                    "range %d: no follower at quiesce" % rs.range_id
                )
                continue
            if follower.served != primary.served or \
                    follower.image_digest() != primary.image_digest():
                violations.append(
                    "range %d: replica divergence at quiesce (primary "
                    "served %d image %s, follower served %d image %s) "
                    "— a shipped batch was lost or reordered"
                    % (rs.range_id, primary.served,
                       primary.image_digest(), follower.served,
                       follower.image_digest())
                )
    return violations


def _txn_keys(session: "ClusterSession", token: int) -> Set[int]:
    """The transaction's key set — the workload op is the authority."""
    op = session.ops_by_token.get(token)
    if op is not None:
        return set(op.keys)
    # fall back to the prepare-phase shadow writes
    return {
        e.request[1] - session.keyspace
        for e in session.applied_log
        if e.token == token and e.request[0] == OP_PUT
        and e.request[1] > session.keyspace
    }
