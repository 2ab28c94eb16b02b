"""The cluster coordinator: clean serving, determinism, supervised
crash-recovery, graceful degradation, fencing, and 2PC atomicity."""

import pytest

from repro.cluster import (
    OK,
    UNAVAILABLE,
    ClusterFault,
    ClusterSession,
    HashRing,
    check_cluster,
)
from repro.cluster.workload import LogicalOp
from repro.store.layout import OP_PUT


def session(**kwargs):
    defaults = dict(
        n_shards=3, keyspace=16, ops=28, seed=2, txn_every=6,
    )
    defaults.update(kwargs)
    sess = ClusterSession.build(**defaults)
    sess.run()
    return sess


def busiest_shard(n_shards=3, keyspace=16):
    owned = HashRing(n_shards, vnodes=16).ownership(keyspace)
    return max(owned, key=lambda s: len(owned[s]))


class TestCleanServing:
    def test_every_op_answers_ok(self):
        sess = session()
        assert not sess.violations
        assert not sess.pending and not sess.inflight
        statuses = {r.status for r in sess.responses.values()}
        assert statuses == {OK}

    def test_deterministic_digest(self):
        assert session().digest() == session().digest()
        assert session().digest() != session(seed=9).digest()

    def test_shards_share_the_load(self):
        sess = session(ops=40)
        assert sum(s.served for s in sess.shards) > 0
        assert sum(1 for s in sess.shards if s.served) == 3

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            ClusterSession.build(n_shards=0)
        with pytest.raises(KeyError):
            ClusterSession.build(backend="nope")
        with pytest.raises(ValueError):
            # crash-lossy by design: the cluster supervisor refuses it
            ClusterSession.build(backend="psp")


class TestCrashRecovery:
    def test_killed_shard_recovers_and_rejoins(self):
        victim = busiest_shard()
        sess = session(chaos=[
            ClusterFault(kind="kill", epoch=1, shard=victim, down_for=2),
        ])
        assert sess.counters["kills"] == 1
        assert sess.shards[victim].crashes == 1
        assert not sess.violations
        # darkness was short: every op still completed OK on retry
        assert {r.status for r in sess.responses.values()} == {OK}

    def test_acked_writes_survive_any_kill_epoch(self):
        victim = busiest_shard()
        for epoch in (0, 1, 2, 3):
            sess = session(chaos=[
                ClusterFault(kind="kill", epoch=epoch, shard=victim,
                             down_for=3),
            ])
            assert not sess.violations, (epoch, sess.violations)


class TestGracefulDegradation:
    def test_dead_range_fails_fast_while_others_serve(self):
        victim = busiest_shard()
        # down_for far past shard_deadline (4): the supervisor declares
        # the shard dead and its range degrades to typed unavailable
        sess = session(ops=40, chaos=[
            ClusterFault(kind="kill", epoch=1, shard=victim, down_for=14),
        ])
        assert not sess.violations
        unavailable = [
            r for r in sess.responses.values() if r.status == UNAVAILABLE
        ]
        assert unavailable, "a dead range must produce typed errors"
        assert all(r.shard == victim for r in unavailable)
        # the surviving ranges kept answering throughout
        ok = [r for r in sess.responses.values() if r.status == OK]
        assert len(ok) > len(unavailable)


class TestReplayFencing:
    def test_duplicated_epochs_bounce_off_the_fence(self):
        # duplicate every shard's delivery early on: each dup must be
        # refused by the sequence fence, never double-applied
        chaos = [
            ClusterFault(kind="dup_req", epoch=e, shard=s)
            for e in (0, 1) for s in range(3)
        ]
        sess = session(chaos=chaos)
        assert sess.counters["replays_rejected"] >= 1
        assert not sess.violations
        assert {r.status for r in sess.responses.values()} == {OK}


class TestTransactions:
    def test_clean_txns_commit_atomically(self):
        sess = session(ops=48, txn_every=3)
        txns = [op for op in sess.ops_by_token.values()
                if op.kind == "txn"]
        assert txns, "the workload must contain transactions"
        assert sess.decision_log, "every txn logs a decision"
        assert all(d == "commit" for _, _, d in sess.decision_log)
        assert not sess.violations

    def test_txns_stay_atomic_through_a_kill(self):
        victim = busiest_shard()
        sess = session(ops=48, txn_every=3, chaos=[
            ClusterFault(kind="kill", epoch=2, shard=victim, down_for=3),
            ClusterFault(kind="drop_ack", epoch=4, shard=victim),
        ])
        # the oracle checks decision-vs-application atomicity: a commit
        # applied every key, an abort applied none, no shadow survived
        assert not sess.violations


class TestQuiesce:
    def test_a_run_still_making_progress_quiesces(self):
        # the hottest zipfian key advances one op per epoch: this run
        # takes 421 epochs, past any fixed cap of 400, yet never stalls
        sess = ClusterSession.build(
            n_shards=4, keyspace=16, ops=1500, seed=0, mix="crud",
        )
        sess.run()
        assert not sess.violations, sess.violations[:4]
        assert sess.epoch > 400
        assert {r.status for r in sess.responses.values()} == {OK}

    @staticmethod
    def _txn_session(chaos_for):
        # one cross-shard txn; ``chaos_for(shard)`` builds the chaos
        # aimed at the shard owning its second key
        ring = HashRing(3, vnodes=16)
        k2 = next(k for k in range(2, 16)
                  if ring.shard_for(k) != ring.shard_for(1))
        return ClusterSession(
            3, 16, [LogicalOp(token=0, kind="txn", keys=(1, k2),
                              args=(5, 6))],
            chaos=chaos_for(ring.shard_for(k2)),
        )

    @pytest.mark.parametrize("outage", [
        lambda v: [ClusterFault(kind="kill", epoch=1, shard=v,
                                down_for=40)],
        lambda v: [ClusterFault(kind="partition", epoch=1, shard=v,
                                until=41)],
    ], ids=["kill", "partition"])
    def test_a_long_scheduled_outage_is_waited_out(self, outage):
        # the shard holding a committed 2PC sub-op is unreachable for 40
        # epochs, longer than the stall window: the run waits for the
        # scheduled rejoin, then the decision drains
        sess = self._txn_session(outage)
        sess.run()
        assert not sess.violations, sess.violations[:4]
        assert sess.decision_log == [(0, 0, "commit")]
        assert sess.epoch > 41 > sess.policy.stall_window
        assert sess.responses[0].status == OK

    def test_a_genuine_stall_is_a_violation_within_the_window(
        self, monkeypatch
    ):
        # shards that apply every batch and never ack, with nothing
        # scheduled: the txn aborts at its deadline, the one progress
        # the run makes, and the abort's sub-ops retry forever
        import repro.cluster.coordinator as coordinator

        honest = coordinator.execute_shard_epoch

        def mute(*args, **kwargs):
            result = honest(*args, **kwargs)
            result.acked_local = []
            return result

        monkeypatch.setattr(coordinator, "execute_shard_epoch", mute)
        sess = self._txn_session(lambda shard: [])
        sess.run()
        assert [d for _, _, d in sess.decision_log] == ["abort"]
        assert sess._last_progress == sess.decision_log[0][0] > 0
        assert any("made no progress" in v for v in sess.violations), \
            sess.violations[:4]
        window = sess.policy.stall_window
        assert sess.epoch == sess._last_progress + window + 1

    def test_an_explicit_cap_still_ends_the_run(self):
        sess = ClusterSession.build(
            n_shards=3, keyspace=16, ops=28, seed=2, max_epochs=3,
        )
        sess.run()
        assert sess.epoch == 3
        assert any("did not quiesce within 3 epochs" in v
                   for v in sess.violations), sess.violations[:4]


class TestOracle:
    def test_catches_a_lost_acked_write(self):
        sess = session()
        assert not check_cluster(sess)
        # simulate acked-write loss: erase one applied PUT from the
        # ground-truth log; the replayed model now disagrees with the
        # durable image and the oracle must notice
        overwritten = set()
        doctored = None
        for i in range(len(sess.applied_log) - 1, -1, -1):
            op, key, _ = sess.applied_log[i][3]
            if op == OP_PUT and key not in overwritten:
                doctored = i
                break
            overwritten.add(key)
        assert doctored is not None
        del sess.applied_log[doctored]
        assert check_cluster(sess)
