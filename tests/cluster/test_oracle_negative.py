"""Negative oracle tests: break the replication machinery on purpose
and prove :func:`check_cluster` flags each break.  A safety oracle that
cannot fail is not checking anything."""

import dataclasses

import pytest

import repro.cluster.coordinator as coordinator
from repro.cluster import ClusterFault, ClusterSession, check_cluster
from repro.store.layout import OP_PUT

KILL = ClusterFault(kind="kill", epoch=2, shard=1, down_for=8)


def _promoted_session():
    session = ClusterSession.build(
        n_shards=3, keyspace=16, ops=28, seed=0, chaos=[KILL],
        replicate=True,
    )
    session.run()
    assert session.violations == []
    assert session.counters["promotions"] == 1
    return session


class TestBrokenFencing:
    def test_working_fence_refuses_the_demoted_primary(self):
        session = _promoted_session()
        before = session.counters["fenced_rejected"]
        applied = session.inject_stale_primary_write(
            1, (OP_PUT, 2, 99), honor_fence=True
        )
        assert applied is False
        assert session.counters["fenced_rejected"] == before + 1
        # the refused write changed nothing the oracle can see
        assert check_cluster(session) == []

    def test_broken_fence_is_flagged_as_split_brain(self):
        session = _promoted_session()
        applied = session.inject_stale_primary_write(
            1, (OP_PUT, 2, 99), honor_fence=False
        )
        assert applied is True
        violations = check_cluster(session)
        assert violations
        assert any("fencing token" in v for v in violations), violations

    def test_hook_needs_a_retirement(self):
        session = ClusterSession.build(
            n_shards=2, keyspace=12, ops=16, seed=0, replicate=True,
        )
        session.run()
        with pytest.raises(ValueError, match="no retired primary"):
            session.inject_stale_primary_write(0, (OP_PUT, 2, 9))


class TestBrokenShipping:
    def test_dropped_batch_is_flagged_as_divergence(self):
        # step manually with a wide lag window so a settled batch is
        # still unshipped when we silently lose it
        session = ClusterSession.build(
            n_shards=3, keyspace=16, ops=28, seed=0, chaos=[],
            replicate=True, ship_lag=50,
        )
        while session.pending or session.inflight:
            session.step_epoch()
        victim = next(
            (rs for rs in session.ranges if rs.lag > 0), None
        )
        assert victim is not None, "no backlog to drop"
        dropped = session.drop_shipped_batch(victim.range_id)
        assert dropped > 0
        session.finalize()
        assert any(
            "replica divergence" in v and
            ("range %d" % victim.range_id) in v
            for v in session.violations
        ), session.violations[:4]

    def test_hook_refuses_when_nothing_is_in_flight(self):
        session = ClusterSession.build(
            n_shards=2, keyspace=12, ops=16, seed=0, replicate=True,
        )
        session.run()  # finalize drains the backlog
        with pytest.raises(ValueError, match="no unshipped batch"):
            session.drop_shipped_batch(0)


@pytest.fixture(scope="module")
def corrupted_violations():
    """A replicated, resharding session whose executor lies: every
    batch's first durable result word is off by one."""
    honest = coordinator.execute_shard_epoch

    def lying(*args, **kwargs):
        result = honest(*args, **kwargs)
        if not result.results:
            return result  # a refused batch has no results to corrupt
        return dataclasses.replace(
            result, results=[result.results[0] + 1] + result.results[1:]
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coordinator, "execute_shard_epoch", lying)
        session = ClusterSession.build(
            n_shards=3, keyspace=16, ops=28, seed=0, jobs=1,
            replicate=True, reshard_at=2,
        )
        session.run()
    return session.violations


class TestCorruptedResults:
    @pytest.mark.parametrize(
        "role", ["serve", "ship", "migrate_in", "migrate_out"]
    )
    def test_commit_checks_the_model_for_every_role(
        self, corrupted_violations, role
    ):
        assert any(
            (" %s batch " % role) in v and "diverge from model" in v
            for v in corrupted_violations
        ), corrupted_violations[:4]


class TestOracleStillPassesHonestRuns:
    def test_check_cluster_is_idempotent_on_a_clean_run(self):
        session = _promoted_session()
        assert check_cluster(session) == []
        assert check_cluster(session) == []
