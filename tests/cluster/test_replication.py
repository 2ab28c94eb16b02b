"""Per-range replication: epoch-ordered log shipping with a bounded lag
window, promote-on-DEAD failover behind a bumped fencing token, and the
zero-acked-write-loss contrast with un-replicated degradation."""

import pytest

from repro.cluster import (
    ClusterFault,
    ClusterSession,
    execute_shard_epoch,
)
from repro.compiler import compile_program
from repro.config import DEFAULT_CONFIG
from repro.store import StoreLayout, StoreModel, build_store_program
from repro.store.layout import OP_PUT
from repro.trace import JsonlTrace, read_trace

KILL = ClusterFault(kind="kill", epoch=2, shard=1, down_for=8)


@pytest.fixture(scope="module")
def compiled_store():
    sizing = StoreLayout.sized(16, value_words=2, max_batch=8)
    prog, layout = build_store_program(sizing)
    return compile_program(prog, DEFAULT_CONFIG.compiler), layout


def _build(**kwargs):
    kwargs.setdefault("n_shards", 3)
    kwargs.setdefault("keyspace", 16)
    kwargs.setdefault("ops", 28)
    kwargs.setdefault("seed", 0)
    return ClusterSession.build(**kwargs)


class TestExecutorFence:
    def test_stale_fencing_token_is_refused_before_anything_applies(
        self, compiled_store
    ):
        compiled, layout = compiled_store
        image = {1000: 7}
        result = execute_shard_epoch(
            0, compiled, layout, image, 0, [(OP_PUT, 1, 11)], 0,
            StoreModel(layout), "lightwsp-lrpo",
            batch_fence=1, range_fence=2,
        )
        assert result.outcome == "fenced_rejected"
        assert result.image == {}  # an empty write delta
        assert image == {1000: 7}  # the caller's image is untouched
        assert result.acked_local == []

    def test_fence_beats_the_sequence_check(self, compiled_store):
        # a batch that is both stale-fenced and out of sequence is split
        # brain first: fenced_rejected, not replay_rejected
        compiled, layout = compiled_store
        result = execute_shard_epoch(
            0, compiled, layout, {}, 5, [(OP_PUT, 1, 11)], 0,
            StoreModel(layout), "lightwsp-lrpo",
            batch_fence=1, range_fence=2,
        )
        assert result.outcome == "fenced_rejected"

    def test_matching_token_admits(self, compiled_store):
        compiled, layout = compiled_store
        result = execute_shard_epoch(
            0, compiled, layout, {}, 0, [(OP_PUT, 1, 11)], 0,
            StoreModel(layout), "lightwsp-lrpo",
            batch_fence=3, range_fence=3,
        )
        assert result.outcome == "ok"
        assert result.acked_local == [0]


class TestLogShipping:
    def test_fault_free_run_converges_and_ships_everything(self):
        session = _build(replicate=True)
        session.run()
        assert session.violations == []
        assert session.counters["shipped"] > 0
        assert session.counters["promotions"] == 0
        for rs in session.ranges:
            primary = session.shards[rs.range_id]
            assert rs.follower is not None
            assert rs.follower.served == primary.served
            assert rs.follower.image_digest() == primary.image_digest()
            assert rs.lag == 0

    def test_lag_stays_within_the_window_every_epoch(self):
        session = _build(replicate=True, ship_lag=2)
        while session.pending or session.inflight:
            session.step_epoch()
            for rs in session.ranges:
                if session._follower_dark.get(rs.range_id, 0) <= \
                        session.epoch:
                    assert rs.lag <= 2
        session.finalize()
        assert session.violations == []

    def test_follower_kill_pauses_shipping_then_catches_up(self):
        chaos = [ClusterFault(kind="kill", epoch=3, shard=0,
                              down_for=4, replica=1)]
        session = _build(replicate=True, chaos=chaos)
        session.run()
        assert session.violations == []
        assert session.counters["follower_kills"] == 1
        rs = session.ranges[0]
        assert rs.follower is not None
        assert rs.follower.served == session.shards[0].served
        assert rs.lag == 0


class TestFailover:
    def test_dead_primary_promotes_instead_of_degrading(self, tmp_path):
        path = str(tmp_path / "failover.jsonl")
        trace = JsonlTrace(path)
        session = _build(replicate=True, chaos=[KILL], trace=trace)
        session.run()
        trace.close()
        assert session.violations == []
        assert session.counters["promotions"] == 1
        statuses = {r.status for r in session.responses.values()}
        assert "unavailable" not in statuses
        rs = session.ranges[1]
        assert rs.fence == 2
        assert rs.retired is not None
        assert rs.retired_fence == 1
        # the promotion is on the trace
        promotes = [r for r in read_trace(path) if r["type"] == "promote"]
        assert len(promotes) == 1
        assert promotes[0]["range"] == 1
        assert promotes[0]["fence"] == 2

    def test_same_kill_unreplicated_goes_unavailable(self):
        replicated = _build(replicate=True, chaos=[KILL])
        replicated.run()
        degraded = _build(chaos=[KILL])
        degraded.run()
        assert degraded.violations == []
        rep = {s: 0 for s in ("ok", "unavailable")}
        for r in replicated.responses.values():
            rep[r.status] = rep.get(r.status, 0) + 1
        deg = {}
        for r in degraded.responses.values():
            deg[r.status] = deg.get(r.status, 0) + 1
        assert deg.get("unavailable", 0) > 0
        assert rep.get("unavailable", 0) == 0
        assert rep["ok"] > deg.get("ok", 0)

    def test_promoted_range_is_rereplicated(self):
        session = _build(replicate=True, chaos=[KILL])
        session.run()
        rs = session.ranges[1]
        # a fresh follower was cloned at promotion and converged again
        assert rs.follower is not None
        assert rs.follower is not rs.retired
        assert rs.follower.served == session.shards[1].served
        assert rs.follower.image_digest() == \
            session.shards[1].image_digest()

    def test_double_failover_bumps_the_token_twice(self):
        chaos = [
            ClusterFault(kind="kill", epoch=2, shard=1, down_for=8),
            ClusterFault(kind="kill", epoch=14, shard=1, down_for=8),
        ]
        session = _build(replicate=True, chaos=chaos, ops=40)
        session.run()
        assert session.violations == []
        if session.counters["promotions"] >= 2:
            assert session.ranges[1].fence == 3


class TestSessionReads:
    def test_read_your_writes_is_actually_exercised(self):
        session = _build(replicate=True, mix="ycsb-b", ops=40)
        session.run()
        assert session.violations == []
        assert session.counters["ryw_checked"] > 0


class TestValidation:
    def test_replica_field_is_gated(self):
        with pytest.raises(ValueError):
            ClusterFault(kind="drop_req", epoch=1, shard=0, replica=1)
        with pytest.raises(ValueError):
            ClusterFault(kind="kill", epoch=1, shard=0, down_for=2,
                         replica=2)

    def test_session_rejects_bad_replication_config(self):
        with pytest.raises(ValueError):
            _build(replicate=True, ship_lag=-1)
