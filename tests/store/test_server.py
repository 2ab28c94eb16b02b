"""The sharded serving harness: determinism, latency, crash recovery."""

import pytest

from repro.store import run_serve, shard_of
from repro.store.server import StoreServer


def small_serve(**kwargs):
    defaults = dict(
        workload="ycsb-a", ops=120, shards=2, seed=7,
        keyspace=24, value_words=2, batch=24,
    )
    defaults.update(kwargs)
    return run_serve(**defaults)


class TestServing:
    def test_no_crash_run_is_clean(self):
        report = small_serve()
        assert report.ok, report.violations
        assert report.total_ops == 120 + 24  # mixed + load phase
        assert report.throughput_mops > 0
        assert report.sim_ns > 0
        for s in report.shards:
            assert s.crashes == 0
            assert s.acked == s.ops
            assert s.image_digest

    def test_deterministic_digest(self):
        a = small_serve()
        b = small_serve()
        c = small_serve(seed=8)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_latency_summary_shape(self):
        report = small_serve()
        lat = report.latency
        assert lat["count"] == report.total_ops
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert len(report.latencies_ns) == report.total_ops

    def test_sharding_partitions_every_key(self):
        for shards in (1, 2, 3):
            seen = {shard_of(k, shards) for k in range(1, 200)}
            assert seen == set(range(shards))

    def test_single_shard_works(self):
        report = small_serve(shards=1)
        assert report.ok
        assert len(report.shards) == 1

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            small_serve(shards=0)
        with pytest.raises(ValueError):
            small_serve(workload="nope")


class TestCrashRecovery:
    def test_seeded_crash_recovers_with_oracle_clean(self):
        lines = []
        report = small_serve(
            crash_epoch=1, crash_seed=5, progress=lines.append
        )
        assert report.ok, report.violations
        assert sum(s.crashes for s in report.shards) >= 1
        assert any("oracle ok" in line for line in lines)

    def test_crash_is_transparent_to_final_state(self):
        clean = small_serve()
        for crash_seed in (1, 2, 3):
            crashed = small_serve(crash_epoch=1, crash_seed=crash_seed)
            assert crashed.ok, crashed.violations
            assert crashed.digest() == clean.digest(), crash_seed

    def test_torn_crash_recovers(self):
        clean = small_serve()
        report = small_serve(crash_epoch=2, crash_seed=4, crash_torn=True)
        assert report.ok, report.violations
        assert report.digest() == clean.digest()

    def test_fixed_crash_step(self):
        report = small_serve(crash_epoch=0, crash_step=37)
        assert report.ok, report.violations
        assert all(s.crashes == 1 for s in report.shards)


class TestReplayFence:
    def test_duplicated_epoch_delivery_is_refused(self):
        from repro.store import ReplayedEpochError, StoreLayout
        from repro.store.layout import OP_PUT

        layout = StoreLayout.sized(16, value_words=2, max_batch=8)
        server = StoreServer(1, layout, seed=0)
        shard = server.shards[0]
        batch = [(i, (OP_PUT, i + 1, 7)) for i in range(4)]
        server._serve_epoch(shard, batch)
        assert shard.served == 4
        # the message layer re-delivers the very same epoch: the shard's
        # at-most-once fence must refuse it instead of double-applying
        with pytest.raises(ReplayedEpochError, match="already applied"):
            server._serve_epoch(shard, batch)
        assert shard.served == 4

    def test_skipping_ahead_is_refused(self):
        from repro.store import ReplayedEpochError, StoreLayout
        from repro.store.layout import OP_PUT

        layout = StoreLayout.sized(16, value_words=2, max_batch=8)
        server = StoreServer(1, layout, seed=0)
        batch = [(8 + i, (OP_PUT, i + 1, 7)) for i in range(2)]
        with pytest.raises(ReplayedEpochError, match="skips ahead"):
            server._serve_epoch(server.shards[0], batch)


class TestServerInternals:
    def test_submit_assigns_prefix_ids_per_shard(self):
        from repro.store import StoreLayout, generate_workload

        layout = StoreLayout.sized(16, value_words=2, max_batch=8)
        server = StoreServer(2, layout, seed=0)
        requests = generate_workload("ycsb-a", 40, 16, seed=0)
        server.submit(requests)
        for shard in server.shards:
            ids = [i for i, _ in shard.requests]
            assert ids == list(range(len(ids)))
        total = sum(len(s.requests) for s in server.shards)
        assert total == len(requests)
