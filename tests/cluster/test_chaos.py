"""Cluster chaos: the fault vocabulary, schedule generation, --jobs
trace parity, the campaign, and JSONL replay."""

import pytest

from repro.cluster import (
    ClusterFault,
    ClusterSession,
    chaos_from_json,
    chaos_to_json,
    generate_cluster_chaos,
    replay_cluster_trace,
    run_cluster_campaign,
)
from repro.trace import JsonlTrace, read_trace


class TestFaultVocabulary:
    def test_json_round_trip_every_kind(self):
        schedule = [
            ClusterFault(kind="kill", epoch=2, shard=0, down_for=3),
            ClusterFault(kind="drop_req", epoch=1, shard=1),
            ClusterFault(kind="dup_req", epoch=0, shard=2),
            ClusterFault(kind="drop_ack", epoch=4, shard=0),
            ClusterFault(kind="delay_ack", epoch=3, shard=1, delay=2),
            ClusterFault(kind="dup_ack", epoch=5, shard=2),
            ClusterFault(kind="partition", epoch=2, shard=1, until=5),
            ClusterFault(kind="msg", epoch=1, shard=0, op="drop", mc=2),
        ]
        assert chaos_from_json(chaos_to_json(schedule)) == schedule

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterFault(kind="meteor", epoch=0, shard=0)
        with pytest.raises(ValueError):
            ClusterFault(kind="kill", epoch=0, shard=0)  # down_for >= 1
        with pytest.raises(ValueError):
            ClusterFault(kind="partition", epoch=3, shard=0, until=3)
        with pytest.raises(ValueError):
            ClusterFault(kind="msg", epoch=0, shard=0, op="drop", mc=-1)

    def test_generation_is_deterministic_and_bounded(self):
        a = generate_cluster_chaos(7, 3, horizon=20)
        assert a == generate_cluster_chaos(7, 3, horizon=20)
        assert a != generate_cluster_chaos(8, 3, horizon=20)
        for fault in a:
            assert 0 <= fault.epoch <= 20
            assert 0 <= fault.shard < 3
        kills = [f for f in a if f.kind == "kill"]
        assert len(kills) == 2
        assert all(f.epoch + f.down_for < 20 for f in kills)


class TestJobsParity:
    def test_trace_is_byte_identical_at_any_jobs(self, tmp_path):
        chaos = generate_cluster_chaos(3, 3, horizon=18)
        blobs = {}
        for jobs in (1, 2, 4):
            path = tmp_path / ("trace-j%d.jsonl" % jobs)
            trace = JsonlTrace(str(path))
            sess = ClusterSession.build(
                n_shards=3, keyspace=16, ops=28, seed=3,
                chaos=chaos, jobs=jobs, trace=trace,
            )
            sess.run()
            trace.close()
            blobs[jobs] = path.read_bytes()
            assert not sess.violations
        assert blobs[1] == blobs[2] == blobs[4]
        assert blobs[1], "the trace must not be empty"


class TestCampaign:
    def test_campaign_and_replay(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        report = run_cluster_campaign(
            backends=("lightwsp-lrpo",), seeds=(0, 1), n_shards=2,
            keyspace=12, ops=24, horizon=18, trace_path=path,
        )
        assert report.ok, [s.violations for s in report.failures]
        assert len(report.scenarios) == 2
        for scenario in report.scenarios:
            assert scenario.responses.get("ok", 0) > 0
            assert scenario.digest
        records = read_trace(path)
        types = {r["type"] for r in records}
        assert "cluster_campaign_start" in types
        assert "cluster_scenario" in types
        assert "cluster_campaign_end" in types
        assert replay_cluster_trace(records) == []

    def test_campaign_refuses_lossy_backends(self):
        # PSP loses acked writes at a power cut by design; the cluster
        # oracle would flag every scenario — refuse up front instead
        with pytest.raises(ValueError, match="not crash-consistent"):
            run_cluster_campaign(backends=("psp",), seeds=(0,))

    def test_replay_notices_tampering(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_cluster_campaign(
            backends=("lightwsp-lrpo",), seeds=(0,), n_shards=2,
            keyspace=12, ops=24, horizon=18, trace_path=path,
        )
        records = read_trace(path)
        for record in records:
            if record["type"] == "cluster_scenario":
                record["digest"] = "0" * 16
        assert replay_cluster_trace(records)

    def test_replay_progress_is_per_scenario(self, tmp_path):
        # a mismatch in the first scenario must not mark the next one
        path = str(tmp_path / "campaign.jsonl")
        run_cluster_campaign(
            backends=("lightwsp-lrpo",), seeds=(0, 1), n_shards=2,
            keyspace=12, ops=24, horizon=18, trace_path=path,
        )
        records = read_trace(path)
        first = next(r for r in records if r["type"] == "cluster_scenario")
        first["digest"] = "0" * 16
        said = []
        mismatches = replay_cluster_trace(records, progress=said.append)
        assert len(mismatches) == 1
        assert said == [
            "  replayed lightwsp-lrpo seed=0: MISMATCH",
            "  replayed lightwsp-lrpo seed=1: ok",
        ]
