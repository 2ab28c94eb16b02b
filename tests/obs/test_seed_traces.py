"""The committed seed traces are normative artifacts: stamped with the
trace.v1 version, and their recorded outcomes must reproduce bit for
bit when replayed by this build."""

import os

import pytest

from helpers import write_trace

from repro.__main__ import main
from repro.faults import replay_campaign
from repro.trace import TRACE_SCHEMA_VERSION, read_trace

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CAMPAIGN = os.path.join(DATA, "faults-campaign-seed0.jsonl")
CLUSTER = os.path.join(DATA, "cluster-chaos-seed0.jsonl")
FAILOVER = os.path.join(DATA, "cluster-failover-seed0.jsonl")
#: one replicated session with a live reshard
SESSION = os.path.join(DATA, "cluster-session-seed22.jsonl")
#: the KV-store fault campaign: its cuts, message faults, MC skews and
#: torn drains all run through the functional machine's batch settle
STORE = os.path.join(DATA, "store-campaign-seed0.jsonl")
#: the machine-plane campaign of an eager (non-gated) backend, which runs
#: FaultyMachine's fallbacks for backends without a boundary/ACK layer
EAGER = os.path.join(DATA, "cwsp-campaign-seed0.jsonl")
#: one store serving run with a torn power cut on every shard
SERVE = os.path.join(DATA, "serve-smoke-seed7-torn.jsonl")
#: the command that regenerates SERVE (plus --trace); serve has no --jobs
SERVE_ARGS = ["serve", "--smoke", "--seed", "7", "--crash-torn"]
#: the command that regenerates each committed trace (plus --trace)
SEED_TRACES = {
    CAMPAIGN: ["faults", "campaign", "--seed", "0"],
    CLUSTER: ["faults", "campaign", "--workload", "cluster", "--seed", "0"],
    STORE: ["faults", "campaign", "--workload", "store", "--seed", "0"],
    EAGER: [
        "faults", "campaign", "--backend", "cwsp-eager", "--seed", "0",
        "--benchmarks", "bzip2", "xz",
    ],
    FAILOVER: [
        "faults", "campaign", "--workload", "cluster", "--seed", "0",
        "--replicate", "--follower-kills", "1",
    ],
    SESSION: [
        "cluster", "serve", "--seed", "22", "--replicate",
        "--follower-kills", "1", "--reshard-at", "3",
    ],
}


class TestSeedTraces:
    def test_campaign_seed_trace_replays_bit_for_bit(self):
        report = replay_campaign(CAMPAIGN, jobs=2)
        assert report["mismatches"] == []
        records = read_trace(CAMPAIGN)
        scenarios = [r for r in records if r["type"] == "scenario_end"]
        assert report["checked"] == len(scenarios)

    def test_store_campaign_seed_trace_replays_bit_for_bit(self):
        report = replay_campaign(STORE, jobs=2)
        assert report["mismatches"] == []
        records = read_trace(STORE)
        assert records[0]["benchmarks"] == [
            "store-ycsb-a", "store-ycsb-b", "store-crud"
        ]
        assert records[-1]["violations"] == 0
        assert records[-1]["defenses_caught"] == \
            records[-1]["defenses_total"] > 0

    def test_eager_campaign_seed_trace_replays_bit_for_bit(self):
        report = replay_campaign(EAGER, jobs=2)
        assert report["mismatches"] == []
        records = read_trace(EAGER)
        assert records[0]["backend"] == "cwsp-eager"
        scenarios = [r for r in records if r["type"] == "scenario_end"]
        assert report["checked"] == len(scenarios) > 0
        assert records[-1]["violations"] == 0

    def test_cluster_seed_trace_replays_bit_for_bit(self):
        assert replay_campaign(CLUSTER)["mismatches"] == []

    def test_failover_seed_trace_replays_bit_for_bit(self):
        assert replay_campaign(FAILOVER)["mismatches"] == []

    def test_cluster_replay_mismatches_are_the_same_at_any_jobs(
        self, tmp_path
    ):
        records = read_trace(FAILOVER)
        scenarios = [r for r in records if r["type"] == "cluster_scenario"]
        scenarios[1]["digest"] = "0" * 16
        path = write_trace(records, str(tmp_path / "tampered.jsonl"))
        serial = replay_campaign(path, jobs=1)["mismatches"]
        assert len(serial) == 1
        assert serial[0].startswith("%s seed=%d: digest" % (
            scenarios[1]["backend"], scenarios[1]["seed"]))
        assert replay_campaign(path, jobs=2)["mismatches"] == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "seed_trace", sorted(SEED_TRACES), ids=os.path.basename
    )
    def test_seed_trace_regenerates_byte_for_byte(
        self, seed_trace, jobs, tmp_path, capsys
    ):
        path = str(tmp_path / "regenerated.jsonl")
        args = SEED_TRACES[seed_trace] + ["--jobs", str(jobs)]
        assert main(args + ["--trace", path]) == 0
        capsys.readouterr()
        with open(path, "rb") as fh, open(seed_trace, "rb") as want:
            assert fh.read() == want.read()

    def test_serve_seed_trace_regenerates_byte_for_byte(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "regenerated.jsonl")
        assert main(SERVE_ARGS + ["--trace", path]) == 0
        capsys.readouterr()
        with open(path, "rb") as fh, open(SERVE, "rb") as want:
            assert fh.read() == want.read()
        records = read_trace(SERVE)
        assert all(
            r["schema_version"] == TRACE_SCHEMA_VERSION for r in records
        )
        crashes = [r for r in records if r["type"] == "server_crash"]
        assert {r["shard"] for r in crashes} == {0, 1}
        assert all(r["oracle_ok"] for r in crashes)
        assert records[-1]["violations"] == 0

    def test_session_seed_trace_shape(self):
        records = read_trace(SESSION)
        types = {r["type"] for r in records}
        for rectype in ("promote", "replay_rejected", "late_completion",
                        "reshard_handoff", "txn_decision"):
            assert rectype in types, rectype
        kills = [r for r in records if r["type"] == "shard_kill"]
        assert any(r.get("replica") == 1 for r in kills)
        assert any(r["step"] > 0 for r in kills)  # a busy cut
        end = records[-1]
        assert end["type"] == "cluster_end"
        assert end["violations"] == []
        assert end["counters"]["promotions"] == 2
        assert end["resharded"]["done"] is True

    def test_failover_seed_trace_shape(self):
        records = read_trace(FAILOVER)
        start = records[0]
        assert start["type"] == "cluster_campaign_start"
        assert start["replicate"] is True
        assert start["follower_kills"] >= 1
        scenarios = [
            r for r in records if r["type"] == "cluster_scenario"
        ]
        assert scenarios
        assert all(not r["violations"] for r in scenarios)
        # failover, not degradation: at least one scenario promoted, and
        # none left a key range unavailable
        assert any(r.get("promotions", 0) >= 1 for r in scenarios)
        assert all(not r["unavailable_shards"] for r in scenarios)
        assert records[-1]["type"] == "cluster_campaign_end"
        assert records[-1]["failures"] == 0

    def test_seed_traces_are_fully_stamped(self):
        for path in (CAMPAIGN, STORE, EAGER, CLUSTER, FAILOVER, SESSION):
            records = read_trace(path)
            assert records
            assert all(
                r["schema_version"] == TRACE_SCHEMA_VERSION
                for r in records
            ), "%s has unstamped records" % path

    def test_campaign_seed_trace_shape(self):
        records = read_trace(CAMPAIGN)
        assert records[0]["type"] == "campaign_start"
        assert records[0]["seed"] == 0
        assert records[-1]["type"] == "campaign_end"
        assert records[-1]["violations"] == 0
        # all six defense-off modes were validated and caught
        assert records[-1]["defenses_caught"] == \
            records[-1]["defenses_total"] > 0
