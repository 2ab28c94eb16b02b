"""Replay must refuse a trace recorded under a sharding contract this
build cannot reproduce — and must keep accepting legacy traces that
predate the parallel layer (no ``sharding`` field at all)."""

import pytest

from helpers import write_trace

from repro.faults import replay_campaign, run_campaign
from repro.trace import read_trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("sharding") / "trace.jsonl")
    run_campaign(
        seed=0, benchmarks=["bzip2"], trace_path=path,
        validate_defenses=False,
    )
    return path


def _rewrite_start(src, dst, mutate):
    records = read_trace(src)
    assert records[0]["type"] == "campaign_start"
    mutate(records[0])
    return write_trace(records, dst)


class TestReplaySharding:
    def test_supported_contract_replays(self, trace_path):
        report = replay_campaign(trace_path)
        assert report["mismatches"] == []

    def test_unknown_strategy_refused_with_explanation(
        self, trace_path, tmp_path
    ):
        alien = _rewrite_start(
            trace_path, str(tmp_path / "alien.jsonl"),
            lambda start: start.__setitem__(
                "sharding",
                {"strategy": "hash-bucket", "unit": "scenario",
                 "version": 7},
            ),
        )
        with pytest.raises(ValueError) as exc:
            replay_campaign(alien)
        msg = str(exc.value)
        assert "sharding contract" in msg
        assert "hash-bucket" in msg
        assert "refusing to replay" in msg

    def test_future_version_refused(self, trace_path, tmp_path):
        from repro.faults.campaign import CAMPAIGN_SHARDING

        future = dict(CAMPAIGN_SHARDING, version=CAMPAIGN_SHARDING["version"] + 1)
        path = _rewrite_start(
            trace_path, str(tmp_path / "future.jsonl"),
            lambda start: start.__setitem__("sharding", future),
        )
        with pytest.raises(ValueError, match="sharding contract"):
            replay_campaign(path)

    def test_legacy_trace_without_field_replays(self, trace_path, tmp_path):
        legacy = _rewrite_start(
            trace_path, str(tmp_path / "legacy.jsonl"),
            lambda start: start.pop("sharding"),
        )
        report = replay_campaign(legacy)
        assert report["mismatches"] == []
