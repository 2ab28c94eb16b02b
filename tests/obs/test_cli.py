"""Tests for the ``repro trace`` CLI and the replay version gate."""

import json
import os

import pytest

from repro.__main__ import main

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CAMPAIGN = os.path.join(DATA, "faults-campaign-seed0.jsonl")
CLUSTER = os.path.join(DATA, "cluster-chaos-seed0.jsonl")


def _future_copy(tmp_path, src=CAMPAIGN, version="2.0"):
    path = str(tmp_path / "future.jsonl")
    with open(src) as fh, open(path, "w") as out:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            record["schema_version"] = version
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return path


class TestTimeline:
    def test_timeline_on_committed_campaign(self, capsys):
        assert main(["trace", "timeline", CAMPAIGN]) == 0
        out = capsys.readouterr().out
        assert "faults campaign" in out
        assert "schema 1.1" in out
        assert "steps" in out
        assert "defense-off validation" in out

    def test_timeline_on_committed_cluster(self, capsys):
        assert main(["trace", "timeline", CLUSTER]) == 0
        out = capsys.readouterr().out
        assert "cluster chaos campaign" in out

    def test_missing_file(self, capsys):
        assert main(["trace", "timeline", "/nonexistent.jsonl"]) == 2

    def test_unknown_major_refused(self, tmp_path, capsys):
        path = _future_copy(tmp_path)
        assert main(["trace", "timeline", path]) == 2
        out = capsys.readouterr().out
        assert "2.0" in out
        assert "major" in out


class TestVerdicts:
    def test_verdicts_byte_parity(self, capsys):
        assert main(["trace", "verdicts", CAMPAIGN]) == 0
        out = capsys.readouterr().out
        assert "byte-matches" in out

    def test_verdicts_cluster(self, capsys):
        assert main(["trace", "verdicts", CLUSTER]) == 0

    def test_tampered_trace_fails(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(CAMPAIGN) as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
        end = json.loads(lines[-1])
        end["scenarios"] += 1
        lines[-1] = json.dumps(end, sort_keys=True)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["trace", "verdicts", path]) == 1
        assert "PROBLEM" in capsys.readouterr().out


class TestTail:
    def test_tail_no_follow(self, capsys):
        assert main(["trace", "tail", CAMPAIGN, "--no-follow"]) == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out
        assert "tailed" in out

    def test_tail_refuses_unknown_major(self, tmp_path, capsys):
        path = _future_copy(tmp_path)
        assert main(["trace", "tail", path, "--no-follow"]) == 2


class TestValidate:
    def test_committed_traces_validate(self, capsys):
        assert main(["trace", "validate", CAMPAIGN, CLUSTER]) == 0
        out = capsys.readouterr().out
        assert "0 invalid" in out

    def test_invalid_trace_fails(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "volcano_eruption"}\n')
        assert main(["trace", "validate", path]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "unknown event type" in out

    def test_truncated_trace_fails(self, tmp_path, capsys):
        path = str(tmp_path / "cut.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "nested_cut", "step": 1}\n{"hal')
        assert main(["trace", "validate", path]) == 1
        assert "truncated" in capsys.readouterr().out


class TestSchema:
    def test_schema_prints_published_document(self, capsys):
        from repro.obs import schema_json_text

        assert main(["trace", "schema"]) == 0
        assert capsys.readouterr().out == schema_json_text()


class TestReplayVersionGate:
    def test_faults_replay_refuses_unknown_major(self, tmp_path, capsys):
        path = _future_copy(tmp_path)
        assert main(["faults", "replay", path]) == 2
        out = capsys.readouterr().out
        assert "2.0" in out
        assert "misinterpret" in out

    def test_cluster_replay_refuses_unknown_major(self, tmp_path, capsys):
        path = _future_copy(tmp_path, src=CLUSTER, version="5.0")
        assert main(["faults", "replay", path]) == 2
        out = capsys.readouterr().out
        assert "5.0" in out

    def test_replay_refuses_truncated_trace(self, tmp_path, capsys):
        path = str(tmp_path / "cut.jsonl")
        with open(CAMPAIGN) as fh:
            text = fh.read().rstrip("\n")
        with open(path, "w") as fh:
            fh.write(text[:-20])  # cut mid final record
        assert main(["faults", "replay", path]) == 2
        assert "truncated" in capsys.readouterr().out

    @pytest.mark.parametrize("src", [CAMPAIGN, CLUSTER], ids=os.path.basename)
    def test_replay_refuses_a_trace_without_scenarios(
        self, src, tmp_path, capsys
    ):
        # a start record alone checks nothing, and nothing checked is
        # not a pass
        path = str(tmp_path / "start-only.jsonl")
        with open(src) as fh, open(path, "w") as out:
            out.write(fh.readline())
        assert main(["faults", "replay", path]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "nothing to replay" in out
