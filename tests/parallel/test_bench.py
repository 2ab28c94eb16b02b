"""``repro bench``: artifact schema, jobs-parity of the deterministic
metrics, and the ``--baseline`` regression gate (the injected-slowdown
acceptance criterion lives here)."""

import copy
import json
import os

import pytest

from repro.__main__ import main
from repro.perf import (
    BENCH_SPECS,
    diff_reports,
    format_diff,
    load_report,
    run_bench,
    select_specs,
)

SMOKE = [s.name for s in BENCH_SPECS if s.smoke]
BENCH_PR9 = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results",
    "BENCH_pr9.json",
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True, seed=0)


class TestSuite:
    def test_smoke_subset_is_nonempty_and_mixed(self):
        specs = select_specs(None, smoke=True)
        kinds = {s.kind for s in specs}
        assert kinds == {"sim", "store"}
        assert 3 <= len(specs) < len(BENCH_SPECS)

    def test_unknown_entry_rejected(self):
        with pytest.raises(KeyError, match="nope"):
            select_specs(["nope"], smoke=True)


class TestArtifact:
    def test_schema(self, smoke_report, tmp_path):
        out = tmp_path / "BENCH.json"
        smoke_report.write(str(out))
        payload = json.loads(out.read_text())
        assert payload["kind"] == "repro-bench"
        assert payload["smoke"] is True
        assert sorted(payload["entries"]) == sorted(SMOKE)
        for name, entry in payload["entries"].items():
            assert entry["kind"] in ("sim", "store")
            assert entry["wall_s"] >= 0
            metrics = entry["metrics"]
            if entry["kind"] == "sim":
                assert metrics["cycles"] > 0
                assert metrics["slowdown"] > 0
                assert metrics["persist_bytes"] > 0
            else:
                assert metrics["throughput_mops"] > 0
                assert metrics["p99"] >= metrics["p95"] >= metrics["p50"]

    def test_load_rejects_foreign_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a repro-bench"):
            load_report(str(bogus))

    def test_smoke_metrics_equal_the_committed_artifact(self, smoke_report):
        # every deterministic metric, exactly: the 10% gate alone would
        # let a refactor move them
        committed = load_report(BENCH_PR9)["entries"]
        current = smoke_report.to_json()["entries"]
        assert sorted(current) == sorted(committed)
        for name, entry in current.items():
            assert entry["metrics"] == committed[name]["metrics"], name


class TestJobsParity:
    def test_metrics_identical_modulo_wall_clock(self, smoke_report):
        parallel = run_bench(smoke=True, seed=0, jobs=2)
        serial = {e.name: e for e in smoke_report.entries}
        assert [e.name for e in parallel.entries] == list(serial)
        for entry in parallel.entries:
            assert entry.metrics == serial[entry.name].metrics, entry.name


class TestRegressionGate:
    def test_identical_reports_pass(self, smoke_report):
        payload = smoke_report.to_json()
        diff = diff_reports(payload, payload)
        assert diff.ok
        assert diff.compared > 0
        assert diff.regressions == diff.improvements == []

    def test_injected_20pct_slowdown_fails(self, smoke_report):
        base = smoke_report.to_json()
        slow = copy.deepcopy(base)
        victim = slow["entries"]["store/ycsb-a"]["metrics"]
        victim["throughput_mops"] *= 0.80
        diff = diff_reports(base, slow, threshold=0.10)
        assert not diff.ok
        hits = [(r.entry, r.metric) for r in diff.regressions]
        assert ("store/ycsb-a", "throughput_mops") in hits
        assert "REGRESSION" in format_diff(diff)
        assert "FAIL" in format_diff(diff)

    def test_9pct_drift_passes_default_threshold(self, smoke_report):
        base = smoke_report.to_json()
        drift = copy.deepcopy(base)
        drift["entries"]["sim/bzip2"]["metrics"]["cycles"] *= 1.09
        assert diff_reports(base, drift, threshold=0.10).ok

    def test_improvements_reported_not_failed(self, smoke_report):
        base = smoke_report.to_json()
        fast = copy.deepcopy(base)
        fast["entries"]["sim/bzip2"]["metrics"]["cycles"] *= 0.5
        diff = diff_reports(base, fast)
        assert diff.ok
        assert any(r.metric == "cycles" for r in diff.improvements)

    def test_wall_clock_never_gates(self, smoke_report):
        base = smoke_report.to_json()
        jittery = copy.deepcopy(base)
        for entry in jittery["entries"].values():
            entry["wall_s"] *= 100.0
        assert diff_reports(base, jittery).ok

    def test_resized_workload_is_noted(self, smoke_report):
        base = smoke_report.to_json()
        resized = copy.deepcopy(base)
        resized["entries"]["store/ycsb-a"]["metrics"]["ops"] *= 2
        diff = diff_reports(base, resized)
        assert any("size input" in note for note in diff.notes)


class TestCLI:
    def test_smoke_run_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_pr5.json"
        assert main(
            ["bench", "--smoke", "--jobs", "2", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["kind"] == "repro-bench"
        assert "wrote" in capsys.readouterr().out

    def test_baseline_regression_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "current.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        # inflate the baseline so the (identical) re-run looks 20% slower
        baseline = json.loads(out.read_text())
        for entry in baseline["entries"].values():
            if "throughput_mops" in entry["metrics"]:
                entry["metrics"]["throughput_mops"] *= 1.25
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        code = main([
            "bench", "--smoke", "--out", str(tmp_path / "again.json"),
            "--baseline", str(base_path),
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_matching_baseline_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "current.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        code = main([
            "bench", "--smoke", "--out", str(tmp_path / "again.json"),
            "--baseline", str(out),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_entry_exits_two(self, tmp_path, capsys):
        assert main(
            ["bench", "nope", "--out", str(tmp_path / "x.json")]
        ) == 2

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        code = main([
            "bench", "--smoke", "--out", str(tmp_path / "x.json"),
            "--baseline", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().out

    @pytest.mark.parametrize("payload, field", [
        ([], "top level"),
        ({"kind": "repro-bench", "entries": {"sim/bzip2": []}},
         "entries.sim/bzip2"),
        ({"kind": "repro-bench",
          "entries": {"sim/bzip2": {"metrics": {"cycles": "x"}}}},
         "entries.sim/bzip2.metrics.cycles"),
    ], ids=["list", "entry-not-object", "metric-not-number"])
    def test_malformed_baseline_exits_two(self, tmp_path, capsys,
                                          payload, field):
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(payload))
        code = main([
            "bench", "--smoke", "--out", str(tmp_path / "x.json"),
            "--baseline", str(base_path),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "cannot load baseline" in out
        assert str(base_path) in out and field in out
