"""Campaign-level tests: determinism, the replay artifact, defense-off
self-validation, and schedule shrinking."""

import pytest

from repro.faults import (
    DEFENSE_OFF_MODES,
    FaultEvent,
    read_trace,
    replay_trace,
    run_campaign,
    shrink_schedule,
)
from repro.trace import iter_scenarios

BENCH = ["bzip2"]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("faults") / "trace.jsonl")
    result = run_campaign(seed=0, benchmarks=BENCH, trace_path=path)
    return result, path


class TestCampaign:
    def test_defended_protocol_has_zero_violations(self, campaign):
        result, _ = campaign
        assert result.scenarios_run >= 10
        assert result.violations == []

    def test_every_defense_off_mode_caught(self, campaign):
        result, _ = campaign
        assert sorted(result.defense_results) == sorted(DEFENSE_OFF_MODES)
        for mode, entry in result.defense_results.items():
            assert entry["caught"], mode
            assert 1 <= entry["minimal_events"] <= entry["original_events"]
            assert entry["violation"] is not None, mode

    def test_result_reports_ok(self, campaign):
        result, _ = campaign
        assert result.ok
        assert result.defenses_caught == len(DEFENSE_OFF_MODES)

    def test_trace_is_replay_complete(self, campaign):
        result, path = campaign
        records = read_trace(path)
        assert records[0]["type"] == "campaign_start"
        assert records[-1]["type"] == "campaign_end"
        scenarios = list(iter_scenarios(records))
        assert len(scenarios) == result.scenarios_run
        for record in scenarios:
            assert record["schedule"], record
            assert record["violation"] is None
            assert record["image_hash"]

    def test_same_seed_is_bit_identical(self, campaign, tmp_path):
        _, path = campaign
        again = str(tmp_path / "again.jsonl")
        run_campaign(seed=0, benchmarks=BENCH, trace_path=again)
        assert read_trace(again) == read_trace(path)

    def test_replay_reproduces_every_scenario(self, campaign):
        result, path = campaign
        report = replay_trace(path)
        assert report["checked"] == result.scenarios_run
        assert report["mismatches"] == []

    def test_multithreaded_benchmark_rejected(self):
        with pytest.raises(ValueError, match="single-threaded"):
            run_campaign(seed=0, benchmarks=["cg"], validate_defenses=False)


class TestShrink:
    def test_drops_irrelevant_events_and_weakens_modifiers(self):
        schedule = [
            FaultEvent("msg", step=3, op="dup", mc=0),
            FaultEvent("cut", step=9, torn_index=2,
                       nested_after="after_drain"),
            FaultEvent("mc_down", step=5, mc=1),
        ]
        minimal, evals = shrink_schedule(
            schedule, lambda s: any(e.kind == "cut" for e in s)
        )
        assert len(minimal) == 1
        assert minimal[0].kind == "cut"
        assert minimal[0].torn_index == -1
        assert minimal[0].nested_after == ""
        assert evals <= 64

    def test_keeps_jointly_required_events(self):
        schedule = [
            FaultEvent("msg", step=3, op="drop", mc=0),
            FaultEvent("cut", step=9),
        ]
        minimal, _ = shrink_schedule(schedule, lambda s: len(s) == 2)
        assert minimal == schedule

    def test_respects_the_evaluation_budget(self):
        schedule = [FaultEvent("cut", step=i + 1) for i in range(8)]
        calls = []

        def never_fails(candidate):
            calls.append(1)
            return False

        minimal, evals = shrink_schedule(schedule, never_fails, budget=5)
        assert evals == len(calls) == 5
        assert minimal == schedule

    def test_weakens_delay_to_one_boundary(self):
        schedule = [FaultEvent("msg", step=3, op="delay", mc=0, delay=3)]
        minimal, _ = shrink_schedule(schedule, lambda s: bool(s))
        assert minimal[0].delay == 1


class TestStoreCampaign:
    def test_resolve_benchmark_knows_both_tables(self):
        from repro.faults import resolve_benchmark
        from repro.workloads import BENCHMARKS

        assert resolve_benchmark("bzip2") is BENCHMARKS["bzip2"]
        assert resolve_benchmark("store-ycsb-a").name == "store-ycsb-a"
        with pytest.raises(KeyError):
            resolve_benchmark("store-nope")

    def test_store_benchmarks_stay_out_of_the_suite(self):
        """Registering them in BENCHMARKS would silently change every
        figure sweep's default benchmark set."""
        from repro.workloads import BENCHMARKS

        assert not any(n.startswith("store-") for n in BENCHMARKS)

    def test_store_campaign_clean_and_replayable(self, tmp_path):
        path = str(tmp_path / "store-trace.jsonl")
        result = run_campaign(
            seed=1, benchmarks=["store-crud"], scale=0.03,
            trace_path=path, validate_defenses=False,
        )
        assert result.scenarios_run >= 10
        assert result.violations == []
        report = replay_trace(path)
        assert report["checked"] == result.scenarios_run
        assert report["mismatches"] == []
