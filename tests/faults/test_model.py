"""Tests for the fault-model datatypes: events, tears, the differential
oracle, and the JSONL trace artifacts."""

import pytest

from repro.faults import (
    FaultEvent,
    image_hash,
    read_trace,
    schedule_from_json,
    schedule_to_json,
    tear_value,
)
from repro.faults.oracle import SAMPLE_LIMIT, check_image, diff_images
from repro.trace import JsonlTrace, iter_scenarios


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent("quake", step=5)

    def test_msg_requires_valid_op(self):
        with pytest.raises(ValueError, match="op"):
            FaultEvent("msg", step=5, mc=0)

    def test_msg_requires_target_mc(self):
        with pytest.raises(ValueError, match="mc"):
            FaultEvent("msg", step=5, op="drop")

    def test_mc_down_requires_target_mc(self):
        with pytest.raises(ValueError, match="mc"):
            FaultEvent("mc_down", step=5)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            FaultEvent("cut", step=0)

    def test_rejects_unknown_nested_point(self):
        with pytest.raises(ValueError, match="nested"):
            FaultEvent("cut", step=5, nested_after="during_lunch")

    def test_json_drops_inert_defaults(self):
        assert FaultEvent("cut", step=9).to_json() == {"kind": "cut", "step": 9}

    def test_json_roundtrip_preserves_modifiers(self):
        events = [
            FaultEvent("msg", step=3, op="delay", mc=1, delay=2),
            FaultEvent("mc_down", step=11, mc=0),
            FaultEvent("cut", step=7, torn_index=1, residual_j=0.25,
                       nested_after="after_drain"),
        ]
        for event in events:
            assert FaultEvent.from_json(event.to_json()) == event

    def test_schedule_roundtrip(self):
        schedule = [
            FaultEvent("msg", step=3, op="drop", mc=0),
            FaultEvent("cut", step=9, torn_index=0),
        ]
        assert schedule_from_json(schedule_to_json(schedule)) == schedule

    def test_shifted_changes_only_the_step(self):
        event = FaultEvent("msg", step=3, op="dup", mc=1)
        moved = event.shifted(40)
        assert moved.step == 40
        assert (moved.kind, moved.op, moved.mc) == ("msg", "dup", 1)


class TestTearValue:
    def test_high_half_new_low_half_old(self):
        old = 0x00000000AAAABBBB
        new = 0x11112222CCCCDDDD
        assert tear_value(old, new) == 0x11112222AAAABBBB

    def test_small_values_appear_lost(self):
        # both halves' high bits are zero, so the torn word shows the OLD
        # small value — the store looks like it never happened
        assert tear_value(0, 7) == 0
        assert tear_value(3, 9) == 3

    def test_signed_wraparound(self):
        assert tear_value(-1, 0) == 0xFFFFFFFF
        assert tear_value(0, -1) == -(1 << 32)

    def test_identity_when_halves_agree(self):
        assert tear_value(42, 42) == 42


class TestOracle:
    def test_equal_images_pass(self):
        assert diff_images({1: 2, 3: 4}, {1: 2, 3: 4}) is None

    def test_counts_missing_extra_differing(self):
        got = {1: 1, 2: 5, 4: 9}
        want = {1: 1, 2: 6, 3: 7}
        violation = diff_images(got, want)
        assert violation.kind == "pm_divergence"
        assert violation.differing == 1
        assert violation.missing == 1
        assert violation.extra == 1
        assert violation.sample == ((2, 5, 6), (3, None, 7), (4, 9, None))

    def test_sample_is_capped(self):
        got = {w: 0 for w in range(3 * SAMPLE_LIMIT)}
        want = {w: 1 for w in range(3 * SAMPLE_LIMIT)}
        violation = diff_images(got, want)
        assert violation.differing == 3 * SAMPLE_LIMIT
        assert len(violation.sample) == SAMPLE_LIMIT

    def test_unfinished_execution_is_a_violation(self):
        violation = check_image(False, {}, {})
        assert violation.kind == "incomplete"
        assert "finish" in violation.describe()

    def test_violation_json_is_plain_data(self):
        violation = diff_images({1: 2}, {1: 3})
        data = violation.to_json()
        assert data["kind"] == "pm_divergence"
        assert data["sample"] == [[1, 2, 3]]


def _campaign_start(seed=0):
    """A minimal catalogue-conformant campaign_start payload."""
    return dict(seed=seed, scale=0.01, benchmarks=["bzip2"],
                fault_classes=["clean_cut"], tiny_wpq_entries=4,
                version=1)


def _scenario_end(benchmark="bzip2"):
    """A minimal catalogue-conformant scenario_end payload."""
    return dict(benchmark=benchmark, fault_class="clean_cut",
                config="default", mode="all_on", schedule=[],
                image_hash="0" * 16, steps=1, crashes=0,
                skipped_events=0, counters={}, violation=None)


class TestTrace:
    def test_image_hash_is_order_independent(self):
        assert image_hash({1: 2, 3: 4}) == image_hash({3: 4, 1: 2})

    def test_image_hash_is_value_sensitive(self):
        assert image_hash({1: 2}) != image_hash({1: 3})
        assert image_hash({1: 2}) != image_hash({2: 2})

    def test_jsonl_roundtrip(self, tmp_path):
        # the suite runs strict, so these emissions double as a check
        # that hand-built catalogue-conformant records pass validation
        path = str(tmp_path / "trace.jsonl")
        with JsonlTrace(path) as trace:
            trace.emit("campaign_start", **_campaign_start(seed=0))
            trace.emit("scenario_end", **_scenario_end(benchmark="bzip2"))
            trace.emit("campaign_end", scenarios=1, violations=0,
                       defenses_caught=0, defenses_total=0)
        records = read_trace(path)
        assert [r["type"] for r in records] == [
            "campaign_start", "scenario_end", "campaign_end",
        ]
        assert [s["benchmark"] for s in iter_scenarios(records)] == ["bzip2"]

    def test_trace_is_append_only(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTrace(path) as trace:
            trace.emit("campaign_start", **_campaign_start(seed=0))
        with JsonlTrace(path) as trace:
            trace.emit("campaign_start", **_campaign_start(seed=1))
        assert [r["seed"] for r in read_trace(path)] == [0, 1]
