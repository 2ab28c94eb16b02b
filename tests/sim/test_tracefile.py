"""Tests for trace serialization."""

import pytest

from repro.trace import EK, TraceEvent
from repro.sim.tracefile import dumps_trace, loads_trace


class TestRoundTrip:
    EVENTS = [
        TraceEvent(EK.ALU),
        TraceEvent(EK.LOAD, addr=4096, tid=3),
        TraceEvent(EK.STORE, addr=8),
        TraceEvent(EK.BOUNDARY, addr=16, boundary_uid=42),
        TraceEvent(EK.LOCK, lock_id=5, tid=1),
        TraceEvent(EK.IO, lock_id=2),
        TraceEvent(EK.HALT, tid=7),
    ]

    def test_round_trip(self):
        assert loads_trace(dumps_trace(self.EVENTS)) == self.EVENTS

    def test_defaults_omitted(self):
        text = dumps_trace([TraceEvent(EK.ALU)])
        assert text.strip() == "alu"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nalu\nload,a=64\n"
        events = loads_trace(text)
        assert len(events) == 2
        assert events[1].addr == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            loads_trace("warp,a=1\n")

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError, match="bad field"):
            loads_trace("alu,z=1\n")

    def test_real_trace_round_trips(self):
        from helpers import saxpy_program
        from repro.compiler import run_single

        events, _ = run_single(saxpy_program(n=8))
        assert loads_trace(dumps_trace(events)) == events

    def test_loaded_trace_simulates_identically(self):
        from helpers import saxpy_program
        from repro.compiler import run_single
        from repro.runtime import MEMORY_MODE
        from repro.config import SystemConfig
        from repro.sim.engine import simulate

        events, _ = run_single(saxpy_program(n=32))
        reloaded = loads_trace(dumps_trace(events))
        config = SystemConfig()
        assert (
            simulate(events, config, MEMORY_MODE).cycles
            == simulate(reloaded, config, MEMORY_MODE).cycles
        )
