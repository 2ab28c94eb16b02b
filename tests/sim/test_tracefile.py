"""Tests for trace serialization."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestIOPayloads:
    def test_io_payload_round_trips(self):
        events = [TraceEvent(EK.IO, lock_id=1, payload=7)]
        assert dumps_trace(events).strip() == "io,l=1,p=7"
        assert loads_trace(dumps_trace(events)) == events

    def test_compiled_io_program_round_trips(self):
        from helpers import io_program
        from repro.compiler import compile_program, run_single

        events, _ = run_single(compile_program(io_program()).program)
        assert [e.payload for e in events if e.kind == EK.IO] == [7, 0]
        reloaded = loads_trace(dumps_trace(events))
        assert reloaded == events
        assert dumps_trace(reloaded) == dumps_trace(events)


class TestBadLines:
    def test_non_integer_value_names_the_line(self):
        with pytest.raises(ValueError, match=r"line 2: bad field 'a=x'"):
            loads_trace("alu\nload,a=x\n")

    def test_field_the_kind_does_not_carry(self):
        # an ALU record keeps no address and a LOAD no lock id, so
        # accepting them would load a trace that dumps differently
        with pytest.raises(ValueError, match="line 1: bad field 'a=8'"):
            loads_trace("alu,a=8\n")
        with pytest.raises(ValueError, match="line 1: bad field 'l=3'"):
            loads_trace("load,l=3\n")

    def test_loaded_trace_is_a_trace(self):
        from repro.trace import Trace

        trace = loads_trace("alu\nalu,t=1\nstore,a=8,t=1\nhalt,t=1\n")
        assert isinstance(trace, Trace)
        assert len(trace) == 4
        assert trace[-1] == TraceEvent(EK.HALT, tid=1)


_LINE_ALPHABET = "alustorebdryckptfenchaioknm,=-0123456789xp \t#\n"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_LINE_ALPHABET, max_size=80) | st.text(max_size=40))
def test_arbitrary_text_loads_or_names_a_line(text):
    try:
        trace = loads_trace(text)
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return
    # whatever loads dumps to lines that load back to the same trace
    assert loads_trace(dumps_trace(trace)) == trace
