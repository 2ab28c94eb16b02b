"""Tests for the LightWSP top-level API (trace_of, then simulate under
LIGHTWSP) and the per-scheme behavioural contrasts the engine tests
don't cover."""

import pytest

from helpers import locking_program, saxpy_program

from repro.analysis.experiments import trace_of
from repro.compiler import Op, compile_program
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.runtime import CAPRI, LIGHTWSP, PPA
from repro.sim.engine import simulate
from repro.trace import EK


@pytest.fixture(scope="module")
def compiled():
    return compile_program(saxpy_program(n=128), SystemConfig().compiler)


def lightwsp_result(compiled):
    return simulate(trace_of(compiled.program), DEFAULT_CONFIG, LIGHTWSP)


class TestTraceOf:
    def test_single_threaded(self, compiled):
        events = trace_of(compiled.program)
        assert events[-1].kind == EK.HALT
        assert any(e.kind == EK.BOUNDARY for e in events)

    def test_multithreaded(self):
        config = SystemConfig()
        prog = locking_program(n_threads=2, increments=4)
        c = compile_program(prog, config.compiler)
        events = trace_of(c.program, entries=[("worker", (t,)) for t in range(2)])
        tids = {e.tid for e in events}
        assert tids == {0, 1}

    def test_boundary_uids_match_sites(self, compiled):
        uids = {
            instr.uid
            for func in compiled.program.functions.values()
            for instr in func.instructions()
            if instr.op == Op.BOUNDARY
        }
        events = trace_of(compiled.program)
        for e in events:
            if e.kind == EK.BOUNDARY:
                assert e.boundary_uid in uids


class TestSimulateLightwsp:
    def test_end_to_end(self, compiled):
        res = lightwsp_result(compiled)
        assert res.scheme == "LightWSP"
        assert res.cycles > 0
        assert res.regions == sum(
            1 for e in trace_of(compiled.program) if e.kind == EK.BOUNDARY
        )


class TestSchemeContrasts:
    """Behavioural differences between the wait disciplines."""

    def test_capri_waits_longer_than_ppa(self, compiled):
        """Capri waits for flushed-in-PM, PPA for WPQ arrival: on the same
        trace Capri's boundary stalls must dominate."""
        config = SystemConfig()
        events = trace_of(compiled.program)
        capri = simulate(events, config, CAPRI)
        ppa = simulate(events, config, PPA)
        assert capri.boundary_stall > ppa.boundary_stall

    def test_lightwsp_trades_stall_for_backpressure(self, compiled):
        """LightWSP has zero boundary stalls by construction; any persist
        cost surfaces as front-end back-pressure instead."""
        res = lightwsp_result(compiled)
        assert res.boundary_stall == 0.0
        assert res.persist_waited == res.fe_stall

    def test_efficiency_definition_consistency(self, compiled):
        res = lightwsp_result(compiled)
        eff = res.persistence_efficiency
        assert 0.0 <= eff <= 100.0
        if res.persist_waited == 0.0:
            assert eff == 100.0
