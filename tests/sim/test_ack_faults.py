"""Timing-level ACK faults (:class:`repro.sim.mc.AckFaults`): a dropped
bdry-ACK slips the region's commit by one retry round, but LightWSP's
lazy persistence keeps the core's cycles unchanged — the fault costs
persist latency, never throughput."""

import pytest

from helpers import saxpy_program

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program
from repro.config import SystemConfig
from repro.runtime import LIGHTWSP
from repro.sim.engine import TimingEngine
from repro.sim.mc import AckFaults


@pytest.fixture(scope="module")
def setup():
    config = SystemConfig()
    compiled = compile_program(saxpy_program(n=128), config.compiler)
    return config, trace_of(compiled.program)


def run(config, trace, ack_faults=None):
    engine = TimingEngine(config, LIGHTWSP, ack_faults=ack_faults)
    result = engine.run(trace)
    return engine, result


class TestAckFaults:
    def test_retries_for_counts_per_region(self):
        faults = AckFaults(dropped=frozenset({(3, 0), (3, 1), (4, 0)}))
        assert faults.retries_for(3) == 2
        assert faults.retries_for(4) == 1
        assert faults.retries_for(5) == 0

    def test_no_faults_by_default(self, setup):
        config, trace = setup
        engine, result = run(config, trace)
        assert result.ack_retries == 0
        assert 3 in engine.pipeline.commit_end

    def test_dropped_ack_slips_the_commit(self, setup):
        config, trace = setup
        base_engine, _ = run(config, trace)
        faults = AckFaults(dropped=frozenset({(3, 0)}))
        engine, result = run(config, trace, faults)
        assert result.ack_retries == 1
        slip = (engine.pipeline.commit_end[3]
                - base_engine.pipeline.commit_end[3])
        assert slip == pytest.approx(faults.timeout_cycles)

    def test_lazy_persistence_hides_retries_from_cycles(self, setup):
        config, trace = setup
        _, base = run(config, trace)
        faults = AckFaults(dropped=frozenset({(3, 0), (5, 1)}))
        _, result = run(config, trace, faults)
        assert result.ack_retries == 2
        assert result.cycles == pytest.approx(base.cycles)

    def test_exposed_persist_latency_grows(self, setup):
        config, trace = setup
        base_engine, _ = run(config, trace)
        engine, _ = run(config, trace, AckFaults(dropped=frozenset({(3, 0)})))
        assert (engine.pipeline.exposed_persist_cycles
                > base_engine.pipeline.exposed_persist_cycles)
