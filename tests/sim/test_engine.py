"""Tests for the timing engine across scheme policies."""

import gc
import weakref

import pytest

from helpers import locking_program, saxpy_program

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program, run_single, run_threads
from repro.config import SystemConfig, VictimPolicy
from repro.runtime import (
    CAPRI,
    CWSP,
    LIGHTWSP,
    MEMORY_MODE,
    PPA,
    PSP_IDEAL,
    SchemePolicy,
)
from repro.sim import engine as engine_module
from repro.sim.engine import TimingEngine, simulate


@pytest.fixture(scope="module")
def traces():
    config = SystemConfig()
    prog = saxpy_program(n=512)
    base, _ = run_single(prog, max_steps=4_000_000)
    compiled = compile_program(prog, config.compiler)
    lightwsp = trace_of(compiled.program)
    return {"config": config, "base": base, "lightwsp": lightwsp}


class TestSchemes:
    def test_baseline_has_no_persist_entries(self, traces):
        res = simulate(traces["base"], traces["config"], MEMORY_MODE)
        assert res.persist_entries == 0
        assert res.regions == 0

    def test_lightwsp_overhead_is_moderate(self, traces):
        base = simulate(traces["base"], traces["config"], MEMORY_MODE)
        lw = simulate(traces["lightwsp"], traces["config"], LIGHTWSP)
        slowdown = lw.cycles / base.cycles
        assert 1.0 <= slowdown < 1.6

    def test_lightwsp_never_stalls_at_boundaries(self, traces):
        lw = simulate(traces["lightwsp"], traces["config"], LIGHTWSP)
        assert lw.boundary_stall == 0.0
        assert lw.regions > 0

    def test_ppa_stalls_at_boundaries(self, traces):
        res = simulate(traces["base"], traces["config"], PPA)
        assert res.boundary_stall > 0.0

    def test_capri_slower_than_ppa(self, traces):
        ppa = simulate(traces["base"], traces["config"], PPA)
        capri = simulate(traces["base"], traces["config"], CAPRI)
        assert capri.cycles > ppa.cycles

    def test_scheme_ordering_matches_paper(self, traces):
        """Capri worst; PPA/cWSP/LightWSP within a tight band above the
        baseline."""
        base = simulate(traces["base"], traces["config"], MEMORY_MODE)
        results = {
            "Capri": simulate(traces["base"], traces["config"], CAPRI),
            "PPA": simulate(traces["base"], traces["config"], PPA),
            "cWSP": simulate(traces["base"], traces["config"], CWSP),
            "LightWSP": simulate(traces["lightwsp"], traces["config"], LIGHTWSP),
        }
        slow = {k: v.cycles / base.cycles for k, v in results.items()}
        assert slow["Capri"] > slow["LightWSP"]
        assert slow["Capri"] > slow["PPA"]
        assert all(s >= 0.99 for s in slow.values()), slow

    def test_lightwsp_efficiency_exceeds_ppa(self, traces):
        lw = simulate(traces["lightwsp"], traces["config"], LIGHTWSP)
        ppa = simulate(traces["base"], traces["config"], PPA)
        assert lw.persistence_efficiency > ppa.persistence_efficiency

    def test_gated_boundary_wait_rejected(self, traces):
        bad = SchemePolicy(name="bad", gated=True, boundary_wait=True)
        with pytest.raises(ValueError, match="gated"):
            TimingEngine(traces["config"], bad)


class TestSensitivities:
    def test_lower_bandwidth_is_slower(self, traces):
        config = traces["config"]
        fast = simulate(traces["lightwsp"], config.with_persist_bandwidth(4.0), LIGHTWSP)
        slow = simulate(traces["lightwsp"], config.with_persist_bandwidth(1.0), LIGHTWSP)
        assert slow.cycles >= fast.cycles

    def test_no_dram_cache_slower_on_big_footprint(self):
        config = SystemConfig()
        prog = saxpy_program(n=60000)  # ~1MB, exceeds the scaled L2
        base, _ = run_single(prog, max_steps=12_000_000)
        with_cache = simulate(base, config, MEMORY_MODE)
        without = simulate(base, config, PSP_IDEAL)
        assert without.cycles > with_cache.cycles

    def test_bigger_wpq_not_slower(self, traces):
        config = traces["config"]
        small = simulate(traces["lightwsp"], config, LIGHTWSP)
        # NOTE: the trace was compiled for threshold 32; resizing only the
        # WPQ here isolates the queueing effect.
        big = simulate(traces["lightwsp"], config.with_wpq_entries(256), LIGHTWSP)
        assert big.cycles <= small.cycles * 1.01


class TestMultithreaded:
    @pytest.fixture(scope="class")
    def mt(self):
        config = SystemConfig()
        prog = locking_program(n_threads=4, increments=30)
        compiled = compile_program(prog, config.compiler)
        events, _ = run_threads(
            compiled.program, [("worker", (t,)) for t in range(4)]
        )
        base_events, _ = run_threads(
            prog, [("worker", (t,)) for t in range(4)]
        )
        return {"config": config, "events": events, "base": base_events}

    def test_multithreaded_lightwsp_runs(self, mt):
        res = simulate(mt["events"], mt["config"], LIGHTWSP)
        assert res.cycles > 0
        assert res.regions > 0

    def test_locks_serialize(self, mt):
        res = simulate(mt["base"], mt["config"], MEMORY_MODE)
        assert res.lock_stall > 0.0

    def test_one_victim_selector_per_core(self, mt, monkeypatch):
        """Each core's §IV-G selector is built once per replay, over that
        core's live in-flight map."""
        built = []
        original = engine_module.make_victim_selector

        def counting(policy, inflight, on_conflict=None):
            built.append(inflight)
            return original(policy, inflight, on_conflict)

        monkeypatch.setattr(engine_module, "make_victim_selector", counting)
        engine = TimingEngine(mt["config"], LIGHTWSP)
        engine.run(mt["events"])
        assert len(engine.cores) == 4
        assert len(built) == 4
        for core, inflight in zip(engine.cores, built):
            assert inflight is core.inflight

    def test_mt_all_events_processed(self, mt):
        res = simulate(mt["events"], mt["config"], LIGHTWSP)
        expected = sum(1 for e in mt["events"] if e.kind != "halt")
        assert res.instructions == expected


class TestSnoopingCounters:
    def test_conflicts_counted_under_pressure(self):
        """A tiny L1 with a write-heavy kernel must produce dirty
        evictions that conflict with in-flight persist entries."""
        config = SystemConfig()
        prog = saxpy_program(n=2048)
        compiled = compile_program(prog, config.compiler)
        events = trace_of(compiled.program)
        res = simulate(
            events, config, LIGHTWSP, cache_scale=(512, 64, 1024)
        )
        assert res.l1_evictions > 0

    def test_finished_replay_needs_no_cycle_collection(self, traces):
        """Nothing a replay builds refers back to its engine, so its
        caches and WPQ contents go with the engine, without waiting for
        a gen-2 collection."""
        config = traces["config"].with_victim_policy(VictimPolicy.ZERO)
        gc.disable()
        try:
            engine = TimingEngine(config, LIGHTWSP)
            engine.run(traces["lightwsp"])
            assert engine.cores[0].selector is not None
            engine_ref = weakref.ref(engine)
            hierarchy_ref = weakref.ref(engine.hierarchy)
            del engine
            assert engine_ref() is None
            assert hierarchy_ref() is None
        finally:
            gc.enable()

    def test_stale_load_policy_counts(self):
        config = SystemConfig().with_victim_policy(VictimPolicy.STALE_LOAD)
        prog = saxpy_program(n=2048)
        compiled = compile_program(prog, config.compiler)
        events = trace_of(compiled.program)
        res = simulate(events, config, LIGHTWSP, cache_scale=(512, 64, 1024))
        assert res.stale_loads >= 0  # counter wired (value workload-dependent)
