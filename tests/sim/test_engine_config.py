"""Timing-engine tests across machine configurations: CXL backends,
NUMA placement, victim policies, and derived-config consistency."""

import pytest

from helpers import saxpy_program

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program, run_single
from repro.config import CXL_PRESETS, SystemConfig, VictimPolicy
from repro.runtime import LIGHTWSP, MEMORY_MODE
from repro.sim.engine import simulate


@pytest.fixture(scope="module")
def traces():
    config = SystemConfig()
    prog = saxpy_program(n=6000)  # exceeds the scaled L2: PM-visible
    base, _ = run_single(prog, max_steps=4_000_000)
    compiled = compile_program(prog, config.compiler)
    return {"config": config, "base": base, "lw": trace_of(compiled.program)}


class TestCXLBackends:
    def test_all_presets_run(self, traces):
        for name, backend in CXL_PRESETS.items():
            config = traces["config"].with_memory_backend(backend)
            res = simulate(traces["lw"], config, LIGHTWSP)
            assert res.cycles > 0, name

    def test_slower_device_is_slower(self, traces):
        """CXL-III (348 ns reads) must underperform CXL-I (158 ns)."""
        fast = traces["config"].with_memory_backend(CXL_PRESETS["CXL-I"])
        slow = traces["config"].with_memory_backend(CXL_PRESETS["CXL-III"])
        r_fast = simulate(traces["base"], fast, MEMORY_MODE)
        r_slow = simulate(traces["base"], slow, MEMORY_MODE)
        assert r_slow.cycles >= r_fast.cycles

    def test_cxl_pmem_includes_link_latency(self):
        backend = CXL_PRESETS["CXL-PMem"]
        assert backend.total_read_ns == pytest.approx(245.0)
        assert backend.total_write_ns == pytest.approx(160.0)

    def test_low_write_bw_throttles_wpq_drain(self, traces):
        config = traces["config"].with_memory_backend(CXL_PRESETS["CXL-PMem"])
        assert (
            config.wpq_flush_cycles_per_entry
            > traces["config"]
            .with_memory_backend(CXL_PRESETS["CXL-I"])
            .wpq_flush_cycles_per_entry
        )


class TestDerivedConfigs:
    def test_with_wpq_entries_scales_everything(self):
        config = SystemConfig().with_wpq_entries(128)
        assert config.mc.wpq_entries == 128
        assert config.persist_path.fe_entries == 128
        assert config.compiler.store_threshold == 64

    def test_with_bandwidth(self):
        config = SystemConfig().with_persist_bandwidth(2.0)
        assert config.persist_entry_cycles == pytest.approx(8.0)

    def test_without_dram_cache(self):
        config = SystemConfig().without_dram_cache()
        assert not config.dram_cache_enabled

    def test_with_victim_policy_validates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_victim_policy("nonsense")

    def test_with_mcs(self):
        config = SystemConfig().with_mcs(4)
        assert config.mc.n_mcs == 4
        # everything else untouched
        assert config.mc.wpq_entries == SystemConfig().mc.wpq_entries

    def test_mc_config_validates(self):
        from dataclasses import replace

        base = SystemConfig()
        with pytest.raises(ValueError):
            base.with_mcs(0)
        with pytest.raises(ValueError):
            replace(base.mc, channels_per_mc=0)
        with pytest.raises(ValueError):
            replace(base.mc, wpq_entries=1)

    def test_describe_mentions_key_rows(self):
        rows = SystemConfig().describe()
        assert "Persist Path" in rows
        assert "4GB/s" in rows["Persist Path"]


class TestVictimPolicyTiming:
    @pytest.mark.parametrize(
        "policy",
        [VictimPolicy.FULL, VictimPolicy.HALF, VictimPolicy.ZERO,
         VictimPolicy.STALE_LOAD],
    )
    def test_all_policies_complete(self, traces, policy):
        config = traces["config"].with_victim_policy(policy)
        res = simulate(traces["lw"], config, LIGHTWSP)
        assert res.cycles > 0

    def test_policies_close_in_performance(self, traces):
        """Fig. 13's takeaway: conflicts are rare, policies are within
        noise."""
        cycles = {}
        for policy in (VictimPolicy.FULL, VictimPolicy.HALF, VictimPolicy.ZERO):
            config = traces["config"].with_victim_policy(policy)
            cycles[policy] = simulate(traces["lw"], config, LIGHTWSP).cycles
        assert max(cycles.values()) / min(cycles.values()) < 1.05
