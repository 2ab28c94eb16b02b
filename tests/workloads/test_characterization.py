"""Workload characterization: the properties the suite's calibration
promises (memory intensity, store density, sync frequency) and that the
figures depend on."""

import pytest

from repro.analysis import ExperimentContext
from repro.runtime import MEMORY_MODE, PSP_IDEAL
from repro.trace import EK, count_events
from repro.workloads import BENCHMARKS


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        scale=0.08,
        benchmarks=["lbm", "libquan", "milc", "rb", "namd", "hmmer", "vacation"],
    )


class TestMemoryIntensity:
    @pytest.mark.parametrize("name", ["lbm", "libquan", "milc"])
    def test_mem_intensive_apps_miss_the_llc_hierarchy(self, ctx, name):
        res = ctx.run(name, MEMORY_MODE)
        assert res.llc_misses > 0
        # and the DRAM cache matters: removing it must hurt
        psp = ctx.run(name, PSP_IDEAL)
        assert psp.cycles > res.cycles

    @pytest.mark.parametrize("name", ["namd", "hmmer"])
    def test_compute_bound_apps_fit_the_caches(self, ctx, name):
        res = ctx.run(name, MEMORY_MODE)
        psp = ctx.run(name, PSP_IDEAL)
        # near-identical with/without the DRAM cache
        assert psp.cycles == pytest.approx(res.cycles, rel=0.10)


class TestStoreDensity:
    def test_streaming_is_store_dense(self, ctx):
        stats = count_events(ctx.baseline_trace("lbm"))
        density = stats.data_stores / stats.instructions
        assert density > 0.10

    def test_reduction_is_store_sparse(self, ctx):
        stats = count_events(ctx.baseline_trace("hmmer"))
        density = stats.data_stores / stats.instructions
        assert density < 0.01


class TestSynchronization:
    def test_transactional_apps_use_locks(self, ctx):
        events = ctx.baseline_trace("vacation")
        locks = sum(1 for e in events if e.kind == EK.LOCK)
        unlocks = sum(1 for e in events if e.kind == EK.UNLOCK)
        assert locks > 0
        assert locks == unlocks

    def test_single_threaded_apps_do_not(self, ctx):
        events = ctx.baseline_trace("lbm")
        assert not any(e.kind in (EK.LOCK, EK.UNLOCK) for e in events)


class TestSuiteMetadata:
    def test_all_38_plus_lbm17_registered(self):
        # the paper counts 38 applications; lbm/namd appear in both SPEC
        # generations, which our registry keeps as distinct entries
        assert len(BENCHMARKS) == 39

    def test_thread_counts_sane(self):
        for bench in BENCHMARKS.values():
            assert bench.threads in (1, 8)
