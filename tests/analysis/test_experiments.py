"""Integration tests for the experiment drivers (small scales, a few
benchmarks — the full runs live in benchmarks/)."""

import pytest

from repro.analysis import (
    ExperimentContext,
    fig7_slowdown,
    fig8_efficiency,
    fig9_psp_vs_wsp,
    fig10_cwsp,
    fig11_wpq_size,
    fig12_threshold,
    fig13_victim_policy,
    fig14_miss_rate,
    fig15_bandwidth,
    fig16_threads,
    fig17_cxl,
    fig18_wpq_hits,
    format_figure,
    format_mapping,
    table1_config,
    table2_conflict_rate,
    table3_cxl,
    vg2_cam_latency,
    vg3_region_stats,
    vg4_hw_cost,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        scale=0.08, benchmarks=["lbm", "namd", "vacation", "rb"]
    )


@pytest.fixture(scope="module")
def ctx_st():
    return ExperimentContext(scale=0.08, benchmarks=["lbm", "namd"])


class TestContext:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            ExperimentContext(benchmarks=["nope"])

    def test_traces_cached(self, ctx):
        a = ctx.baseline_trace("namd")
        b = ctx.baseline_trace("namd")
        assert a is b

    def test_compiled_trace_has_boundaries(self, ctx):
        from repro.trace import EK

        events = ctx.compiled_trace("namd")
        assert any(e.kind == EK.BOUNDARY for e in events)

    def test_baseline_trace_has_none(self, ctx):
        from repro.trace import EK

        events = ctx.baseline_trace("namd")
        assert not any(e.kind == EK.BOUNDARY for e in events)


class TestFigureDrivers:
    def test_fig7_shape(self, ctx):
        fig = fig7_slowdown(ctx)
        assert fig.series == ("Capri", "PPA", "LightWSP")
        assert len(fig.rows) == 4
        assert fig.overall["LightWSP"] >= 0.95
        assert fig.overall["Capri"] >= fig.overall["LightWSP"]

    def test_fig8_efficiency_bounds(self, ctx_st):
        fig = fig8_efficiency(ctx_st)
        for row in fig.rows:
            assert 0.0 <= row["PPA"] <= 100.0
            assert 0.0 <= row["LightWSP"] <= 100.0

    def test_fig9_only_memory_intensive(self, ctx):
        fig = fig9_psp_vs_wsp(ctx)
        names = {row["benchmark"] for row in fig.rows}
        assert names == {"lbm", "rb"}  # the mem-intensive ones in ctx

    def test_fig10_excludes_npb(self):
        ctx = ExperimentContext(scale=0.08, benchmarks=["namd", "cg"])
        fig = fig10_cwsp(ctx)
        assert all(row["suite"] != "NPB" for row in fig.rows)

    def test_fig11_series(self, ctx_st):
        fig = fig11_wpq_size(ctx_st, sizes=(128, 64))
        assert fig.series == ("WPQ-128", "WPQ-64")
        for row in fig.rows:
            assert row["WPQ-128"] > 0

    def test_fig12_thresholds(self, ctx_st):
        fig = fig12_threshold(ctx_st, thresholds=(16, 32))
        assert "St-Threshold-16" in fig.series

    def test_table2_rates_non_negative(self, ctx_st):
        fig = table2_conflict_rate(ctx_st)
        for row in fig.rows:
            assert row["conflict_permille"] >= 0.0

    def test_fig13_policies(self, ctx_st):
        fig = fig13_victim_policy(ctx_st)
        assert set(fig.series) == {"Full Victim", "Half Victim", "Zero Victim"}

    def test_fig14_includes_stale_load(self, ctx_st):
        fig = fig14_miss_rate(ctx_st)
        assert "Stale Load" in fig.series
        for row in fig.rows:
            assert 0.0 <= row["Stale Load"] <= 100.0

    def test_fig15_bandwidth_ordering(self, ctx_st):
        fig = fig15_bandwidth(ctx_st, bandwidths=(4.0, 1.0))
        # lower bandwidth must not be faster overall
        assert fig.overall["1GB/s"] >= fig.overall["4GB/s"] * 0.99

    def test_fig16_multithreaded_only(self, ctx):
        fig = fig16_threads(ctx, counts=(2, 4))
        names = {row["benchmark"] for row in fig.rows}
        assert names == {"vacation", "rb"}
        for row in fig.rows:
            assert "overflows_2" in row

    def test_fig17_cxl_presets(self, ctx_st):
        fig = fig17_cxl(ctx_st)
        assert set(fig.series) == {"CXL-I", "CXL-II", "CXL-III", "CXL-PMem"}

    def test_fig18_hit_rates(self, ctx_st):
        fig = fig18_wpq_hits(ctx_st, sizes=(64,))
        for row in fig.rows:
            assert row["WPQ-64"] >= 0.0

    def test_vg3_region_stats(self, ctx_st):
        fig = vg3_region_stats(ctx_st)
        for row in fig.rows:
            assert row["instrumentation_pct"] >= 0.0
            assert row["insts_per_region"] > 0
            assert row["stores_per_region"] > 0


class TestStaticTables:
    def test_table1_rows(self):
        table = table1_config()
        assert "Processor" in table
        assert "WPQ" in table["Memory Controller"]

    def test_table3_rows(self):
        fig = table3_cxl()
        assert len(fig.rows) == 4

    def test_vg2_cam(self):
        result = vg2_cam_latency()
        assert result["search_cycles"] == 2

    def test_vg4_costs(self):
        costs = vg4_hw_cost()
        assert "LightWSP" in costs and "0.5B" in costs["LightWSP"]


class TestReport:
    def test_format_figure_renders(self, ctx_st):
        fig = fig7_slowdown(ctx_st)
        text = format_figure(fig)
        assert "Fig. 7" in text
        assert "geomean(all)" in text
        assert "lbm" in text

    def test_format_mapping(self):
        text = format_mapping("Table I", {"a": 1, "b": 2.5})
        assert "Table I" in text and "2.500" in text
