"""Tests for the ablation drivers."""

import pytest

from repro.analysis import ExperimentContext, ablation_compiler, ablation_lrpo


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=0.08, benchmarks=["lbm", "namd"])


class TestLRPOAblation:
    def test_lrpo_strictly_beats_naive_waiting(self, ctx):
        fig = ablation_lrpo(ctx)
        assert fig.overall["LightWSP"] < fig.overall["naive-wait"]

    def test_naive_wait_is_expensive(self, ctx):
        """§III-B's claim: waiting at every boundary is *significant* —
        we demand at least 30% worse than LRPO."""
        fig = ablation_lrpo(ctx)
        assert fig.overall["naive-wait"] > fig.overall["LightWSP"] * 1.3

    def test_same_binary_both_arms(self, ctx):
        """Both arms replay the compiled trace: instruction counts equal."""
        from repro.analysis.experiments import LIGHTWSP_NAIVE
        from repro.runtime import LIGHTWSP

        a = ctx.run("lbm", LIGHTWSP)
        b = ctx.run("lbm", LIGHTWSP_NAIVE)
        assert a.instructions == b.instructions


class TestCompilerAblation:
    def test_variants_present(self, ctx):
        fig = ablation_compiler(ctx)
        assert set(fig.series) == {"default", "no-unroll", "no-prune", "no-merge"}

    def test_overhead_columns_reported(self, ctx):
        fig = ablation_compiler(ctx)
        for row in fig.rows:
            for variant in fig.series:
                assert "overhead_%s" % variant in row

    def test_no_unroll_never_helps(self, ctx):
        fig = ablation_compiler(ctx)
        assert fig.overall["no-unroll"] >= fig.overall["default"] * 0.999

    def test_no_unroll_raises_instrumentation(self, ctx):
        """Region-size extension exists to cut checkpoint stores: without
        it the lbm loop pays a boundary + checkpoints per iteration."""
        fig = ablation_compiler(ctx)
        lbm = next(r for r in fig.rows if r["benchmark"] == "lbm")
        assert lbm["overhead_no-unroll"] > lbm["overhead_default"]
