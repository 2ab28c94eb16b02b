"""Tests for trace distribution analyses."""

import pytest

from repro.analysis.distributions import (
    Histogram,
    region_size_histograms,
    store_gap_histogram,
)
from repro.trace import EK, TraceEvent


class TestHistogram:
    def test_mean(self):
        h = Histogram()
        for v in (2, 4, 6):
            h.add(v)
        assert h.mean() == pytest.approx(4.0)

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 11):
            h.add(v)
        assert h.percentile(0.5) == 5
        assert h.percentile(1.0) == 10

    def test_percentile_bounds_checked(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(0.0)

    def test_share_at_most(self):
        h = Histogram()
        for v in (1, 2, 3, 4):
            h.add(v)
        assert h.share_at_most(2) == pytest.approx(0.5)
        assert h.share_at_most(99) == 1.0

    def test_empty_histogram_safe(self):
        h = Histogram()
        assert h.mean() == 0.0
        assert h.max() == 0
        assert h.buckets() == []
        assert h.share_at_most(5) == 1.0

    def test_buckets_cover_all_samples(self):
        h = Histogram()
        for v in (0, 1, 5, 9, 13):
            h.add(v)
        assert sum(c for _, c in h.buckets(width=4)) == 5


def trace(kinds, tid=0):
    return [TraceEvent(k, tid=tid) for k in kinds]


class TestRegionSizeHistograms:
    def test_single_region(self):
        events = trace([EK.ALU, EK.STORE, EK.ALU, EK.BOUNDARY])
        insts, stores = region_size_histograms(events)
        assert insts.counts == {4: 1}
        assert stores.counts == {2: 1}  # store + boundary are store-like

    def test_two_regions(self):
        events = trace(
            [EK.STORE, EK.BOUNDARY, EK.ALU, EK.ALU, EK.STORE, EK.BOUNDARY]
        )
        insts, stores = region_size_histograms(events)
        assert insts.n == 2
        assert insts.counts == {2: 1, 4: 1}

    def test_trailing_open_region_excluded(self):
        events = trace([EK.STORE, EK.BOUNDARY, EK.STORE, EK.STORE])
        insts, _ = region_size_histograms(events)
        assert insts.n == 1

    def test_threads_tracked_separately(self):
        events = trace([EK.STORE, EK.BOUNDARY], tid=0) + trace(
            [EK.ALU, EK.ALU, EK.ALU, EK.BOUNDARY], tid=1
        )
        insts, _ = region_size_histograms(events)
        assert insts.counts == {2: 1, 4: 1}

    def test_real_compiled_trace_obeys_threshold(self):
        from helpers import saxpy_program
        from repro.compiler import compile_program
        from repro.config import CompilerConfig
        from repro.analysis.experiments import trace_of

        threshold = 8
        compiled = compile_program(
            saxpy_program(n=64), CompilerConfig(store_threshold=threshold)
        )
        events = trace_of(compiled.program)
        _, stores = region_size_histograms(events)
        # store-like per region includes the boundary store: threshold + 1
        assert stores.max() <= threshold + 1


class TestStoreGapHistogram:
    def test_gaps_counted(self):
        events = trace([EK.STORE, EK.ALU, EK.ALU, EK.STORE, EK.STORE])
        gaps = store_gap_histogram(events)
        assert gaps.counts == {3: 1, 1: 1}

    def test_per_thread_gaps(self):
        events = [
            TraceEvent(EK.STORE, tid=0),
            TraceEvent(EK.STORE, tid=1),
            TraceEvent(EK.STORE, tid=0),
        ]
        gaps = store_gap_histogram(events)
        assert gaps.counts == {1: 1}  # only tid 0 has two stores
