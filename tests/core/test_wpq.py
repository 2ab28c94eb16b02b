"""Tests for the functional WPQ redo buffer."""

import pytest

from repro.core.wpq import FunctionalWPQ, WPQFullError


class TestFunctionalWPQ:
    def test_put_and_len(self):
        wpq = FunctionalWPQ(4)
        wpq.put(0, 100, 1)
        wpq.put(0, 101, 2)
        assert len(wpq) == 2

    def test_overflow_raises(self):
        wpq = FunctionalWPQ(2)
        wpq.put(0, 1, 1)
        wpq.put(0, 2, 2)
        with pytest.raises(WPQFullError):
            wpq.put(0, 3, 3)

    def test_pop_region_fifo_order(self):
        wpq = FunctionalWPQ(8)
        wpq.put(1, 10, 1)
        wpq.put(2, 20, 2)
        wpq.put(1, 11, 3)
        assert wpq.pop_region(1) == [(10, 1), (11, 3)]
        assert wpq.runs == {2: [(20, 2)]}
        assert len(wpq) == 1

    def test_discard_all(self):
        wpq = FunctionalWPQ(8)
        wpq.put(1, 10, 1)
        wpq.put(2, 20, 2)
        assert wpq.discard_all() == 2
        assert len(wpq) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FunctionalWPQ(0)


class TestRegionIdAllocator:
    def test_sequential_allocation(self):
        from repro.core.regionid import RegionIdAllocator

        alloc = RegionIdAllocator()
        assert alloc.start_thread(0) == 0
        assert alloc.start_thread(1) == 1
        assert alloc.boundary(0) == 0
        assert alloc.region_of(0) == 2
        assert alloc.boundary(1) == 1
        assert alloc.region_of(1) == 3
        assert alloc.allocated == 4
