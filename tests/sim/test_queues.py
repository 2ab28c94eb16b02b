"""Tests for the queueing primitives."""

import pytest

from repro.sim.queues import SerialServer, SlotPool


class TestSerialServer:
    def test_back_to_back_requests_space_by_interval(self):
        server = SerialServer(4.0)
        assert server.service(0.0) == 4.0
        assert server.service(0.0) == 8.0
        assert server.service(0.0) == 12.0

    def test_idle_gap_resets_start(self):
        server = SerialServer(4.0)
        server.service(0.0)
        assert server.service(100.0) == 104.0

    def test_units_scale_service(self):
        server = SerialServer(2.0)
        assert server.service(0.0, units=3) == 6.0


class TestSlotPool:
    def test_grants_until_capacity(self):
        pool = SlotPool(2)
        assert pool.acquire(1.0) == 1.0
        assert pool.acquire(2.0) == 2.0

    def test_full_without_release_blocks(self):
        pool = SlotPool(1)
        assert pool.acquire(0.0) == 0.0
        assert pool.acquire(1.0) is None

    def test_release_enables_handover_at_release_time(self):
        pool = SlotPool(1)
        pool.acquire(0.0)
        pool.release(10.0)
        assert pool.acquire(5.0) == 10.0

    def test_release_in_past_grants_immediately(self):
        pool = SlotPool(1)
        pool.acquire(0.0)
        pool.release(3.0)
        assert pool.acquire(7.0) == 7.0

    def test_earliest_release_used_first(self):
        pool = SlotPool(2)
        pool.acquire(0.0)
        pool.acquire(0.0)
        pool.release_many([20.0, 10.0])
        assert pool.acquire(0.0) == 10.0
        assert pool.acquire(0.0) == 20.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(0)
