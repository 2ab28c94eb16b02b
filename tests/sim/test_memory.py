"""Tests for address mapping and trace accounting."""

from repro.config import SystemConfig
from repro.sim.memory import AddressMap
from repro.trace import EK, TraceEvent, count_events


class TestAddressMap:
    def test_cacheline_interleave(self):
        amap = AddressMap(SystemConfig())
        assert amap.mc_of(0) == 0
        assert amap.mc_of(64) == 1
        assert amap.mc_of(128) == 0

    def test_same_line_same_mc(self):
        amap = AddressMap(SystemConfig())
        assert amap.mc_of(8) == amap.mc_of(56)

    def test_near_mc_partitions_cores(self):
        amap = AddressMap(SystemConfig())  # 8 cores, 2 MCs
        assert amap.near_mc(0) == 0
        assert amap.near_mc(3) == 0
        assert amap.near_mc(4) == 1
        assert amap.near_mc(7) == 1

    def test_far_mc_pays_extra_latency(self):
        amap = AddressMap(SystemConfig())
        near = amap.path_latency_cycles(0, 0)
        far = amap.path_latency_cycles(0, 1)
        assert far > near

    def test_numa_symmetry(self):
        amap = AddressMap(SystemConfig())
        assert amap.path_latency_cycles(0, 1) == amap.path_latency_cycles(7, 0)


class TestTraceStats:
    def test_count_events(self):
        events = [
            TraceEvent(EK.ALU),
            TraceEvent(EK.LOAD, addr=8),
            TraceEvent(EK.STORE, addr=16),
            TraceEvent(EK.CHECKPOINT, addr=0),
            TraceEvent(EK.BOUNDARY, addr=8, boundary_uid=3),
            TraceEvent(EK.ATOMIC, addr=24),
            TraceEvent(EK.HALT),
        ]
        stats = count_events(events)
        assert stats.instructions == 6  # HALT excluded
        assert stats.loads == 1
        assert stats.data_stores == 1
        assert stats.checkpoint_stores == 1
        assert stats.boundaries == 1
        assert stats.atomics == 1
        assert stats.persist_entries == 4
        assert stats.instrumentation == 2

    def test_per_region_ratios(self):
        events = [TraceEvent(EK.STORE, addr=8)] * 6 + [
            TraceEvent(EK.BOUNDARY, boundary_uid=1),
            TraceEvent(EK.BOUNDARY, boundary_uid=2),
        ]
        stats = count_events(events)
        assert stats.instructions_per_region() == 4.0
        assert stats.stores_per_region() == 3.0

    def test_zero_regions_safe(self):
        stats = count_events([TraceEvent(EK.ALU)])
        assert stats.instructions_per_region() == 0.0
        assert stats.stores_per_region() == 0.0

    def test_store_like_membership(self):
        assert TraceEvent(EK.STORE).is_store_like()
        assert TraceEvent(EK.BOUNDARY).is_store_like()
        assert not TraceEvent(EK.LOAD).is_store_like()
        assert TraceEvent(EK.ATOMIC).is_load_like()
