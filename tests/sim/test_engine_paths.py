"""Targeted engine-path tests using hand-crafted traces: WPQ-hit stalls,
zero-victim eviction delays, deadlock fallback, and implicit regions."""

from dataclasses import replace

import pytest

from repro.config import SystemConfig, VictimPolicy
from repro.runtime import LIGHTWSP, SchemePolicy
from repro.sim.engine import simulate
from repro.trace import EK, TraceEvent


def tiny_wpq_config(entries=4):
    config = SystemConfig()
    return replace(
        config,
        mc=replace(config.mc, wpq_entries=entries),
        persist_path=replace(config.persist_path, fe_entries=entries),
    )


def ev(kind, addr=0, tid=0, uid=-1):
    return TraceEvent(kind, addr=addr, tid=tid, boundary_uid=uid)


class TestWPQHitPath:
    def test_load_of_quarantined_word_stalls(self):
        """Store a word, then (before any boundary) load an alias far
        enough away that the load misses the hierarchy but maps to the
        same word — a WPQ hit must be counted and charged (§IV-H)."""
        config = SystemConfig()
        addr = 4096 * 64
        llc_way_stride = 65536 * 64  # same set in every (scaled) level
        events = [ev(EK.STORE, addr=addr)]
        # knock the line out of L1/L2/LLC with set-conflicting loads
        events += [
            ev(EK.LOAD, addr=addr + (i + 1) * llc_way_stride)
            for i in range(40)
        ]
        events += [ev(EK.LOAD, addr=addr)]  # LLC miss, WPQ still holds it
        events += [ev(EK.HALT)]
        res = simulate(events, config, LIGHTWSP)
        assert res.wpq_hits >= 1
        assert res.wpq_hit_stall > 0.0

    def test_no_hit_after_commit(self):
        config = SystemConfig()
        addr = 4096 * 64
        llc_way_stride = 65536 * 64
        events = [ev(EK.STORE, addr=addr), ev(EK.BOUNDARY, addr=8, uid=1)]
        events += [ev(EK.ALU)] * 2000  # let the flush land
        events += [
            ev(EK.LOAD, addr=addr + (i + 1) * llc_way_stride)
            for i in range(40)
        ]
        events += [ev(EK.LOAD, addr=addr), ev(EK.HALT)]
        res = simulate(events, config, LIGHTWSP)
        assert res.wpq_hit_stall == 0.0


class TestEvictionDelay:
    def test_zero_victim_conflict_charges_stall(self):
        """With a 1-entry-deep conflict window and the zero-victim policy,
        evicting a just-stored line must wait for the persist path."""
        config = SystemConfig().with_victim_policy(VictimPolicy.ZERO)
        # same L1 set, different blocks: smallest scaled L1 is 8KB/8-way
        # -> 16 sets of 64B; blocks 16*64 apart collide.
        set_stride = 16 * 64
        events = []
        for i in range(64):
            events.append(ev(EK.STORE, addr=i * set_stride))
        events.append(ev(EK.HALT))
        res = simulate(events, config, LIGHTWSP)
        assert res.buffer_conflicts > 0
        assert res.eviction_stall > 0.0

    def test_load_charges_its_delayed_eviction(self):
        """Eight back-to-back stores fill one L1 set; a load to that set
        must evict a line whose entry is still in flight.  Under
        zero-victim the load waits, and the wait reaches the clock: the
        replay is the snoop-free one plus the eviction stall."""
        set_stride = 16 * 64
        events = [ev(EK.STORE, addr=i * set_stride) for i in range(8)]
        events += [ev(EK.LOAD, addr=8 * set_stride), ev(EK.HALT)]
        zero = simulate(
            events, SystemConfig().with_victim_policy(VictimPolicy.ZERO),
            LIGHTWSP,
        )
        stale = simulate(
            events, SystemConfig().with_victim_policy(VictimPolicy.STALE_LOAD),
            LIGHTWSP,
        )
        assert zero.eviction_stall > 0.0
        assert zero.cycles == pytest.approx(stale.cycles + zero.eviction_stall)

    def test_full_policy_avoids_delay_when_entries_drain(self):
        """With compute between the stores, the persist path drains and
        the full scan always finds a conflict-free victim."""
        config = SystemConfig().with_victim_policy(VictimPolicy.FULL)
        set_stride = 16 * 64
        events = []
        for i in range(64):
            events.append(ev(EK.STORE, addr=i * set_stride))
            events.extend(ev(EK.ALU) for _ in range(64))
        events.append(ev(EK.HALT))
        res = simulate(events, config, LIGHTWSP)
        assert res.eviction_stall == 0.0

    def test_full_policy_delays_when_whole_set_conflicts(self):
        """Back-to-back stores keep every way's entry in flight: even the
        full scan must fall back to delaying (the §IV-G worst case)."""
        config = SystemConfig().with_victim_policy(VictimPolicy.FULL)
        set_stride = 16 * 64
        events = [ev(EK.STORE, addr=i * set_stride) for i in range(64)]
        events.append(ev(EK.HALT))
        res = simulate(events, config, LIGHTWSP)
        assert res.buffer_conflicts > 0
        assert res.eviction_stall > 0.0


class TestDeadlockFallback:
    def test_two_core_wpq_deadlock_resolves(self):
        """Two cores each fill the tiny WPQs mid-region: every core parks
        and the §IV-D fallback must undo-log its way out."""
        config = tiny_wpq_config(entries=2)
        events = []
        for i in range(12):
            events.append(ev(EK.STORE, addr=i * 128, tid=0))
            events.append(ev(EK.STORE, addr=i * 128 + 64, tid=1))
        events.append(ev(EK.BOUNDARY, addr=8, tid=0, uid=1))
        events.append(ev(EK.BOUNDARY, addr=16, tid=1, uid=2))
        events.append(ev(EK.HALT, tid=0))
        events.append(ev(EK.HALT, tid=1))
        res = simulate(events, config, LIGHTWSP)
        assert res.deadlock_events > 0
        assert res.undo_logged_entries > 0
        assert res.instructions == 26

    def test_single_core_never_deadlocks(self):
        config = tiny_wpq_config(entries=8)
        events = [ev(EK.STORE, addr=i * 64) for i in range(64)]
        events += [ev(EK.BOUNDARY, addr=8, uid=1), ev(EK.HALT)]
        res = simulate(events, config, LIGHTWSP)
        # single core: threshold-less synthetic trace can still overflow,
        # but the fallback must keep it alive
        assert res.instructions == 65


class TestImplicitRegions:
    def test_implicit_boundary_every_n_stores(self):
        policy = SchemePolicy(
            name="hw-regions", gated=False, boundary_wait=True,
            implicit_region_stores=4,
        )
        events = [ev(EK.STORE, addr=i * 64) for i in range(16)]
        events.append(ev(EK.HALT))
        res = simulate(events, SystemConfig(), policy)
        assert res.regions == 4

    def test_explicit_boundaries_ignored_by_implicit_schemes(self):
        policy = SchemePolicy(
            name="hw-regions", gated=False, boundary_wait=True,
            implicit_region_stores=4,
        )
        events = [ev(EK.STORE, addr=i * 64) for i in range(8)]
        events.insert(3, ev(EK.BOUNDARY, addr=8, uid=7))
        events.append(ev(EK.HALT))
        res = simulate(events, SystemConfig(), policy)
        # the BOUNDARY event is just a store to this scheme; regions come
        # from the store counter (9 store-likes -> 2 full regions)
        assert res.regions == 2
