"""Tests for the cache models."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SystemConfig
from repro.sim.cache import AccessResult, Cache, CacheHierarchy, LevelStats


def small_cache(sets=4, ways=2, block=64, latency=3):
    return Cache(CacheConfig(sets * ways * block, ways, block, latency))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100, write=False).hit
        assert cache.access(0x100, write=False).hit

    def test_same_block_hits(self):
        cache = small_cache()
        cache.access(0x100, write=False)
        assert cache.access(0x13F, write=False).hit  # same 64B block

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.access(0 * 64, write=False)
        cache.access(1 * 64, write=False)
        cache.access(0 * 64, write=False)  # touch block 0: block 1 is LRU
        result = cache.access(2 * 64, write=False)
        assert result.evicted is not None
        assert result.evicted[0] == 1

    def test_dirty_bit_tracked(self):
        cache = small_cache(sets=1, ways=1)
        cache.access(0, write=True)
        result = cache.access(64 * 1, write=False)  # different set? no: 1 set
        assert result.evicted == (0, True)

    def test_clean_eviction_not_dirty(self):
        cache = small_cache(sets=1, ways=1)
        cache.access(0, write=False)
        result = cache.access(64, write=False)
        assert result.evicted == (0, False)

    def test_write_marks_existing_line_dirty(self):
        cache = small_cache(sets=1, ways=1)
        cache.access(0, write=False)
        cache.access(0, write=True)
        result = cache.access(64, write=False)
        assert result.evicted == (0, True)

    def test_victim_selector_overrides_lru(self):
        cache = small_cache(sets=1, ways=2)
        cache.access(0 * 64, write=True)
        cache.access(1 * 64, write=True)
        result = cache.access(2 * 64, write=False, victim_selector=lambda c: 1)
        assert result.evicted[0] == 1

    def test_victim_selector_none_delays_but_evicts_lru(self):
        cache = small_cache(sets=1, ways=1)
        cache.access(0, write=True)
        result = cache.access(64, write=False, victim_selector=lambda c: None)
        assert result.eviction_delayed
        assert result.evicted[0] == 0

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0, write=False)
        cache.access(0, write=False)
        assert cache.stats.miss_rate == 0.5

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64, 1)


class TestCacheHierarchy:
    def make(self, dram_cache=True):
        config = SystemConfig()
        if not dram_cache:
            config = config.without_dram_cache()
        return CacheHierarchy(config, cores=2)

    def test_l1_hit_latency(self):
        h = self.make()
        h.access(0, 0x1000, False)
        out = h.access(0, 0x1000, False)
        assert out.l1_hit
        assert out.latency == h.l1[0].config.latency_cycles

    def test_llc_miss_reaches_pm(self):
        h = self.make()
        out = h.access(0, 0x123456, False)
        assert out.llc_miss
        assert out.latency > h.config.pm_read_cycles

    def test_second_access_after_fill_hits_l1(self):
        h = self.make()
        h.access(0, 0x2000, False)
        assert h.access(0, 0x2000, False).l1_hit

    def test_cores_have_private_l1(self):
        h = self.make()
        h.access(0, 0x3000, False)
        out = h.access(1, 0x3000, False)
        assert not out.l1_hit
        assert out.latency == h.l2.config.latency_cycles  # filled into L2

    def test_no_dram_cache_pays_pm_on_l2_miss(self):
        h = self.make(dram_cache=False)
        out = h.access(0, 0x900000, False)
        assert out.llc_miss
        assert out.latency == pytest.approx(
            h.l2.config.latency_cycles + h.config.pm_read_cycles
        )

    def test_dirty_l1_eviction_reported(self):
        h = self.make()
        l1 = h.l1[0]
        sets = l1.n_sets
        block = l1.block
        # fill one set with dirty lines, then overflow it
        for w in range(l1.ways):
            h.access(0, w * sets * block, True)
        out = h.access(0, l1.ways * sets * block, True)
        assert out.l1_eviction is not None

    def test_l1_miss_rate_aggregates(self):
        h = self.make()
        h.access(0, 0, False)
        h.access(0, 0, False)
        h.access(1, 64, False)
        assert 0.0 < h.l1_miss_rate() < 1.0


# ----------------------------------------------------------------------
# Differential check against the list-of-[block, dirty] reference model
# ----------------------------------------------------------------------

class RefCache:
    """The reference cache: each set a list of ``[block, dirty]`` lines in
    LRU order, the victim selector given a copy of the set's blocks."""

    def __init__(self, config):
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        self.block = config.block_bytes
        self.sets = {}
        self.stats = LevelStats()

    def block_of(self, addr):
        return addr // self.block

    def _set_of(self, block_addr):
        return block_addr % self.n_sets

    def access(self, addr, write, victim_selector=None):
        self.stats.accesses += 1
        block_addr = self.block_of(addr)
        index = self._set_of(block_addr)
        cache_set = self.sets.get(index)
        if cache_set is None:
            cache_set = self.sets[index] = []

        for i, line in enumerate(cache_set):
            if line[0] == block_addr:
                cache_set.append(cache_set.pop(i))  # move to MRU
                if write:
                    line[1] = True
                return AccessResult(hit=True)

        self.stats.misses += 1
        evicted = None
        delayed = False
        if len(cache_set) >= self.ways:
            candidates = [line[0] for line in cache_set]
            idx = 0 if victim_selector is None else victim_selector(candidates)
            if idx is None:
                # Zero-victim: the caller delays this eviction; we still
                # must make room, so evict LRU but flag the delay so the
                # engine charges the wait.
                idx = 0
                delayed = True
            victim = cache_set.pop(idx)
            if victim[1]:
                self.stats.dirty_evictions += 1
            evicted = (victim[0], victim[1])
        cache_set.append([block_addr, write])
        return AccessResult(hit=False, evicted=evicted, eviction_delayed=delayed)


class RefHierarchy:
    """The reference hierarchy walk over :class:`RefCache` levels."""

    def __init__(self, config, cores):
        self.config = config
        self.l1 = [RefCache(config.l1d) for _ in range(cores)]
        self.l2 = RefCache(config.l2)
        self.l3 = RefCache(config.dram_cache) if config.dram_cache_enabled else None

    def access(self, core, addr, write, victim_selector=None):
        cfg = self.config
        l1 = self.l1[core]
        r1 = l1.access(addr, write, victim_selector=victim_selector)
        outcome = dict(latency=float(l1.config.latency_cycles), llc_miss=False,
                       l1_eviction=None, l1_eviction_delayed=False, l1_hit=False)
        if r1.evicted is not None and r1.evicted[1]:
            outcome["l1_eviction"] = r1.evicted
            outcome["l1_eviction_delayed"] = r1.eviction_delayed
            # dirty L1 victims are written back into L2
            self.l2.access(r1.evicted[0] * l1.block, True)
        if r1.hit:
            outcome["l1_hit"] = True
            return outcome

        r2 = self.l2.access(addr, write)
        outcome["latency"] = float(self.l2.config.latency_cycles)
        if r2.hit:
            return outcome

        if self.l3 is not None:
            r3 = self.l3.access(addr, write)
            outcome["latency"] = float(self.l3.config.latency_cycles)
            if r3.hit:
                return outcome
            outcome["latency"] += cfg.pm_read_cycles
            outcome["llc_miss"] = True
            return outcome

        outcome["latency"] = float(self.l2.config.latency_cycles) + cfg.pm_read_cycles
        outcome["llc_miss"] = True
        return outcome


#: a victim-selector choice: no selector, always delay, or a fixed index
#: (taken modulo the set size, so any way can be chosen)
selector_choices = st.one_of(st.none(), st.just("delay"), st.integers(0, 3))


def make_selector(choice, seen):
    """A selector for ``choice`` that records (a copy of) each candidate
    list it is shown in ``seen``."""
    if choice is None:
        return None

    def selector(candidates):
        seen.append(list(candidates))
        return None if choice == "delay" else choice % len(candidates)

    return selector


def assert_same_state(cache, ref):
    """Stats, every set's LRU order with its dirty bits, and a dirty set
    holding exactly the resident dirty blocks."""
    assert cache.stats == ref.stats
    assert sorted(cache.sets) == sorted(ref.sets)
    for index, ref_set in ref.sets.items():
        assert [[b, b in cache.dirty] for b in cache.sets[index]] == ref_set
    assert cache.dirty == {
        line[0] for ref_set in ref.sets.values() for line in ref_set if line[1]
    }


@settings(max_examples=150, deadline=None)
@given(
    sets=st.integers(1, 4),
    ways=st.integers(1, 4),
    ops=st.lists(
        st.tuples(st.integers(0, 16 * 64 - 1), st.booleans(), selector_choices),
        max_size=60,
    ),
)
def test_cache_matches_reference(sets, ways, ops):
    config = CacheConfig(sets * ways * 64, ways, 64, 3)
    cache, ref = Cache(config), RefCache(config)
    for addr, write, choice in ops:
        seen, ref_seen = [], []
        got = cache.access(addr, write, make_selector(choice, seen))
        want = ref.access(addr, write, make_selector(choice, ref_seen))
        assert (got.hit, got.evicted, got.eviction_delayed) == (
            want.hit, want.evicted, want.eviction_delayed,
        )
        assert seen == ref_seen
        assert_same_state(cache, ref)


def tiny_config(l1, l2, l3, dram_cache):
    """A machine whose three levels are (sets, ways) of 64 B blocks."""
    return replace(
        SystemConfig(),
        l1d=CacheConfig(l1[0] * l1[1] * 64, l1[1], 64, 4),
        l2=CacheConfig(l2[0] * l2[1] * 64, l2[1], 64, 44),
        dram_cache=CacheConfig(l3[0] * l3[1] * 64, l3[1], 64, 90),
        dram_cache_enabled=dram_cache,
    )


geometry = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(
    l1=geometry,
    l2=geometry,
    l3=geometry,
    dram_cache=st.booleans(),
    ops=st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 32 * 64 - 1), st.booleans(),
            selector_choices,
        ),
        max_size=60,
    ),
)
def test_hierarchy_matches_reference(l1, l2, l3, dram_cache, ops):
    config = tiny_config(l1, l2, l3, dram_cache)
    h = CacheHierarchy(config, cores=2, scale=(1, 1, 1))
    ref = RefHierarchy(config, cores=2)
    for core, addr, write, choice in ops:
        seen, ref_seen = [], []
        got = h.access(core, addr, write, make_selector(choice, seen))
        want = ref.access(core, addr, write, make_selector(choice, ref_seen))
        assert got._asdict() == want
        assert seen == ref_seen
        for cache, ref_cache in zip(h.l1 + [h.l2, h.l3], ref.l1 + [ref.l2, ref.l3]):
            if ref_cache is None:
                assert cache is None
            else:
                assert_same_state(cache, ref_cache)
