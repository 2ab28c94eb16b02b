"""Set-associative cache models and the three-level hierarchy of Table I.

The hierarchy is functional about *placement* (tags, LRU, dirty bits,
evictions) and analytic about *timing* (fixed per-level latencies): that
is all the evaluation's effects need — miss rates, dirty-eviction streams
for buffer snooping (§IV-G), and LLC misses for WPQ searches (§IV-H).

The DRAM cache (LLC) is direct-mapped over PM, as in Intel Optane's memory
mode; the ideal-PSP configuration simply omits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..config import CacheConfig, SystemConfig

__all__ = ["Cache", "AccessResult", "CacheHierarchy", "LevelStats"]

#: Victim selector: receives a full set's block addresses in LRU order
#: (least recent first) and returns the index to evict, or None to signal
#: "delay the eviction" (zero-victim policy).  The list is the cache's live
#: set: a selector must only read it.
VictimSelector = Callable[[List[int]], Optional[int]]


class AccessResult(NamedTuple):
    hit: bool
    #: (block_address, was_dirty) for an eviction this access caused
    evicted: Optional[Tuple[int, bool]] = None
    #: the eviction was delayed by the victim selector (zero-victim)
    eviction_delayed: bool = False


#: the shared outcomes of every access that evicts nothing
_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)


@dataclass
class LevelStats:
    accesses: int = 0
    misses: int = 0
    dirty_evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative level with LRU replacement and dirty bits."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.ways = config.ways
        self.block = config.block_bytes
        # per-set list of block addresses, LRU order (index 0 oldest);
        # sets materialize on first touch — a smoke-scale trace visits a
        # tiny fraction of a realistically sized cache's index space, so
        # eagerly allocating n_sets empty lists would dominate setup
        self.sets: Dict[int, List[int]] = {}
        #: the resident blocks that are dirty
        self.dirty: Set[int] = set()
        self.stats = LevelStats()

    def access(
        self,
        addr: int,
        write: bool,
        victim_selector: Optional[VictimSelector] = None,
    ) -> AccessResult:
        """Look up ``addr``; allocate on miss (write-allocate).  Returns
        hit/miss and any eviction performed; an access that evicts nothing
        returns a shared result."""
        stats = self.stats
        stats.accesses += 1
        block_addr = addr // self.block
        index = block_addr % self.n_sets
        cache_set = self.sets.get(index)
        if cache_set is None:
            cache_set = self.sets[index] = []
        elif block_addr in cache_set:
            if cache_set[-1] != block_addr:
                cache_set.remove(block_addr)  # move to MRU
                cache_set.append(block_addr)
            if write:
                self.dirty.add(block_addr)
            return _HIT

        stats.misses += 1
        result = _MISS
        if len(cache_set) >= self.ways:
            delayed = False
            idx = 0 if victim_selector is None else victim_selector(cache_set)
            if idx is None:
                # Zero-victim: the caller delays this eviction; we still
                # must make room, so evict LRU but flag the delay so the
                # engine charges the wait.
                idx = 0
                delayed = True
            victim = cache_set.pop(idx)
            was_dirty = victim in self.dirty
            if was_dirty:
                self.dirty.remove(victim)
                stats.dirty_evictions += 1
            result = AccessResult(False, (victim, was_dirty), delayed)
        cache_set.append(block_addr)
        if write:
            self.dirty.add(block_addr)
        return result


class HierarchyOutcome(NamedTuple):
    """Result of one hierarchy access, consumed by the timing engine.  An
    access without a dirty L1 eviction returns one of its hierarchy's
    shared outcomes."""

    latency: float
    llc_miss: bool = False          # reached PM
    l1_eviction: Optional[Tuple[int, bool]] = None  # (block, dirty) from L1
    l1_eviction_delayed: bool = False
    l1_hit: bool = False


class CacheHierarchy:
    """Private L1D (we model the data side only), shared L2, shared
    direct-mapped DRAM cache.

    Each level is scaled down by its entry of ``scale`` so that the modest
    synthetic footprints (tens of KB to a few MB) exercise the same miss
    behaviour the full-size hierarchy shows on full-size workloads: the
    default leaves 8 KB of L1, 32 KB of L2, and 4 MB of DRAM cache — a
    hierarchy where a ~100 KB-working-set kernel is "memory-intensive"
    (L2-missing, DRAM-cache-served) just like a ~100 MB one on the real
    machine."""

    DEFAULT_SCALE = (8, 512, 1024)

    def __init__(
        self,
        config: SystemConfig,
        cores: Optional[int] = None,
        scale: Tuple[int, int, int] = DEFAULT_SCALE,
    ) -> None:
        self.config = config
        cores = cores if cores is not None else config.cores
        self.scale = scale
        self.l1 = [
            Cache(self._scaled(config.l1d, scale[0]), name="l1d%d" % c)
            for c in range(cores)
        ]
        self.l2 = Cache(self._scaled(config.l2, scale[1]), name="l2")
        self.l3: Optional[Cache] = (
            Cache(self._scaled(config.dram_cache, scale[2]), name="dram-cache")
            if config.dram_cache_enabled
            else None
        )
        # The shared outcomes of the accesses that evict no dirty L1 line;
        # a PM access pays the last cache level's latency first.
        l2_latency = float(config.l2.latency_cycles)
        llc_latency = (
            l2_latency
            if self.l3 is None
            else float(config.dram_cache.latency_cycles)
        )
        self._l1_hit = HierarchyOutcome(
            float(config.l1d.latency_cycles), l1_hit=True
        )
        self._l2_hit = HierarchyOutcome(l2_latency)
        self._l3_hit = HierarchyOutcome(llc_latency)
        self._pm = HierarchyOutcome(
            llc_latency + config.pm_read_cycles, llc_miss=True
        )

    @staticmethod
    def _scaled(cache: CacheConfig, factor: int) -> CacheConfig:
        size = max(cache.ways * cache.block_bytes, cache.size_bytes // factor)
        return CacheConfig(
            size_bytes=size,
            ways=cache.ways,
            block_bytes=cache.block_bytes,
            latency_cycles=cache.latency_cycles,
        )

    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        addr: int,
        write: bool,
        victim_selector: Optional[VictimSelector] = None,
    ) -> HierarchyOutcome:
        """One load (``write`` False) or store by ``core``.  Returns one of
        the shared outcomes unless the access evicted a dirty L1 line."""
        l1 = self.l1[core]
        r1 = l1.access(addr, write, victim_selector)
        if r1.hit:
            return self._l1_hit
        evicted = r1.evicted
        if evicted is not None and evicted[1]:
            # dirty L1 victims are written back into L2
            self.l2.access(evicted[0] * l1.block, True)
        else:
            evicted = None
        if self.l2.access(addr, write).hit:
            shared = self._l2_hit
        elif self.l3 is None or not self.l3.access(addr, write).hit:
            # A DRAM-cache miss fills from PM; without a DRAM cache (ideal
            # PSP) an L2 miss goes straight to PM.  Dirty L2 and DRAM-cache
            # victims are dropped: no scheme is charged a write-back.
            shared = self._pm
        else:
            shared = self._l3_hit
        if evicted is None:
            return shared
        return HierarchyOutcome(
            shared.latency, shared.llc_miss, evicted, r1.eviction_delayed
        )

    # ------------------------------------------------------------------
    def l1_miss_rate(self) -> float:
        accesses = sum(c.stats.accesses for c in self.l1)
        misses = sum(c.stats.misses for c in self.l1)
        return misses / accesses if accesses else 0.0
