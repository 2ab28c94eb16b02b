"""System configuration for the LightWSP reproduction.

This module encodes Table I (the simulated machine) and Table III (the CXL
device presets) of the paper as frozen dataclasses.  Every timing quantity
is stored in physical units (ns, GB/s) together with helpers that convert
to core cycles at the configured clock, so the simulator code never hides
unit conversions.

The defaults follow the paper exactly:

* 8-core 4-wide OoO processor at 2 GHz,
* 64 KB / 8-way L1D (4 cycles), 16 MB shared L2 (44 cycles),
* direct-mapped 4 GB off-chip DRAM cache,
* 32 GB PM with 175 ns read / 90 ns write,
* 2 memory controllers, 2 channels each, 64-entry 8 B-granularity WPQ,
* persist path with 20 ns worst-case latency and 4 GB/s bandwidth,
* 64-entry front-end buffer,
* compiler store threshold = WPQ size / 2 = 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = [
    "CacheConfig",
    "MemoryBackendConfig",
    "PersistPathConfig",
    "MCConfig",
    "CompilerConfig",
    "SystemConfig",
    "CXL_PRESETS",
    "DEFAULT_CONFIG",
    "VictimPolicy",
]


class VictimPolicy:
    """Victim-selection policies for buffer snooping (§V-F3).

    ``FULL`` scans every way of the set for a conflict-free victim (the
    default), ``HALF`` scans only half the ways, ``ZERO`` never re-selects
    and instead delays the eviction until the conflicting front-end buffer
    entry drains, and ``STALE_LOAD`` disables snooping entirely (the buggy
    configuration used in Fig. 14 for comparison).
    """

    FULL = "full"
    HALF = "half"
    ZERO = "zero"
    STALE_LOAD = "stale-load"

    ALL = (FULL, HALF, ZERO, STALE_LOAD)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency for one cache level."""

    size_bytes: int
    ways: int
    block_bytes: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.block_bytes):
            raise ValueError(
                "cache size %d is not divisible by ways*block (%d*%d)"
                % (self.size_bytes, self.ways, self.block_bytes)
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_bytes)


@dataclass(frozen=True)
class MemoryBackendConfig:
    """The persistent-memory backend (or a CXL-attached device, Table III)."""

    name: str
    read_ns: float
    write_ns: float
    read_bw_gbps: float
    write_bw_gbps: float
    extra_link_ns: float = 0.0

    @property
    def total_read_ns(self) -> float:
        return self.read_ns + self.extra_link_ns

    @property
    def total_write_ns(self) -> float:
        return self.write_ns + self.extra_link_ns


@dataclass(frozen=True)
class PersistPathConfig:
    """The non-temporal persist path (§II-A) and front-end buffer (§III-A)."""

    latency_ns: float = 20.0
    bandwidth_gbps: float = 4.0
    fe_entries: int = 64
    entry_bytes: int = 8

    def entry_service_ns(self) -> float:
        """Time for one entry to cross the path at full bandwidth."""
        return self.entry_bytes / self.bandwidth_gbps  # B / (B/ns) == ns


@dataclass(frozen=True)
class MCConfig:
    """Integrated memory controllers and their WPQs (§IV-E)."""

    n_mcs: int = 2
    channels_per_mc: int = 2
    wpq_entries: int = 64
    wpq_entry_bytes: int = 8
    noc_latency_ns: float = 20.0
    cam_search_cycles: int = 2

    def __post_init__(self) -> None:
        if self.n_mcs < 1:
            raise ValueError("need at least one memory controller")
        if self.channels_per_mc < 1:
            raise ValueError("need at least one channel per MC")
        if self.wpq_entries < 2:
            raise ValueError("WPQ needs at least two entries")

    @property
    def wpq_bytes(self) -> int:
        return self.wpq_entries * self.wpq_entry_bytes


@dataclass(frozen=True)
class CompilerConfig:
    """Region-partitioning knobs (§III-C, §IV-A)."""

    store_threshold: int = 32
    unroll_limit: int = 8
    speculative_unroll: bool = True
    prune_checkpoints: bool = True
    merge_regions: bool = True
    #: run the scalar passes (constant folding + DCE) after region
    #: formation.  Off by default so instrumented and baseline binaries
    #: see identical scalar code (the paper compiles both with -O3).
    scalar_opts: bool = False

    def __post_init__(self) -> None:
        if self.store_threshold < 1:
            raise ValueError("store_threshold must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """The complete simulated machine (Table I)."""

    cores: int = 8
    clock_ghz: float = 2.0
    issue_width: int = 4
    #: effective CPI of non-memory work on the 4-wide OoO core.  gem5's
    #: measured IPC on these suites sits near 1.3-1.5 (not the 4-wide
    #: ideal): dependence chains, branches, and frontend stalls dominate.
    base_cpi: float = 0.75
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, 64, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024 * 1024, 16, 64, 44)
    )
    dram_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024 * 1024 * 1024, 1, 64, 90)
    )
    dram_cache_enabled: bool = True
    pm: MemoryBackendConfig = field(
        default_factory=lambda: MemoryBackendConfig(
            name="optane-pmem",
            read_ns=175.0,
            write_ns=90.0,
            read_bw_gbps=6.6,
            write_bw_gbps=2.3,
        )
    )
    persist_path: PersistPathConfig = field(default_factory=PersistPathConfig)
    mc: MCConfig = field(default_factory=MCConfig)
    compiler: CompilerConfig = field(default_factory=CompilerConfig)
    victim_policy: str = VictimPolicy.FULL

    def __post_init__(self) -> None:
        if self.victim_policy not in VictimPolicy.ALL:
            raise ValueError("unknown victim policy: %r" % (self.victim_policy,))
        if self.cores < 1:
            raise ValueError("need at least one core")

    # ------------------------------------------------------------------
    # Unit conversions
    # ------------------------------------------------------------------
    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.clock_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.clock_ghz

    @property
    def pm_read_cycles(self) -> float:
        return self.ns_to_cycles(self.pm.total_read_ns)

    @property
    def pm_write_cycles(self) -> float:
        return self.ns_to_cycles(self.pm.total_write_ns)

    @property
    def persist_entry_cycles(self) -> float:
        """Cycles between successive 8 B entries on the persist path."""
        return self.ns_to_cycles(self.persist_path.entry_service_ns())

    @property
    def persist_latency_cycles(self) -> float:
        return self.ns_to_cycles(self.persist_path.latency_ns)

    @property
    def noc_cycles(self) -> float:
        return self.ns_to_cycles(self.mc.noc_latency_ns)

    @property
    def ack_round_trip_cycles(self) -> float:
        """One bdry-ACK or flush-ACK exchange between all MCs (§IV-B)."""
        return 2.0 * self.noc_cycles

    @property
    def wpq_flush_cycles_per_entry(self) -> float:
        """Drain *rate* of one WPQ entry into PM: the PM write bandwidth,
        spread over the MC channels.  (The PM write *latency* is paid once
        per flush, not per entry — writes pipeline across banks.)"""
        per_entry_ns = self.mc.wpq_entry_bytes / self.pm.write_bw_gbps
        return self.ns_to_cycles(per_entry_ns) / self.mc.channels_per_mc

    # ------------------------------------------------------------------
    # Derived configurations
    # ------------------------------------------------------------------
    def with_wpq_entries(self, entries: int) -> "SystemConfig":
        """A copy resized to ``entries`` WPQ slots (threshold tracks half,
        and the front-end buffer tracks the WPQ size, per §IV-E/§V-F1)."""
        return replace(
            self,
            mc=replace(self.mc, wpq_entries=entries),
            persist_path=replace(self.persist_path, fe_entries=entries),
            compiler=replace(self.compiler, store_threshold=entries // 2),
        )

    def with_store_threshold(self, threshold: int) -> "SystemConfig":
        return replace(self, compiler=replace(self.compiler, store_threshold=threshold))

    def with_persist_bandwidth(self, gbps: float) -> "SystemConfig":
        return replace(
            self, persist_path=replace(self.persist_path, bandwidth_gbps=gbps)
        )

    def with_mcs(self, n_mcs: int) -> "SystemConfig":
        return replace(self, mc=replace(self.mc, n_mcs=n_mcs))

    def with_victim_policy(self, policy: str) -> "SystemConfig":
        return replace(self, victim_policy=policy)

    def with_memory_backend(self, backend: MemoryBackendConfig) -> "SystemConfig":
        return replace(self, pm=backend)

    def without_dram_cache(self) -> "SystemConfig":
        """The ideal-PSP machine of Fig. 9: DRAM is plain main memory, so
        the LLC DRAM cache in front of PM disappears."""
        return replace(self, dram_cache_enabled=False)

    def describe(self) -> Dict[str, str]:
        """Human-readable rows reproducing Table I."""
        pp = self.persist_path
        return {
            "Processor": "%d-core %d-width OoO at %.0f GHz"
            % (self.cores, self.issue_width, self.clock_ghz),
            "L1 DCache": "%dKB/core, %d-way, %dB block, %d cycles"
            % (
                self.l1d.size_bytes // 1024,
                self.l1d.ways,
                self.l1d.block_bytes,
                self.l1d.latency_cycles,
            ),
            "L2 Cache": "%dMB shared, %d-way, %dB block, %d cycles"
            % (
                self.l2.size_bytes // (1024 * 1024),
                self.l2.ways,
                self.l2.block_bytes,
                self.l2.latency_cycles,
            ),
            "DRAM Cache (LLC)": "direct-mapped %dGB"
            % (self.dram_cache.size_bytes // (1024 ** 3),),
            "PMEM": "read/write=%.0fns/%.0fns" % (self.pm.read_ns, self.pm.write_ns),
            "Memory Controller": "%d MCs, %d channels/MC, %d-entry %dB WPQ"
            % (
                self.mc.n_mcs,
                self.mc.channels_per_mc,
                self.mc.wpq_entries,
                self.mc.wpq_entry_bytes,
            ),
            "Persist Path": "%.0fns worst-case latency and %.0fGB/s bandwidth"
            % (pp.latency_ns, pp.bandwidth_gbps),
            "Front-end Buffer": "%d-entry FIFO queue" % (pp.fe_entries,),
        }


#: Table III — CXL device presets.  The first three are NVDIMM devices whose
#: parameters come from a published CXL characterization; the fourth is a
#: CXL-attached Optane PMEM with an extra 70 ns interconnect hop.
CXL_PRESETS: Dict[str, MemoryBackendConfig] = {
    "CXL-I": MemoryBackendConfig(
        name="CXL-I", read_ns=158.0, write_ns=120.0,
        read_bw_gbps=38.4, write_bw_gbps=38.4,
    ),
    "CXL-II": MemoryBackendConfig(
        name="CXL-II", read_ns=223.0, write_ns=139.0,
        read_bw_gbps=19.2, write_bw_gbps=19.2,
    ),
    "CXL-III": MemoryBackendConfig(
        name="CXL-III", read_ns=348.0, write_ns=241.0,
        read_bw_gbps=25.6, write_bw_gbps=25.6,
    ),
    # 245/160 ns in Table III == Optane's 175/90 ns plus the 70 ns CXL hop.
    "CXL-PMem": MemoryBackendConfig(
        name="CXL-PMem", read_ns=175.0, write_ns=90.0,
        read_bw_gbps=6.6, write_bw_gbps=2.3, extra_link_ns=70.0,
    ),
}

DEFAULT_CONFIG = SystemConfig()
