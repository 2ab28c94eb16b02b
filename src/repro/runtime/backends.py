"""The concrete backends: every scheme's policy + runtime, defined once.

Each scheme is one :class:`~repro.runtime.backend.PersistBackend`
registered here: its timing policy (replayed by the shared engine) and
its functional crash semantics (executed by the persistence machine,
fault injector and KV store).  The comment above each policy maps the
paper's characterization of the scheme (§II-C2, §V) onto its knobs.

Fault-class capabilities are literal tuples (kept a subset of
:data:`repro.faults.model.FAULT_CLASSES` by test) rather than imports,
so this module never pulls the fault subsystem into the import chain.
"""

from __future__ import annotations

from .backend import PersistBackend, register
from .policy import SchemePolicy
from .runtime import (
    EadrRuntime,
    EagerUndoRuntime,
    LrpoRuntime,
    VolatileCacheRuntime,
)

__all__ = [
    "LIGHTWSP",
    "CWSP",
    "CAPRI",
    "PPA",
    "PSP_IDEAL",
    "MEMORY_MODE",
    "LIGHTWSP_LRPO",
    "CWSP_EAGER",
    "CAPRI_BACKEND",
    "PPA_BACKEND",
    "PSP_BACKEND",
    "MEMORY_MODE_BACKEND",
]

#: every fault class is meaningful against the full gated protocol
_LRPO_FAULTS = (
    "clean_cut", "torn_cut", "drained_cut",
    "msg_drop", "msg_delay", "msg_dup", "skew_cut", "nested_cut",
)
#: eager-undo schemes have no boundary message layer, no battery-drained
#: WPQ, and no per-MC skew surface — cuts (plain and nested) remain
_EAGER_FAULTS = ("clean_cut", "nested_cut")


# ----------------------------------------------------------------------
# timing policies (one per scheme)
# ----------------------------------------------------------------------

# LightWSP (§III):
# * every store (data, checkpoint, PC-checkpointing boundary) places one
#   8-byte entry on the non-temporal persist path (`entry_factor=1`);
# * WPQs are gated: entries quarantine per region and flush via the
#   commit pipeline, i.e. lazy region-level persist ordering (§III-B);
# * the core never waits at a region boundary (`boundary_wait=False`);
#   the only stalls are front-end-buffer back-pressure when the path or
#   WPQ cannot keep up.
# Hardware cost (§V-G4): a 2-byte flush ID per MC; everything else (WCB
# as front-end buffer, battery-backed WPQ) already exists.
LIGHTWSP = SchemePolicy(
    name="LightWSP",
    persists=True,
    entry_factor=1,
    gated=True,
    boundary_wait=False,
    drain_factor=1.0,
    uses_dram_cache=True,
    snoop=True,
)

# cWSP (ISCA'24), the state of the art of Fig. 10.  It forms idempotent
# regions (no checkpoint stores: re-executing an interrupted region
# reproduces its outputs) and persists speculatively across region
# boundaries, undoing via hardware undo logs on a mis-speculated power
# failure:
# * idempotent regions, no instrumentation: the original binary runs
#   with hardware-tracked region markers; idempotent regions are short
#   because anti-dependences force cuts (`implicit_region_stores=16`);
# * speculative persistence: stores drain to PM immediately and never
#   wait for older regions (`gated=False`, `boundary_wait=False`);
# * undo-logging delay: every PM write first copies the old value;
#   dedicated hardware mitigates it but it still inflates the drain
#   (`drain_factor=1.25`), which is why cWSP degrades on write-intensive
#   workloads (§II-C2);
# * core-MC speculation tracking: recurring messages keep the region
#   persistence status coherent (`region_comm_cycles=6`).
# Net effect: a slightly better average slowdown than LightWSP (5.7% vs
# 8.5% in Fig. 10, no checkpoint-store overhead) at the price of
# intrusive core and MC changes.
CWSP = SchemePolicy(
    name="cWSP",
    persists=True,
    entry_factor=1,
    gated=False,
    boundary_wait=False,
    drain_factor=1.25,
    region_comm_cycles=6.0,
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=16,
)

# Capri (HPDC'22): a separate L1-to-PM persist path with hardware
# redo+undo logging:
# * 64-byte granularity: every 8 B store pushes a whole cacheline down
#   the persist path, an 8x bandwidth amplification (`entry_factor=8`).
#   This is what buries Capri at the practical 4 GB/s path bandwidth
#   (Fig. 7); with its original 32 GB/s assumption it would sit near 20%;
# * hardware-delineated failure-atomic regions: front-end/back-end
#   buffers bound the region size (`implicit_region_stores`); the
#   original binary runs uninstrumented, Capri's own compiler pass only
#   marks boundaries;
# * multi-MC ordering by stopping traffic: at each region end the path
#   stalls until the previous region is fully flushed to PM
#   (`boundary_wait=True`, `wait_for="flush"`).
# Hardware cost (§V-G4): 54 KB per core for the redo+undo buffers.
CAPRI = SchemePolicy(
    name="Capri",
    persists=True,
    entry_factor=8,          # 64 B of path traffic per 8 B store
    gated=False,             # per-region eager persistence (own buffers)
    boundary_wait=True,
    wait_for="flush",        # stops traffic until flushed *in PM*
    drain_factor=8.0,        # 64 B per entry hits the PM drain too
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=32,
)

# PPA (MICRO'23) replays unpersisted stores after a failure, which needs
# store integrity: operand registers of committed stores stay pinned in
# the physical register file until the stores persist:
# * hardware-delineated regions: a region ends when the PRF can no
#   longer pin registers, modelled as a fixed store budget
#   (`implicit_region_stores=24`); the original binary runs, with no
#   checkpoint stores;
# * eager writeback: every store starts persisting as soon as it reaches
#   L1 (`gated=False`), overlapping only with its own region;
# * boundary stall: at each implicit boundary the pipeline stalls until
#   all the region's stores reach the battery-backed WPQ domain
#   (`boundary_wait=True`).  This is the wait LightWSP's LRPO removes,
#   and why PPA's persistence efficiency trails in Fig. 8 whenever
#   regions are short.
# Hardware cost (§V-G4): 337 B per core for store-integrity tracking,
# plus renaming-stage critical-path pressure (not a timing effect here).
PPA = SchemePolicy(
    name="PPA",
    persists=True,
    entry_factor=1,
    gated=False,
    boundary_wait=True,
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=24,
)

# The ideal partial-system persistence of Fig. 9 (§V-D), after an
# optimized BBB (HPCA'21) whose performance approaches Intel eADR:
# persist barriers are free because the whole cache hierarchy is in the
# battery-backed domain (`persists=False`: no persist path, no
# boundaries, no stalls).  What it cannot do is use DRAM as a last-level
# cache: no battery saves terabytes of DRAM, so persistent data lives in
# PM behind the SRAM caches only (`uses_dram_cache=False`).  Every L2
# miss pays full PM latency, which is the whole 51.2% average gap Fig. 9
# reports for memory-intensive applications.
PSP_IDEAL = SchemePolicy(
    name="PSP-Ideal",
    persists=False,
    uses_dram_cache=False,
    snoop=False,
)

# The evaluation baseline (§V-A): Optane PMem memory mode running the
# original binary.  DRAM is a direct-mapped cache over PM, as in
# LightWSP, but nothing persists crash-consistently: no persist path, no
# WPQ gating, no region boundaries.  Every slowdown is normalized to it.
MEMORY_MODE = SchemePolicy(
    name="memory-mode",
    persists=False,
    uses_dram_cache=True,
    snoop=False,
)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------

LIGHTWSP_LRPO = register(PersistBackend(
    name="lightwsp-lrpo",
    policy=LIGHTWSP,
    runtime_cls=LrpoRuntime,
    recovers=True,
    fault_classes=_LRPO_FAULTS,
    validates_defenses=True,
    description="LightWSP: WPQ quarantine + lazy region-level persist "
                "ordering (boundary broadcast/ACK, flush-ID commits)",
))

CWSP_EAGER = register(PersistBackend(
    name="cwsp-eager",
    policy=CWSP,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="cWSP: eager speculative persistence, hardware undo "
                "logs rolled back on a mis-speculated power failure",
))

CAPRI_BACKEND = register(PersistBackend(
    name="capri",
    policy=CAPRI,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="Capri: cacheline-granular eager persist path with "
                "redo+undo buffers (undo rollback at a crash)",
))

PPA_BACKEND = register(PersistBackend(
    name="ppa",
    policy=PPA,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="PPA: eager writeback with store-integrity replay "
                "(modelled as undo-logged write-through)",
))

PSP_BACKEND = register(PersistBackend(
    name="psp",
    policy=PSP_IDEAL,
    runtime_cls=EadrRuntime,
    recovers=False,
    fault_classes=(),
    description="ideal PSP/eADR: every store durable at retire — "
                "partial-region state persists, so whole-system "
                "recovery is NOT crash-consistent",
))

MEMORY_MODE_BACKEND = register(PersistBackend(
    name="memory-mode",
    policy=MEMORY_MODE,
    runtime_cls=VolatileCacheRuntime,
    recovers=False,
    fault_classes=(),
    description="memory-mode: DRAM-cached, nothing persists before a "
                "clean shutdown — acked writes are lost at a crash",
))
