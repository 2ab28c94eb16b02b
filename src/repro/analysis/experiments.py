"""Experiment drivers: one function per table/figure of the evaluation.

Each driver returns a :class:`FigureResult` — rows of per-benchmark (or
per-suite) values plus aggregate series — that the benchmark harness
prints and EXPERIMENTS.md records.  All drivers share an
:class:`ExperimentContext`, which caches generated traces so that, e.g.,
the four schemes of Fig. 7 replay the same dynamic execution.

Which trace a scheme replays (see DESIGN.md):

* **memory-mode baseline, PSP-Ideal, Capri, PPA, cWSP** — the original
  (uninstrumented) binary's trace; Capri/PPA/cWSP regions are hardware-
  delineated (``implicit_region_stores``);
* **LightWSP** — the LightWSP-compiled binary's trace (checkpoint and
  PC-checkpointing boundary stores included), honouring the store-count
  threshold under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.interp import run_single, run_threads
from ..compiler.ir import Program
from ..compiler.pipeline import CompiledProgram, compile_program
from ..config import CXL_PRESETS, DEFAULT_CONFIG, SystemConfig, VictimPolicy
from ..runtime.backends import CAPRI, CWSP, LIGHTWSP, MEMORY_MODE, PPA, PSP_IDEAL
from ..runtime.policy import SchemePolicy
from ..sim.engine import SimResult, simulate
from ..trace import Trace, count_events
from ..workloads.suite import BENCHMARKS, MEMORY_INTENSIVE, Benchmark
from .metrics import geomean, per_suite
from . import cacti, hwcost

__all__ = [
    "ExperimentContext",
    "FigureResult",
    "ablation_lrpo",
    "ablation_compiler",
    "fig7_slowdown",
    "fig8_efficiency",
    "fig9_psp_vs_wsp",
    "fig10_cwsp",
    "fig11_wpq_size",
    "fig12_threshold",
    "table2_conflict_rate",
    "fig13_victim_policy",
    "fig14_miss_rate",
    "fig15_bandwidth",
    "fig16_threads",
    "fig17_cxl",
    "fig18_wpq_hits",
    "table1_config",
    "table3_cxl",
    "trace_of",
    "vg2_cam_latency",
    "vg3_region_stats",
    "vg4_hw_cost",
]

_MAX_TRACE_STEPS = 12_000_000


def trace_of(
    program: Program,
    entries: Sequence[Tuple[str, Sequence[int]]] = (("main", ()),),
    max_steps: int = 4_000_000,
) -> Trace:
    """The dynamic trace of a program (single- or multi-thread); pass
    ``compiled.program`` for the instrumented binary."""
    if len(entries) == 1:
        fname, args = entries[0]
        trace, _ = run_single(program, fname, args=args, max_steps=max_steps)
        return trace
    trace, _ = run_threads(program, entries, max_steps=max_steps)
    return trace


@dataclass
class FigureResult:
    """Rows + aggregates for one table/figure."""

    figure: str
    series: Tuple[str, ...]
    rows: List[Dict] = field(default_factory=list)
    per_suite: Dict[str, Dict[str, float]] = field(default_factory=dict)
    overall: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def aggregate(self, agg=geomean) -> None:
        """Fill per_suite/overall aggregates of every series column."""
        suites: Dict[str, List[Dict]] = {}
        for row in self.rows:
            suites.setdefault(row["suite"], []).append(row)
        self.per_suite = {
            suite: {
                s: agg([r[s] for r in rows_ if s in r])
                for s in self.series
            }
            for suite, rows_ in suites.items()
        }
        self.overall = {
            s: agg([r[s] for r in self.rows if s in r]) for s in self.series
        }


class ExperimentContext:
    """Shared program and trace cache + defaults for one experiment
    campaign, and the one place that measures a scheme on a benchmark.

    ``scale`` multiplies every benchmark's dynamic op count: 1.0 is the
    documented full size (~30k-200k instructions per app), smaller values
    keep pytest-benchmark runs quick.
    """

    def __init__(
        self,
        scale: float = 1.0,
        config: SystemConfig = DEFAULT_CONFIG,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> None:
        self.scale = scale
        self.config = config
        names = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)
        unknown = [n for n in names if n not in BENCHMARKS]
        if unknown:
            raise KeyError("unknown benchmarks: %s" % ", ".join(unknown))
        self.names = names
        self._base: Dict[Tuple, Trace] = {}
        self._programs: Dict[Tuple, CompiledProgram] = {}
        self._compiled: Dict[Tuple, Trace] = {}

    # ------------------------------------------------------------------
    def benchmarks(self) -> List[Benchmark]:
        return [BENCHMARKS[n] for n in self.names]

    def baseline_trace(
        self, name: str, threads: Optional[int] = None
    ) -> Trace:
        bench = BENCHMARKS[name]
        key = (name, threads or bench.threads)
        if key not in self._base:
            program = bench.build(scale=self.scale, threads=threads)
            self._base[key] = trace_of(
                program, bench.entries(threads), _MAX_TRACE_STEPS
            )
        return self._base[key]

    def compiled(
        self,
        name: str,
        config: Optional[SystemConfig] = None,
        threads: Optional[int] = None,
    ) -> CompiledProgram:
        """The LightWSP-compiled binary, compiled once per benchmark,
        thread count and compiler configuration."""
        bench = BENCHMARKS[name]
        cc = (config or self.config).compiler
        key = (name, threads or bench.threads, cc)
        if key not in self._programs:
            program = bench.build(scale=self.scale, threads=threads)
            self._programs[key] = compile_program(program, cc)
        return self._programs[key]

    def compiled_trace(
        self,
        name: str,
        config: Optional[SystemConfig] = None,
        threads: Optional[int] = None,
    ) -> Trace:
        bench = BENCHMARKS[name]
        key = (name, threads or bench.threads, (config or self.config).compiler)
        if key not in self._compiled:
            self._compiled[key] = trace_of(
                self.compiled(name, config, threads).program,
                bench.entries(threads), _MAX_TRACE_STEPS,
            )
        return self._compiled[key]

    # ------------------------------------------------------------------
    def run(
        self,
        name: str,
        policy: SchemePolicy,
        config: Optional[SystemConfig] = None,
        threads: Optional[int] = None,
    ) -> SimResult:
        """``threads`` sets the *software* thread count; threads beyond
        ``config.cores`` hardware contexts time-share cores, as in the
        paper's Fig. 16 oversubscription study."""
        config = config or self.config
        hardware = None
        if threads is not None and threads > config.cores:
            hardware = config.cores
        if policy.name.startswith(LIGHTWSP.name):
            # LightWSP and its ablation variants replay the compiled trace
            trace = self.compiled_trace(name, config, threads)
        else:
            trace = self.baseline_trace(name, threads)
        return simulate(trace, config, policy, hardware_cores=hardware)

    def slowdown(
        self,
        name: str,
        policy: SchemePolicy,
        config: Optional[SystemConfig] = None,
        threads: Optional[int] = None,
    ) -> Tuple[float, SimResult]:
        base = self.run(name, MEMORY_MODE, config=config, threads=threads)
        res = self.run(name, policy, config=config, threads=threads)
        return res.cycles / base.cycles, res

    def measure(self, name: str, policy: SchemePolicy) -> Dict[str, float]:
        """One scheme on one benchmark as ``repro compare`` and ``repro
        bench`` report it: cycles, slowdown over memory mode, instructions,
        simulated throughput, persist-path traffic (entries, and bytes at
        the policy's entry granularity) and Eq. 1 efficiency."""
        slowdown, res = self.slowdown(name, policy)
        ns = self.config.cycles_to_ns(res.cycles)
        return {
            "cycles": res.cycles,
            "slowdown": slowdown,
            "instructions": float(res.instructions),
            "throughput_minst_s": (res.instructions / ns * 1e3) if ns else 0.0,
            "persist_entries": float(res.persist_entries),
            "persist_bytes": float(
                res.persist_entries * 8 * policy.entry_factor
            ),
            "efficiency": res.persistence_efficiency,
        }


# ----------------------------------------------------------------------
# Fig. 7 — slowdown of Capri, PPA, LightWSP vs the memory-mode baseline
# ----------------------------------------------------------------------

def fig7_slowdown(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 7",
        series=("Capri", "PPA", "LightWSP"),
        notes="Execution slowdown over Optane memory mode; paper geomeans: "
        "Capri 1.505, PPA 1.081, LightWSP 1.090.",
    )
    for bench in ctx.benchmarks():
        base = ctx.run(bench.name, MEMORY_MODE)
        row = {"benchmark": bench.name, "suite": bench.suite}
        for policy in (CAPRI, PPA, LIGHTWSP):
            row[policy.name] = ctx.run(bench.name, policy).cycles / base.cycles
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 8 — region-level persistence efficiency (Eq. 1)
# ----------------------------------------------------------------------

def fig8_efficiency(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 8",
        series=("PPA", "LightWSP"),
        notes="Eq. 1 efficiency; paper averages: PPA 89.3%, LightWSP 99.9%.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        row["PPA"] = ctx.run(bench.name, PPA).persistence_efficiency
        row["LightWSP"] = ctx.run(bench.name, LIGHTWSP).persistence_efficiency
        out.rows.append(row)
    out.aggregate(agg=lambda vals: sum(vals) / len(vals))
    return out


# ----------------------------------------------------------------------
# Fig. 9 — ideal PSP vs LightWSP on memory-intensive applications
# ----------------------------------------------------------------------

def fig9_psp_vs_wsp(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 9",
        series=("PSP-Ideal", "LightWSP"),
        notes="Memory-intensive subset; paper: PSP-Ideal 1.512 geomean "
        "(up to 2.6 on libquantum), LightWSP 1.03.",
    )
    for name in MEMORY_INTENSIVE:
        if name not in ctx.names:
            continue
        bench = BENCHMARKS[name]
        base = ctx.run(name, MEMORY_MODE)
        row = {"benchmark": name, "suite": bench.suite}
        row["PSP-Ideal"] = ctx.run(name, PSP_IDEAL).cycles / base.cycles
        row["LightWSP"] = ctx.run(name, LIGHTWSP).cycles / base.cycles
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 10 — LightWSP vs cWSP (NPB excluded, as in the paper)
# ----------------------------------------------------------------------

def fig10_cwsp(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 10",
        series=("cWSP", "LightWSP"),
        notes="Per-suite slowdown geomeans, NPB excluded; paper: cWSP "
        "1.057, LightWSP 1.085 overall.",
    )
    for bench in ctx.benchmarks():
        if bench.suite == "NPB":
            continue
        base = ctx.run(bench.name, MEMORY_MODE)
        row = {"benchmark": bench.name, "suite": bench.suite}
        row["cWSP"] = ctx.run(bench.name, CWSP).cycles / base.cycles
        row["LightWSP"] = ctx.run(bench.name, LIGHTWSP).cycles / base.cycles
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 11 — WPQ-size sensitivity (64 / 128 / 256 entries)
# ----------------------------------------------------------------------

def fig11_wpq_size(
    ctx: ExperimentContext, sizes: Sequence[int] = (256, 128, 64)
) -> FigureResult:
    out = FigureResult(
        figure="Fig. 11",
        series=tuple("WPQ-%d" % s for s in sizes),
        notes="LightWSP slowdown per WPQ size; larger WPQ (and the "
        "threshold tracking half of it) performs best.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for size in sizes:
            config = ctx.config.with_wpq_entries(size)
            sd, _ = ctx.slowdown(bench.name, LIGHTWSP, config=config)
            row["WPQ-%d" % size] = sd
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 12 — store-threshold sensitivity (16 / 32 / 64 at WPQ 64)
# ----------------------------------------------------------------------

def fig12_threshold(
    ctx: ExperimentContext, thresholds: Sequence[int] = (16, 32, 64)
) -> FigureResult:
    out = FigureResult(
        figure="Fig. 12",
        series=tuple("St-Threshold-%d" % t for t in thresholds),
        notes="Half the WPQ size (32) balances checkpoint overhead "
        "against WPQ pressure and wins.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for threshold in thresholds:
            config = ctx.config.with_store_threshold(threshold)
            sd, _ = ctx.slowdown(bench.name, LIGHTWSP, config=config)
            row["St-Threshold-%d" % threshold] = sd
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Table II — buffer-conflict rate;  Fig. 13 — victim policies;
# Fig. 14 — miss rates with/without snooping
# ----------------------------------------------------------------------

def table2_conflict_rate(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Table II",
        series=("conflict_permille",),
        notes="Front-end buffer conflicts per L1 eviction (permille); "
        "paper: ~0 for SPEC, up to 0.0031 permille for NPB.",
    )
    for bench in ctx.benchmarks():
        res = ctx.run(bench.name, LIGHTWSP)
        out.rows.append(
            {
                "benchmark": bench.name,
                "suite": bench.suite,
                "conflict_permille": res.conflict_rate * 1000.0,
            }
        )
    out.aggregate(agg=lambda vals: sum(vals) / len(vals))
    return out


_VICTIM_SERIES = {
    "Full Victim": VictimPolicy.FULL,
    "Half Victim": VictimPolicy.HALF,
    "Zero Victim": VictimPolicy.ZERO,
}


def fig13_victim_policy(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 13",
        series=tuple(_VICTIM_SERIES),
        notes="Victim-selection policies perform within noise of each "
        "other because conflicts are rare (Table II).",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for label, policy in _VICTIM_SERIES.items():
            config = ctx.config.with_victim_policy(policy)
            sd, _ = ctx.slowdown(bench.name, LIGHTWSP, config=config)
            row[label] = sd
        out.rows.append(row)
    out.aggregate()
    return out


def fig14_miss_rate(ctx: ExperimentContext) -> FigureResult:
    series = tuple(_VICTIM_SERIES) + ("Stale Load",)
    out = FigureResult(
        figure="Fig. 14",
        series=series,
        notes="L1 miss rate (%); disabling snooping (stale-load) evicts "
        "hot conflicting lines and raises the miss rate.",
    )
    policies = dict(_VICTIM_SERIES)
    policies["Stale Load"] = VictimPolicy.STALE_LOAD
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for label, policy in policies.items():
            config = ctx.config.with_victim_policy(policy)
            res = ctx.run(bench.name, LIGHTWSP, config=config)
            row[label] = res.l1_miss_rate * 100.0
        out.rows.append(row)
    out.aggregate(agg=lambda vals: sum(vals) / len(vals))
    return out


# ----------------------------------------------------------------------
# Fig. 15 — persist-path bandwidth sensitivity
# ----------------------------------------------------------------------

def fig15_bandwidth(
    ctx: ExperimentContext, bandwidths: Sequence[float] = (4.0, 2.0, 1.0)
) -> FigureResult:
    out = FigureResult(
        figure="Fig. 15",
        series=tuple("%gGB/s" % b for b in bandwidths),
        notes="Lower persist-path bandwidth fills the front-end buffer "
        "and stalls the core.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for bw in bandwidths:
            config = ctx.config.with_persist_bandwidth(bw)
            sd, _ = ctx.slowdown(bench.name, LIGHTWSP, config=config)
            row["%gGB/s" % bw] = sd
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 16 — thread-count sensitivity (multi-threaded suites)
# ----------------------------------------------------------------------

def fig16_threads(
    ctx: ExperimentContext, counts: Sequence[int] = (8, 16, 32, 64)
) -> FigureResult:
    out = FigureResult(
        figure="Fig. 16",
        series=tuple("%d-thread" % c for c in counts),
        notes="More threads contend on the two shared WPQs; overflow "
        "stays rare (§V-F5).  Overflow counts reported per row as "
        "overflows_<n>.",
    )
    for bench in ctx.benchmarks():
        if bench.threads == 1:
            continue
        row = {"benchmark": bench.name, "suite": bench.suite}
        for n in counts:
            sd, res = ctx.slowdown(bench.name, LIGHTWSP, threads=n)
            row["%d-thread" % n] = sd
            row["overflows_%d" % n] = res.overflow_flushes + res.deadlock_events
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Fig. 17 / Table III — CXL configurations
# ----------------------------------------------------------------------

def fig17_cxl(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="Fig. 17",
        series=tuple(CXL_PRESETS),
        notes="LightWSP over CXL-attached NVDIMM/PMEM devices; paper: "
        "<16% average overhead on every preset.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for label, backend in CXL_PRESETS.items():
            config = ctx.config.with_memory_backend(backend)
            sd, _ = ctx.slowdown(bench.name, LIGHTWSP, config=config)
            row[label] = sd
        out.rows.append(row)
    out.aggregate()
    return out


def table3_cxl() -> FigureResult:
    out = FigureResult(
        figure="Table III",
        series=("read_ns", "write_ns", "bw_gbps"),
        notes="CXL device presets.",
    )
    for label, backend in CXL_PRESETS.items():
        out.rows.append(
            {
                "benchmark": label,
                "suite": "CXL",
                "read_ns": backend.total_read_ns,
                "write_ns": backend.total_write_ns,
                "bw_gbps": backend.read_bw_gbps,
            }
        )
    return out


# ----------------------------------------------------------------------
# Fig. 18 — WPQ hit rate per WPQ size
# ----------------------------------------------------------------------

def fig18_wpq_hits(
    ctx: ExperimentContext, sizes: Sequence[int] = (256, 128, 64)
) -> FigureResult:
    out = FigureResult(
        figure="Fig. 18",
        series=tuple("WPQ-%d" % s for s in sizes),
        notes="WPQ hits per million instructions on LLC load misses; "
        "paper average 0.039 at WPQ-64.",
    )
    for bench in ctx.benchmarks():
        row = {"benchmark": bench.name, "suite": bench.suite}
        for size in sizes:
            config = ctx.config.with_wpq_entries(size)
            res = ctx.run(bench.name, LIGHTWSP, config=config)
            row["WPQ-%d" % size] = res.wpq_hits_per_minst()
        out.rows.append(row)
    out.aggregate(agg=lambda vals: sum(vals) / len(vals))
    return out


# ----------------------------------------------------------------------
# Ablations: the design choices DESIGN.md calls out
# ----------------------------------------------------------------------

#: LightWSP with LRPO disabled: the core stalls at every region boundary
#: until the region has flushed to PM — the "naive use of sfence at each
#: region boundary" that §III-B argues against.
LIGHTWSP_NAIVE = replace(
    LIGHTWSP,
    name="LightWSP-naive-wait",
    gated=False,
    boundary_wait=True,
    wait_for="flush",
)


def ablation_lrpo(ctx: ExperimentContext) -> FigureResult:
    """LRPO vs stalling at each boundary (same compiled binary)."""
    out = FigureResult(
        figure="Ablation: LRPO",
        series=("LightWSP", "naive-wait"),
        notes="Identical compiled binaries; only the persist-ordering "
        "mechanism differs.  LRPO's entire benefit is the gap.",
    )
    for bench in ctx.benchmarks():
        base = ctx.run(bench.name, MEMORY_MODE)
        row = {"benchmark": bench.name, "suite": bench.suite}
        row["LightWSP"] = ctx.run(bench.name, LIGHTWSP).cycles / base.cycles
        row["naive-wait"] = (
            ctx.run(bench.name, LIGHTWSP_NAIVE).cycles / base.cycles
        )
        out.rows.append(row)
    out.aggregate()
    return out


#: compiler-pass ablation variants (name -> CompilerConfig changes)
_COMPILER_VARIANTS = {
    "default": {},
    "no-unroll": {"unroll_limit": 1, "speculative_unroll": False},
    "no-prune": {"prune_checkpoints": False},
    "no-merge": {"merge_regions": False},
}


def ablation_compiler(ctx: ExperimentContext) -> FigureResult:
    """Slowdown under each compiler-pass ablation (plus the dynamic
    instrumentation overhead each variant pays, as extra columns)."""
    out = FigureResult(
        figure="Ablation: compiler passes",
        series=tuple(_COMPILER_VARIANTS),
        notes="Region-size extension (unrolling) and checkpoint pruning "
        "exist to cut checkpoint stores; merging enlarges regions.",
    )
    for bench in ctx.benchmarks():
        base = ctx.run(bench.name, MEMORY_MODE)
        base_instr = count_events(ctx.baseline_trace(bench.name)).instructions
        row = {"benchmark": bench.name, "suite": bench.suite}
        for label, changes in _COMPILER_VARIANTS.items():
            config = replace(
                ctx.config, compiler=replace(ctx.config.compiler, **changes)
            )
            res = ctx.run(bench.name, LIGHTWSP, config=config)
            row[label] = res.cycles / base.cycles
            row["overhead_%s" % label] = (
                (res.instructions - base_instr) / base_instr * 100.0
                if base_instr
                else 0.0
            )
        out.rows.append(row)
    out.aggregate()
    return out


# ----------------------------------------------------------------------
# Table I, §V-G2/3/4
# ----------------------------------------------------------------------

def table1_config(config: SystemConfig = DEFAULT_CONFIG) -> Dict[str, str]:
    return config.describe()


def vg2_cam_latency(config: SystemConfig = DEFAULT_CONFIG) -> Dict[str, float]:
    model = cacti.CamModel(
        entries=config.mc.wpq_entries, entry_bytes=config.mc.wpq_entry_bytes
    )
    return {
        "search_ns": model.search_ns(),
        "search_cycles": model.search_cycles(config.clock_ghz),
    }


def vg3_region_stats(ctx: ExperimentContext) -> FigureResult:
    out = FigureResult(
        figure="§V-G3",
        series=(
            "instrumentation_pct",
            "net_overhead_pct",
            "insts_per_region",
            "stores_per_region",
        ),
        notes="Dynamic instrumentation (checkpoint + boundary stores as a "
        "share of instructions; paper: +7.03%) and region shape (paper: "
        "91.33 insts, 11.29 stores per region).  net_overhead_pct "
        "compares against the *non-unrolled* baseline binary and can go "
        "negative: LightWSP's region-size extension unrolls loops the "
        "baseline build leaves rolled.",
    )
    for bench in ctx.benchmarks():
        base = count_events(ctx.baseline_trace(bench.name))
        comp = count_events(ctx.compiled_trace(bench.name))
        net = (
            (comp.instructions - base.instructions) / base.instructions * 100.0
            if base.instructions
            else 0.0
        )
        instrumentation = (
            comp.instrumentation / comp.instructions * 100.0
            if comp.instructions
            else 0.0
        )
        out.rows.append(
            {
                "benchmark": bench.name,
                "suite": bench.suite,
                "instrumentation_pct": instrumentation,
                "net_overhead_pct": net,
                "insts_per_region": comp.instructions_per_region(),
                "stores_per_region": comp.stores_per_region(),
            }
        )
    out.aggregate(agg=lambda vals: sum(vals) / len(vals))
    return out


def vg4_hw_cost(config: SystemConfig = DEFAULT_CONFIG) -> Dict[str, str]:
    return {
        name: cost.per_core_str() + " per core (" + cost.notes + ")"
        for name, cost in hwcost.cost_table(config).items()
    }
