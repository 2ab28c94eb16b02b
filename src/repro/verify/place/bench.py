"""Minimization cost/benefit measurement.

For each benchmark: compile normally, minimize, and measure both
variants through the same timing model ``repro bench`` uses — the
LightWSP slowdown over the memory-mode baseline.  The artifact records,
per program:

* the static footprint delta (boundaries, instrumentation stores,
  removal percentage), and
* the slowdown delta (minimization can only remove PC-checkpointing
  stores and checkpoints, so the delta is never positive beyond noise —
  and the timing model has no noise), and
* for the deterministic single-threaded programs, the filtered trace
  digests of both variants, which must be byte-identical: minimization
  does not touch program semantics.

``repro verify --minimize --bench PATH`` writes it; the committed copy
lives at ``benchmarks/results/placement_minimize.json``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ...analysis.experiments import ExperimentContext, trace_of
from ...compiler.pipeline import compile_program
from ...config import DEFAULT_CONFIG, CompilerConfig
from ...runtime.backends import MEMORY_MODE
from ...sim.engine import simulate
from ...workloads.suite import BENCHMARKS
from .differential import trace_digest
from .minimize import minimize_compiled
from .report import PLACE_VERSION

__all__ = ["PLACEMENT_BENCH_BENCHMARKS", "placement_bench"]

#: programs with provably-removable boundaries (nested storing loops
#: whose inner boundary already cuts every storing cycle) plus two
#: controls where the compiler's placement is already minimal
PLACEMENT_BENCH_BENCHMARKS: Tuple[str, ...] = (
    "lbm", "ssca2", "mg", "cg", "milc", "bzip2", "mcf",
)

_MAX_TRACE_STEPS = 12_000_000


def placement_bench(
    benchmarks: Optional[Tuple[str, ...]] = None,
    config: Optional[CompilerConfig] = None,
    scale: float = 0.05,
) -> Dict:
    """Measure minimization's static and timing effect; JSON payload."""
    from ...runtime import get_backend

    config = config or CompilerConfig()
    policy = get_backend(None).policy  # lightwsp-lrpo
    names = benchmarks or PLACEMENT_BENCH_BENCHMARKS
    ctx = ExperimentContext(
        scale=scale, config=replace(DEFAULT_CONFIG, compiler=config),
        benchmarks=names,
    )
    rows: List[Dict] = []
    for name in names:
        bench = BENCHMARKS[name]
        entries = bench.entries()
        base_cycles = ctx.run(name, MEMORY_MODE).cycles
        base = ctx.compiled(name)
        slow_base = ctx.run(name, policy).cycles / base_cycles

        # minimize_compiled edits its program in place, so the minimized
        # variant is compiled and traced outside the context's cache
        minimized = compile_program(
            bench.build(scale=scale), config, verify=False
        )
        mreport = minimize_compiled(minimized)
        slow_min = simulate(
            trace_of(minimized.program, entries, _MAX_TRACE_STEPS),
            ctx.config, policy,
        ).cycles / base_cycles
        digests = None
        if len(entries) == 1:
            digests = {
                "base": trace_digest(base),
                "minimized": trace_digest(minimized),
            }
        rows.append({
            "benchmark": name,
            "boundaries_base": base.stats.boundaries,
            "boundaries_minimized": minimized.stats.boundaries,
            "removed": mreport.removed,
            "removed_pct": round(mreport.removed_pct, 2),
            "instrumentation_stores_base":
                base.stats.instrumentation_stores,
            "instrumentation_stores_minimized":
                minimized.stats.instrumentation_stores,
            "slowdown_base": round(slow_base, 6),
            "slowdown_minimized": round(slow_min, 6),
            "slowdown_delta": round(slow_min - slow_base, 6),
            "trace_digests": digests,
            "digests_match": (
                None if digests is None
                else digests["base"] == digests["minimized"]
            ),
        })
    return {
        "kind": "repro-placement-bench",
        "version": PLACE_VERSION,
        "scale": scale,
        "threshold": config.store_threshold,
        "policy": policy.name,
        "rows": rows,
    }
