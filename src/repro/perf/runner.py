"""The ``repro bench`` runner: execute the curated entries, emit
``BENCH_<tag>.json``.

Every metric except wall-clock time is **deterministic** — simulated
cycles, persist traffic, and request latencies come out of the timing
model, not the host — so two runs of the same tree produce the same
numbers and the regression gate (:mod:`repro.perf.regress`) compares
real quantities, not noise.  Wall-clock seconds are recorded per entry
(the harness's own cost trajectory matters too) but are informational
only and never gate.

Entries are independent, so ``jobs > 1`` fans them out one-per-worker
through :mod:`repro.parallel`; the report is identical for every
``jobs`` value apart from the wall-time fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .suite import BenchSpec, select_specs

__all__ = ["BenchEntry", "BenchReport", "run_bench", "format_report"]

#: schema version of the BENCH_*.json artifact
BENCH_VERSION = 1

#: smoke sizing: small enough for a CI gate, large enough to cross the
#: interesting paths (compaction, multi-epoch serving)
SMOKE_SCALE = 0.02
SMOKE_OPS = 200
SMOKE_KEYSPACE = 32


@dataclass
class BenchEntry:
    """One measured entry."""

    name: str
    kind: str
    metrics: Dict[str, float]
    wall_s: float

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "metrics": dict(self.metrics),
            "wall_s": self.wall_s,
        }


@dataclass
class BenchReport:
    """Everything one ``repro bench`` run measured."""

    seed: int
    scale: float
    smoke: bool
    jobs: int
    entries: List[BenchEntry] = field(default_factory=list)
    wall_s_total: float = 0.0

    def to_json(self) -> Dict:
        return {
            "kind": "repro-bench",
            "version": BENCH_VERSION,
            "seed": self.seed,
            "scale": self.scale,
            "smoke": self.smoke,
            "jobs": self.jobs,
            "entries": {e.name: e.to_json() for e in self.entries},
            "wall_s_total": self.wall_s_total,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _run_sim_entry(spec: BenchSpec, scale: float) -> Dict[str, float]:
    from ..analysis import ExperimentContext
    from ..runtime import get_backend

    ctx = ExperimentContext(scale=scale, benchmarks=[spec.target])
    metrics = ctx.measure(spec.target, get_backend(None).policy)  # lightwsp-lrpo
    # Static placement footprint (ungated observability: the placement
    # minimizer's effect shows up here and in the regress diff notes).
    stats = ctx.compiled(spec.target).stats
    metrics["boundaries"] = float(stats.boundaries)
    metrics["instrumentation_stores"] = float(stats.instrumentation_stores)
    return metrics


def _run_store_entry(
    spec: BenchSpec, seed: int, smoke: bool
) -> Dict[str, float]:
    from ..store import run_serve

    report = run_serve(
        workload=spec.target,
        ops=SMOKE_OPS if smoke else spec.ops,
        shards=spec.shards,
        seed=seed,
        keyspace=SMOKE_KEYSPACE if smoke else spec.keyspace,
        batch=spec.batch,
        dist="zipfian",
    )
    lat = report.latency
    return {
        "throughput_mops": report.throughput_mops,
        "p50": lat["p50"],
        "p95": lat["p95"],
        "p99": lat["p99"],
        "mean": lat["mean"],
        "ops": float(report.total_ops),
        "sim_ns": report.sim_ns,
        "commits": float(sum(s.commits for s in report.shards)),
        "epochs": float(sum(s.epochs for s in report.shards)),
    }


def run_bench(
    entries: Optional[List[str]] = None,
    smoke: bool = False,
    seed: int = 0,
    scale: float = 0.25,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace_path: Optional[str] = None,
) -> BenchReport:
    """Run the curated benchmark entries and return the report.

    ``smoke`` shrinks every entry to CI size (and restricts the default
    entry list to the smoke subset); ``entries`` names an explicit
    subset instead.  ``jobs`` fans entries out one per worker.
    ``trace_path`` additionally records the run as a trace.v1 JSONL
    artifact (bench_start, one bench_entry per entry, bench_end) —
    note the wall_s fields there are informational, so a bench trace
    is *not* byte-reproducible across runs, unlike every other trace
    the system writes."""
    from ..parallel import fan_out
    from ..trace import JsonlTrace, NullTrace

    say = progress or (lambda msg: None)
    specs = select_specs(entries, smoke=smoke)
    sim_scale = min(scale, SMOKE_SCALE) if smoke else scale

    # Import the measurement dependencies in the parent before forking:
    # workers inherit warm modules, so per-entry wall_s measures the
    # run, not a cold import of the analysis/store planes per worker.
    from .. import analysis as _analysis  # noqa: F401
    from .. import store as _store  # noqa: F401
    from ..runtime import get_backend as _get_backend  # noqa: F401
    from ..workloads import suite as _workload_suite  # noqa: F401

    def measure(spec: BenchSpec) -> BenchEntry:
        t0 = time.perf_counter()
        if spec.kind == "sim":
            metrics = _run_sim_entry(spec, sim_scale)
        else:
            metrics = _run_store_entry(spec, seed, smoke)
        return BenchEntry(
            name=spec.name, kind=spec.kind, metrics=metrics,
            wall_s=round(time.perf_counter() - t0, 4),
        )

    trace = JsonlTrace(trace_path) if trace_path else NullTrace()
    trace.emit(
        "bench_start", seed=seed, scale=sim_scale, smoke=smoke,
        jobs=max(1, jobs), entries=[spec.name for spec in specs],
    )
    t0 = time.perf_counter()
    measured = fan_out(measure, specs, jobs=jobs, label="bench")
    report = BenchReport(
        seed=seed, scale=sim_scale, smoke=smoke, jobs=max(1, jobs),
        entries=measured,
        wall_s_total=round(time.perf_counter() - t0, 4),
    )
    for entry in report.entries:
        say("%-16s %s" % (entry.name, _one_line(entry)))
        trace.emit(
            "bench_entry", name=entry.name, kind=entry.kind,
            metrics=dict(entry.metrics), wall_s=entry.wall_s,
        )
    trace.emit(
        "bench_end", entries=len(report.entries),
        wall_s_total=report.wall_s_total,
    )
    trace.close()
    return report


def _one_line(entry: BenchEntry) -> str:
    m = entry.metrics
    if entry.kind == "sim":
        return (
            "%(cycles)12.0f cycles  slowdown %(slowdown)5.3f  "
            "%(persist_entries)7.0f persist-ent  eff %(efficiency)6.2f%%"
            % m
        )
    return (
        "%(throughput_mops)8.2f Mops/s  p50 %(p50)6.0f  p95 %(p95)6.0f  "
        "p99 %(p99)6.0f ns" % m
    )


def format_report(report: BenchReport) -> str:
    lines = [
        "bench: %d entr%s, seed=%d scale=%.3g%s (jobs=%d, %.1fs wall)"
        % (len(report.entries),
           "y" if len(report.entries) == 1 else "ies",
           report.seed, report.scale,
           " [smoke]" if report.smoke else "", report.jobs,
           report.wall_s_total),
    ]
    for entry in report.entries:
        lines.append("  %-16s %s" % (entry.name, _one_line(entry)))
    return "\n".join(lines)
