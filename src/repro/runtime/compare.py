"""``repro compare``: one workload, every backend, both planes.

For each backend the driver runs

* the **timing plane** — :meth:`ExperimentContext.measure
  <repro.analysis.experiments.ExperimentContext.measure>`, the row
  ``repro run`` and Fig. 7 report: cycles, slowdown vs the memory-mode
  baseline, persist-path traffic, persistence efficiency.  As in Fig. 7,
  the baselines replay the uninstrumented binary and LightWSP the
  compiled one;
* the **functional plane** — the benchmark executes on a
  :class:`~repro.core.machine.PersistentMachine` with the backend's
  runtime, power is cut mid-region, recovery runs, and the final
  persisted image is checked against the failure-free reference.  A
  backend whose scheme is crash-consistent (LRPO, the eager-undo
  family) reports ``recovered``; PSP/eADR and memory-mode report the
  divergence their schemes actually produce.

Everything is deterministic: fixed benchmark, fixed scale, crash point
derived from the failure-free boundary schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..config import DEFAULT_CONFIG, SystemConfig
from .backend import BACKENDS, PersistBackend, get_backend

__all__ = ["CompareRow", "CompareReport", "compare_backends", "format_compare"]

#: default comparison workload: single-threaded, deterministic, small
DEFAULT_BENCHMARK = "bzip2"
SMOKE_SCALE = 0.01


@dataclass
class CompareRow:
    """One backend's line in the comparison table."""

    backend: str
    # timing plane (ExperimentContext.measure)
    cycles: float = 0.0
    slowdown: float = 0.0            # vs memory-mode
    instructions: float = 0.0
    throughput_minst_s: float = 0.0
    persist_entries: float = 0.0
    persist_bytes: float = 0.0
    efficiency: float = 100.0        # Eq. 1
    # functional plane (mid-region crash probe)
    crash_step: int = 0
    recovery: str = "n/a"
    recovered: bool = False


@dataclass
class CompareReport:
    benchmark: str
    scale: float
    crash_step: int
    rows: List[CompareRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every backend that *claims* crash consistency delivered it at
        the probe point.  Non-recovering backends (PSP, memory-mode) are
        reported but never gate: whether a given probe point exposes
        their unsoundness is workload-dependent (the oracle tests pin a
        guaranteed-divergent case)."""
        return all(
            row.recovered
            for row in self.rows
            if get_backend(row.backend).recovers
        )


def _probe_recovery(
    compiled,
    backend: PersistBackend,
    crash_step: int,
    config: SystemConfig,
    row: CompareRow,
) -> None:
    from ..core.failure import reference_pm
    from ..core.machine import PersistentMachine

    reference = reference_pm(compiled, config=config, backend=backend)
    machine = PersistentMachine(compiled, config=config, backend=backend)
    row.crash_step = crash_step
    try:
        machine.run(steps=crash_step)
        if machine.finished:
            row.recovery = "n/a (program finished before probe)"
            row.recovered = True
            return
        machine.crash()
        if not machine.run():
            row.recovery = "FAILED (did not finish after recovery)"
            return
    except Exception as exc:
        # a scheme without sound recovery may resume into garbage state
        # (zeroed registers, missing checkpoint slots) and die arbitrarily
        row.recovery = "FAILED (%s: %s)" % (type(exc).__name__, exc)
        return
    if machine.pm_data() == reference:
        row.recovery = "recovered (image == reference)"
        row.recovered = True
    else:
        diff = len(
            set(machine.pm_data().items()) ^ set(reference.items())
        )
        row.recovery = "DIVERGED (%d word(s) off reference)" % diff


def compare_backends(
    benchmark: str = DEFAULT_BENCHMARK,
    scale: float = 0.05,
    backends: Optional[Sequence] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    smoke: bool = False,
    jobs: int = 1,
) -> CompareReport:
    """Run the cross-backend comparison; see the module docstring.

    Backends are independent once the compiled program, both dynamic
    traces and the crash point are fixed (all computed once, up front),
    so ``jobs > 1`` runs one backend per worker; rows come back in
    backend order and are identical to the serial run."""
    from ..analysis.experiments import ExperimentContext
    from ..core.failure import boundary_steps
    from ..parallel import fan_out

    if smoke:
        scale = min(scale, SMOKE_SCALE)
    chosen = [
        get_backend(b)
        for b in (backends if backends else sorted(BACKENDS))
    ]
    ctx = ExperimentContext(scale=scale, config=config, benchmarks=[benchmark])
    if ctx.benchmarks()[0].threads != 1:
        raise ValueError(
            "compare needs a single-threaded benchmark (got %r)" % benchmark
        )
    # fill both trace caches here, so forked workers inherit them
    ctx.baseline_trace(benchmark)
    ctx.compiled_trace(benchmark)
    compiled = ctx.compiled(benchmark)
    # A mid-region instant: one step past a mid-run boundary, where the
    # previous region's durability is still in flight under LRPO and the
    # next region has begun.
    total, boundaries = boundary_steps(compiled, config=config)
    crash_step = (
        boundaries[len(boundaries) // 2] + 1 if boundaries
        else max(1, total // 2)
    )

    def backend_row(backend: PersistBackend) -> CompareRow:
        row = CompareRow(
            backend=backend.name, **ctx.measure(benchmark, backend.policy)
        )
        _probe_recovery(compiled, backend, crash_step, config, row)
        return row

    rows = fan_out(backend_row, chosen, jobs=jobs, label="compare")
    return CompareReport(
        benchmark=benchmark,
        scale=scale,
        crash_step=crash_step,
        rows=rows,
    )


def format_compare(report: CompareReport) -> str:
    header = (
        "%-14s %9s %9s %11s %12s %7s  %s"
        % ("backend", "slowdown", "Minst/s", "persist-ent",
           "persist-B", "eff%", "recovery @ step %d" % report.crash_step)
    )
    lines = [
        "compare: %s scale=%.3g (slowdown vs memory-mode)"
        % (report.benchmark, report.scale),
        header,
        "-" * len(header),
    ]
    for r in report.rows:
        lines.append(
            "%-14s %9.3f %9.2f %11d %12d %7.2f  %s"
            % (r.backend, r.slowdown, r.throughput_minst_s,
               r.persist_entries, r.persist_bytes, r.efficiency, r.recovery)
        )
    return "\n".join(lines)
