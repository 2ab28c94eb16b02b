"""Power-failure injection harnesses.

These wrap :class:`~repro.core.machine.PersistentMachine` into the two
workflows tests and examples need:

* :func:`reference_pm` — the failure-free persisted image;
* :func:`boundary_steps` — the failure-free run's length and the steps at
  which its region boundaries retire, where every crash driver probes;
* :func:`run_with_crashes` — execute with power failures injected at given
  instruction counts, recovering after each, and return the final image.

The central theorem (checked by the property tests): for any crash
schedule, ``run_with_crashes(...) == reference_pm(...)`` on data words.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import MachineLimitError
from ..trace import EK
from .machine import MachineStats, PersistentMachine

__all__ = ["reference_pm", "boundary_steps", "run_with_crashes", "crash_sweep"]

Entries = Sequence[Tuple[str, Sequence[int]]]
DEFAULT_ENTRIES: Entries = (("main", ()),)


def _machine(
    compiled: CompiledProgram,
    entries: Entries,
    config: SystemConfig,
    schedule_seed: int,
    backend: object = None,
) -> PersistentMachine:
    return PersistentMachine(
        compiled, entries=entries, config=config,
        schedule_seed=schedule_seed, backend=backend,
    )


def reference_pm(
    compiled: CompiledProgram,
    entries: Entries = DEFAULT_ENTRIES,
    config: SystemConfig = DEFAULT_CONFIG,
    schedule_seed: int = 0,
    backend: object = None,
) -> Dict[int, int]:
    """Run to completion with no failures; the persisted data image."""
    machine = _machine(compiled, entries, config, schedule_seed, backend)
    if not machine.run():
        raise RuntimeError("program did not finish within the step budget")
    return machine.pm_data()


def boundary_steps(
    compiled: CompiledProgram,
    entries: Entries = DEFAULT_ENTRIES,
    config: SystemConfig = DEFAULT_CONFIG,
    schedule_seed: int = 0,
    backend: object = None,
) -> Tuple[int, List[int]]:
    """Walk the failure-free run once: its total step count and the
    cumulative step at which each region boundary retired, in order.
    Raises :class:`~repro.errors.MachineLimitError` once the walk
    reaches the machine's ``max_steps``."""
    probe = _machine(compiled, entries, config, schedule_seed, backend)
    steps: List[int] = []
    while True:
        event = probe.step()
        if event is None:
            return probe.stats.steps, steps
        if probe.stats.steps >= probe.max_steps:
            raise MachineLimitError(
                "machine exceeded max_steps",
                steps=probe.stats.steps, limit=probe.max_steps,
            )
        if event.kind == EK.BOUNDARY:
            steps.append(probe.stats.steps)


def run_with_crashes(
    compiled: CompiledProgram,
    crash_points: Sequence[int],
    entries: Entries = DEFAULT_ENTRIES,
    config: SystemConfig = DEFAULT_CONFIG,
    schedule_seed: int = 0,
    backend: object = None,
) -> Tuple[Dict[int, int], MachineStats]:
    """Execute, cutting power after each (cumulative-step) crash point,
    recovering, and resuming.  Crash points past program completion are
    ignored — the ones that actually fired are recorded in
    ``MachineStats.crash_points_fired`` so callers can assert coverage.
    Returns (final data image, machine stats)."""
    machine = _machine(compiled, entries, config, schedule_seed, backend)
    executed = 0
    for point in sorted(crash_points):
        budget = point - executed
        if budget <= 0:
            continue
        finished = machine.run(steps=budget)
        executed = machine.stats.steps
        if finished:
            break
        machine.crash()
    if not machine.finished:
        machine.run()
    if not machine.finished:
        raise RuntimeError("program did not finish after recovery")
    return machine.pm_data(), machine.stats


def crash_sweep(
    compiled: CompiledProgram,
    entries: Entries = DEFAULT_ENTRIES,
    config: SystemConfig = DEFAULT_CONFIG,
    stride: Optional[int] = None,
    schedule_seed: int = 0,
    max_points: Optional[int] = None,
    backend: object = None,
    jobs: int = 1,
) -> List[int]:
    """Crash once per probe point of the failure-free execution and check
    recovery each time.  Returns the list of crash points whose final
    image DIVERGED from the reference (empty == the crash-consistency
    invariant holds everywhere).

    Probe points: every ``stride``-th instruction when ``stride`` is
    given; by default the region-boundary-adjacent points (each boundary
    step +-1, plus the first instruction) — the only places the persisted
    state machine actually changes, which turns the old
    every-instruction-times-whole-program quadratic sweep into a linear
    one.  ``max_points`` caps the probe count by even subsampling.

    Cost model: one shared execution is advanced point to point and a
    clone is forked (``PersistentMachine.clone``) at each probe, so the
    program prefix is never re-executed per crash point.  ``jobs > 1``
    shards the probe points round-robin across worker processes, each
    with its own walker; every point's verdict depends only on the point
    itself, so the sorted merge is identical to the serial sweep."""
    reference = reference_pm(compiled, entries, config, schedule_seed,
                             backend=backend)
    total_steps, boundaries = boundary_steps(
        compiled, entries, config, schedule_seed, backend
    )

    if stride is not None:
        points = list(range(1, total_steps + 1, stride))
    else:
        candidates = {1}
        for b in boundaries:
            for delta in (-1, 0, 1):
                if 1 <= b + delta <= total_steps:
                    candidates.add(b + delta)
        points = sorted(candidates)
    if max_points is not None and len(points) > max_points:
        keep = max(1, max_points)
        idx = [(i * (len(points) - 1)) // (keep - 1) for i in range(keep)] \
            if keep > 1 else [0]
        points = sorted({points[i] for i in idx})

    def sweep_points(shard_points: Sequence[int]) -> List[int]:
        divergent: List[int] = []
        walker = _machine(compiled, entries, config, schedule_seed, backend)
        for point in shard_points:
            walker.run(steps=point - walker.stats.steps)
            if walker.finished:
                break  # later points fall past program completion: ignored
            fork = walker.clone()
            fork.crash()
            if not fork.run():
                raise RuntimeError("program did not finish after recovery")
            if fork.pm_data() != reference:
                divergent.append(point)
        return divergent

    if jobs <= 1 or len(points) <= 1:
        return sweep_points(points)
    from ..parallel import run_shards, shard_units

    shards = [
        [points[i] for i in idx] for idx in shard_units(len(points), jobs)
    ]
    results = run_shards(sweep_points, shards, jobs=jobs, label="crash-sweep")
    return sorted(p for shard in results for p in shard)
