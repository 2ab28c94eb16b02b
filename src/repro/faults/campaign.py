"""The deterministic fault-injection campaign runner.

One campaign = a seeded sweep of fault schedules over the (single-
threaded, strictly deterministic) workload subset, every scenario checked
by the differential oracle against the failure-free reference image,
everything recorded in an append-only JSONL trace for exact replay — plus
the self-validation pass: each seeded defense-off mode must be flagged by
the oracle, and the flagged schedule is shrunk to a minimal reproducer.

Two machine configurations are swept:

* the paper's default (64-entry WPQs) — overflow never fires on these
  workloads, so the campaign probes the broadcast/ACK/battery surfaces;
* a 4-entry "tiny WPQ" (same compiled program: the compiler threshold is
  deliberately left at the default) — §IV-D overflow fires constantly and
  the undo log is live, so undo-rollback and nested-recovery faults have
  teeth.

Multithreaded benchmarks are excluded by design: recovery legitimately
perturbs the interleaving, so their final image is not slot-exact and the
strict differential oracle does not apply (the property-test suite checks
their weaker invariants instead).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.battery import per_entry_drain_joules
from ..compiler.pipeline import CompiledProgram, compile_program
from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.failure import reference_pm
from ..errors import DeadlockError, MachineLimitError
from ..workloads.suite import BENCHMARKS
from .defenses import ALL_ON, DEFENSE_OFF_MODES, Defenses
from .injector import run_scenario
from .machine import FaultyMachine
from .model import (
    ACK_LATENCY_STEPS,
    FAULT_CLASSES,
    NESTED_POINTS,
    FaultEvent,
    schedule_from_json,
    schedule_to_json,
)
from .oracle import Violation, check_image
from .shrink import shrink_schedule
from ..trace import JsonlTrace, NullTrace, image_hash, read_trace

__all__ = [
    "DEFAULT_CAMPAIGN_BENCHMARKS",
    "DEFAULT_CAMPAIGN_SCALE",
    "STORE_CAMPAIGN_BENCHMARKS",
    "TINY_WPQ_ENTRIES",
    "CAMPAIGN_SHARDING",
    "CampaignResult",
    "resolve_benchmark",
    "run_campaign",
    "replay_trace",
]

#: the sharding contract this build uses when ``jobs > 1``, recorded in
#: every trace's ``campaign_start``: work is partitioned round-robin
#: over whole benchmarks (scenario phase) and defense-off modes
#: (validation phase), every worker derives its RNG streams from
#: ``(seed, label)`` alone, and records are merged back in canonical
#: serial order before anything is written.  Because the partition
#: never influences a unit's inputs, the trace is byte-identical for
#: every ``--jobs`` value — which is exactly why replay can refuse any
#: trace recorded under a sharding contract it does not know how to
#: reproduce (see :func:`replay_trace`).
CAMPAIGN_SHARDING = {
    "strategy": "round-robin",
    "unit": "benchmark+mode",
    "version": 1,
}

#: sharding contracts this build can reproduce bit-for-bit
SUPPORTED_SHARDINGS = (CAMPAIGN_SHARDING,)

#: the deterministic (single-threaded) subset the campaign sweeps: every
#: CPU2006/2017 benchmark whose clean run stays under ~15k steps at the
#: default scale, so a full campaign remains a smoke test.
DEFAULT_CAMPAIGN_BENCHMARKS: Tuple[str, ...] = (
    "bzip2", "h264ref", "hmmer", "namd", "dsjeng",
    "imagick", "leela", "nab", "namd17", "xz",
)

DEFAULT_CAMPAIGN_SCALE = 0.01

#: the KV-store workload set (``repro faults campaign --workload store``):
#: single-threaded baked-batch store programs from repro.store.bench
STORE_CAMPAIGN_BENCHMARKS: Tuple[str, ...] = (
    "store-ycsb-a", "store-ycsb-b", "store-crud",
)


def resolve_benchmark(name: str):
    """Benchmark lookup that also knows the store workloads.  The store
    package imports the suite (for :class:`Benchmark`), so the reverse
    lookup must stay lazy to avoid a cycle."""
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    from ..store.bench import STORE_BENCHMARKS

    if name in STORE_BENCHMARKS:
        return STORE_BENCHMARKS[name]
    raise KeyError("unknown benchmark %r" % (name,))

#: WPQ size of the overflow-prone sweep configuration (compiler threshold
#: untouched, so regions overflow their WPQs and the undo log goes live)
TINY_WPQ_ENTRIES = 4

SHRINK_BUDGET = 32


def _tiny_config(config: SystemConfig) -> SystemConfig:
    return replace(
        config, mc=replace(config.mc, wpq_entries=TINY_WPQ_ENTRIES)
    )


def _rng(seed: int, *parts: str) -> random.Random:
    """A deterministic stream per (seed, label...) — independent of
    PYTHONHASHSEED, unlike seeding Random with a string."""
    key = ("%d|" % seed) + "|".join(parts)
    return random.Random(
        int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
    )


# ----------------------------------------------------------------------
# per-benchmark probe
# ----------------------------------------------------------------------

@dataclass
class _Probe:
    """What one failure-free walk learns about a benchmark."""

    total_steps: int
    boundary_steps: List[int]
    #: steps (tiny-WPQ config) where an undo-logged region is still open
    #: (not committable), i.e. where the undo log has rollback work to do
    open_undo_steps: List[int]
    reference: Dict[int, int]       # default config
    reference_tiny: Dict[int, int]  # tiny-WPQ config


def _probe_benchmark(
    compiled: CompiledProgram, config: SystemConfig, backend=None
) -> _Probe:
    from ..trace import EK

    machine = FaultyMachine(compiled, config=config, backend=backend)
    boundary_steps: List[int] = []
    while True:
        event = machine.step()
        if event is None:
            break
        if event.kind == EK.BOUNDARY:
            boundary_steps.append(machine.stats.steps)
    total = machine.stats.steps

    reference = reference_pm(compiled, config=config, backend=backend)
    if not machine.persist.gated:
        # no WPQ to shrink: the tiny-WPQ overflow surface only exists
        # for gated (quarantine-based) backends
        return _Probe(
            total_steps=total,
            boundary_steps=boundary_steps,
            open_undo_steps=[],
            reference=reference,
            reference_tiny=reference,
        )

    tiny = _tiny_config(config)
    walker = FaultyMachine(compiled, config=tiny, backend=backend)
    open_undo: List[int] = []
    while True:
        if walker.step() is None:
            break
        for region in walker.undo_log:
            if (region not in walker.boundary_issued
                    or not walker._seen_ok(region)):
                open_undo.append(walker.stats.steps)
                break
    return _Probe(
        total_steps=total,
        boundary_steps=boundary_steps,
        open_undo_steps=open_undo,
        reference=reference,
        reference_tiny=reference_pm(compiled, config=tiny, backend=backend),
    )


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------

def _mid_boundaries(probe: _Probe, rng: random.Random, k: int) -> List[int]:
    """Up to ``k`` distinct boundary steps away from the run's edges."""
    lo, hi = 8, max(9, probe.total_steps - ACK_LATENCY_STEPS - 8)
    eligible = [b for b in probe.boundary_steps if lo <= b <= hi]
    if not eligible:
        eligible = probe.boundary_steps[1:-1] or probe.boundary_steps
    rng.shuffle(eligible)
    return sorted(eligible[:k])


def generate_schedules(
    fault_class: str,
    probe: _Probe,
    rng: random.Random,
    config: SystemConfig,
) -> List[List[FaultEvent]]:
    """The campaign's schedules for one (benchmark, fault class) cell.
    Deterministic given the rng stream."""
    n_mcs = config.mc.n_mcs
    bs = _mid_boundaries(probe, rng, 3)
    if not bs:
        return []
    in_window = lambda b: b + rng.randint(1, ACK_LATENCY_STEPS - 1)
    mc = lambda: rng.randrange(n_mcs)

    if fault_class == "clean_cut":
        mid = max(1, rng.randint(1, probe.total_steps - 1))
        return [[FaultEvent("cut", step=mid)],
                [FaultEvent("cut", step=in_window(bs[0]))]]
    if fault_class == "torn_cut":
        return [
            [FaultEvent("cut", step=in_window(b),
                        torn_index=rng.randint(0, 2))]
            for b in bs[:2]
        ]
    if fault_class == "drained_cut":
        # tiny residuals: honored only when sized_battery is off — the
        # defended sweep proves the sizing invariant neutralizes them
        per_entry = per_entry_drain_joules(config)
        return [
            [FaultEvent("cut", step=in_window(b),
                        residual_j=per_entry * rng.uniform(0.5, 2.5))]
            for b in bs[:2]
        ]
    if fault_class in ("msg_drop", "msg_delay", "msg_dup"):
        op = fault_class[len("msg_"):]
        out = []
        for i, b in enumerate(bs[:2]):
            msg = FaultEvent(
                "msg", step=max(1, b - 1), op=op, mc=mc(),
                delay=rng.randint(1, 3),
            )
            schedule = [msg]
            if i == 1:  # one variant also cuts power inside the gap
                schedule.append(
                    FaultEvent("cut", step=b + ACK_LATENCY_STEPS + 2)
                )
            out.append(schedule)
        return out
    if fault_class == "skew_cut":
        out = []
        for b in bs[:2]:
            down_at = max(1, b - rng.randint(1, 4))
            cut_at = b + rng.randint(2, ACK_LATENCY_STEPS + 4)
            out.append([
                FaultEvent("mc_down", step=down_at, mc=mc()),
                FaultEvent("cut", step=cut_at),
            ])
        return out
    if fault_class == "nested_cut":
        out = [
            [FaultEvent("cut", step=in_window(bs[i % len(bs)]),
                        nested_after=point)]
            for i, point in enumerate(NESTED_POINTS)
        ]
        return out
    raise ValueError("unknown fault class %r" % (fault_class,))


def _tiny_wpq_schedules(
    probe: _Probe, rng: random.Random
) -> List[Tuple[str, List[FaultEvent]]]:
    """Extra overflow-surface scenarios under the tiny-WPQ config: cuts
    (plain and nested-mid-rollback) while the undo log has live rollback
    work."""
    steps = probe.open_undo_steps
    if not steps:
        return []
    picks = sorted({steps[0], steps[len(steps) // 2], steps[-1]})
    out: List[Tuple[str, List[FaultEvent]]] = []
    for s in picks[:2]:
        out.append(("clean_cut", [FaultEvent("cut", step=s)]))
    out.append((
        "nested_cut",
        [FaultEvent("cut", step=rng.choice(picks),
                    nested_after="mid_rollback")],
    ))
    return out


# ----------------------------------------------------------------------
# defense-off self-validation
# ----------------------------------------------------------------------

def _defense_candidates(
    mode: str, probe: _Probe, rng: random.Random, config: SystemConfig
) -> Tuple[str, List[List[FaultEvent]]]:
    """(config tag, candidate schedules) expected to expose ``mode``."""
    n_mcs = config.mc.n_mcs
    bs = _mid_boundaries(probe, rng, 4)
    if mode == "no_undo":
        steps = probe.open_undo_steps
        picks = sorted(set(
            steps[(i * (len(steps) - 1)) // 5] for i in range(6)
        )) if steps else []
        return "tiny_wpq", [[FaultEvent("cut", step=s)] for s in picks]
    if mode == "no_recovery_idempotence":
        steps = probe.open_undo_steps
        picks = sorted(set(
            steps[(i * (len(steps) - 1)) // 5] for i in range(6)
        )) if steps else []
        return "tiny_wpq", [
            [FaultEvent("cut", step=s, nested_after="mid_rollback")]
            for s in picks
        ]
    if mode == "no_ack_wait":
        out = []
        for b in bs:
            for m in range(n_mcs):
                out.append([
                    FaultEvent("msg", step=max(1, b - 1), op="drop", mc=m),
                    FaultEvent("cut", step=b + ACK_LATENCY_STEPS + 2),
                ])
        return "default", out
    if mode == "torn_unrepaired":
        return "default", [
            [FaultEvent("cut", step=b + k, torn_index=0)]
            for b in bs for k in (1, 3)
        ]
    if mode == "undersized_battery":
        per_entry = per_entry_drain_joules(config)
        return "default", [
            [FaultEvent("cut", step=b + k, residual_j=per_entry * 1.2)]
            for b in bs for k in (1, 3)
        ]
    if mode == "no_retry":
        return "default", [
            [FaultEvent("msg", step=max(1, b - 1), op="drop", mc=m)]
            for b in bs for m in range(n_mcs)
        ]
    raise ValueError("unknown defense-off mode %r" % (mode,))


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything `repro faults campaign` reports."""

    seed: int
    benchmarks: List[str]
    backend: str = "lightwsp-lrpo"
    fault_classes: Tuple[str, ...] = FAULT_CLASSES
    scenarios_run: int = 0
    #: oracle failures of the DEFENDED protocol (must stay empty)
    violations: List[Dict] = field(default_factory=list)
    #: mode -> {"caught": bool, "benchmark": ..., "minimal": [...], ...}
    defense_results: Dict[str, Dict] = field(default_factory=dict)
    trace_path: Optional[str] = None

    @property
    def defenses_caught(self) -> int:
        return sum(1 for r in self.defense_results.values() if r["caught"])

    @property
    def ok(self) -> bool:
        return not self.violations and all(
            r["caught"] for r in self.defense_results.values()
        )


def _run_one(
    compiled: CompiledProgram,
    schedule: List[FaultEvent],
    config: SystemConfig,
    defenses: Defenses,
    reference: Dict[int, int],
    trace,
    backend=None,
) -> Tuple[Optional[Violation], Dict]:
    try:
        result = run_scenario(
            compiled, schedule, config=config, defenses=defenses, trace=trace,
            backend=backend,
        )
    except (MachineLimitError, DeadlockError) as exc:
        # A wedged or runaway run loop is a scenario verdict, not a
        # harness crash: a fault schedule that livelocks recovery is
        # exactly what the campaign exists to flag.
        kind = (
            "machine_limit" if isinstance(exc, MachineLimitError)
            else "deadlock"
        )
        violation = Violation(kind=kind, detail=str(exc))
        record = {
            "schedule": schedule_to_json(schedule),
            "image_hash": image_hash({}),
            "steps": exc.steps,
            "crashes": 0,
            "skipped_events": 0,
            "counters": {},
            "violation": violation.to_json(),
        }
        return violation, record
    violation = check_image(result.finished, result.image, reference)
    record = {
        "schedule": schedule_to_json(schedule),
        "image_hash": image_hash(result.image),
        "steps": result.stats.steps,
        "crashes": result.stats.crashes,
        "skipped_events": result.skipped_events,
        "counters": {k: v for k, v in result.fault_counters.items() if v},
        "violation": violation.to_json() if violation else None,
    }
    return violation, record


def _benchmark_task(
    name: str,
    seed: int,
    scale: float,
    configs: Dict[str, SystemConfig],
    fault_classes: Tuple[str, ...],
    verify: Optional[bool],
    backend,
) -> Dict:
    """One benchmark's whole scenario sweep — the unit of work the
    scenario phase shards across workers.  A pure function of its
    arguments (all RNG streams are keyed on ``(seed, name, ...)``), so
    running it in a forked worker or in-process yields the same records
    byte for byte."""
    config = configs["default"]
    bench = resolve_benchmark(name)
    if bench.threads != 1:
        raise ValueError(
            "campaign benchmarks must be single-threaded "
            "(got %r); the strict differential oracle does not "
            "apply to racy interleavings" % name
        )
    compiled = compile_program(
        bench.build(scale=scale), config.compiler, verify=verify
    )
    probe = _probe_benchmark(compiled, config, backend=backend)

    cells: List[Tuple[str, str, List[FaultEvent]]] = []
    for fault_class in fault_classes:
        rng = _rng(seed, name, fault_class)
        for schedule in generate_schedules(fault_class, probe, rng, config):
            cells.append((fault_class, "default", schedule))
    if backend.gated:
        for fault_class, schedule in _tiny_wpq_schedules(
            probe, _rng(seed, name, "tiny_wpq")
        ):
            cells.append((fault_class, "tiny_wpq", schedule))

    records: List[Dict] = []
    for fault_class, cfg_tag, schedule in cells:
        reference = (
            probe.reference if cfg_tag == "default"
            else probe.reference_tiny
        )
        _, record = _run_one(
            compiled, schedule, configs[cfg_tag], ALL_ON,
            reference, NullTrace(), backend=backend,
        )
        record.update(
            benchmark=name, fault_class=fault_class,
            config=cfg_tag, mode="all_on",
        )
        records.append(record)
    return {
        "benchmark": name,
        "n_cells": len(cells),
        "records": records,
        "compiled": compiled,
        "probe": probe,
    }


def run_campaign(
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_CAMPAIGN_SCALE,
    config: SystemConfig = DEFAULT_CONFIG,
    trace_path: Optional[str] = None,
    validate_defenses: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    verify: Optional[bool] = None,
    backend=None,
    jobs: int = 1,
    worker_timeout: Optional[float] = None,
) -> CampaignResult:
    """Run the full deterministic campaign.  Same seed, same benchmarks,
    same scale -> bit-identical trace (modulo the trace path) — for
    **every** value of ``jobs``: parallel workers are sharded round-robin
    over benchmarks (then defense-off modes), never share RNG state, and
    their records are merged back in canonical order before the trace is
    written (see :data:`CAMPAIGN_SHARDING`).

    ``verify=True`` statically verifies each compiled benchmark (see
    :mod:`repro.verify`) before injecting any fault into it.

    ``backend`` selects the persist backend under attack.  The sweep is
    restricted to the backend's meaningful fault classes; the differential
    oracle demands a crash-consistent scheme, so backends with
    ``recovers=False`` (PSP, memory-mode) are refused — every scenario
    would be a guaranteed, uninformative violation.

    ``jobs`` caps the worker processes (1 = serial, in-process);
    ``worker_timeout`` kills any shard that exceeds the budget (seconds)
    and raises a diagnostic instead of hanging."""
    from ..parallel import fan_out
    from ..runtime.backend import get_backend, require_recovering

    backend = require_recovering(
        get_backend(backend), "the differential campaign oracle"
    )
    fault_classes = tuple(
        fc for fc in FAULT_CLASSES if fc in backend.fault_classes
    )
    names = list(benchmarks or DEFAULT_CAMPAIGN_BENCHMARKS)
    say = progress or (lambda msg: None)
    trace = JsonlTrace(trace_path) if trace_path else NullTrace()
    result = CampaignResult(seed=seed, benchmarks=names,
                            backend=backend.name,
                            fault_classes=fault_classes,
                            trace_path=trace_path)
    tiny = _tiny_config(config)
    configs = {"default": config, "tiny_wpq": tiny}

    trace.emit(
        "campaign_start", seed=seed, scale=scale, benchmarks=names,
        backend=backend.name,
        fault_classes=list(fault_classes),
        tiny_wpq_entries=TINY_WPQ_ENTRIES, version=1,
        sharding=dict(CAMPAIGN_SHARDING),
    )

    def scenario_worker(name: str) -> Dict:
        return _benchmark_task(
            name, seed, scale, configs, fault_classes, verify, backend
        )

    tasks = fan_out(
        scenario_worker, names, jobs=jobs, timeout=worker_timeout,
        label="campaign",
    )
    compiled_cache: Dict[str, CompiledProgram] = {}
    probes: Dict[str, _Probe] = {}
    for task in tasks:
        name = task["benchmark"]
        compiled_cache[name] = task["compiled"]
        probes[name] = task["probe"]
        bench_violations = 0
        for record in task["records"]:
            trace.emit("scenario_end", **record)
            result.scenarios_run += 1
            if record["violation"] is not None:
                bench_violations += 1
                result.violations.append(record)
        say("%-10s %2d scenarios, %d violation(s)"
            % (name, task["n_cells"], bench_violations))

    if validate_defenses and backend.validates_defenses:
        _validate_defenses(
            result, compiled_cache, probes, configs, seed, trace, say,
            backend=backend, jobs=jobs, worker_timeout=worker_timeout,
        )
    elif validate_defenses:
        say("defense validation skipped: backend %r has no LRPO "
            "defenses to switch off" % backend.name)

    trace.emit(
        "campaign_end",
        scenarios=result.scenarios_run,
        violations=len(result.violations),
        defenses_caught=result.defenses_caught,
        defenses_total=len(result.defense_results),
    )
    trace.close()
    return result


def _defense_mode_task(
    mode: str,
    benchmarks: Sequence[str],
    compiled_cache: Dict[str, CompiledProgram],
    probes: Dict[str, _Probe],
    configs: Dict[str, SystemConfig],
    seed: int,
    backend,
) -> Dict:
    """One defense-off mode's whole hunt (candidates -> first failure ->
    shrink) — the unit of work the validation phase shards across
    workers.  Deterministic per ``(seed, mode)``."""
    defenses = DEFENSE_OFF_MODES[mode]
    entry: Dict = {"caught": False, "benchmark": None,
                   "candidates_tried": 0}
    for name in benchmarks:
        compiled = compiled_cache[name]
        probe = probes[name]
        rng = _rng(seed, "defense", mode, name)
        cfg_tag, candidates = _defense_candidates(
            mode, probe, rng, configs["default"]
        )
        cfg = configs[cfg_tag]
        reference = (
            probe.reference if cfg_tag == "default"
            else probe.reference_tiny
        )

        def fails(schedule: List[FaultEvent]) -> bool:
            res = run_scenario(
                compiled, schedule, config=cfg, defenses=defenses,
                trace=NullTrace(), backend=backend,
            )
            return check_image(
                res.finished, res.image, reference
            ) is not None

        caught_schedule = None
        for schedule in candidates:
            entry["candidates_tried"] += 1
            if fails(schedule):
                caught_schedule = schedule
                break
        if caught_schedule is None:
            continue

        minimal, evals = shrink_schedule(
            caught_schedule, fails, budget=SHRINK_BUDGET
        )
        # record the minimal reproducer's actual violation
        res = run_scenario(
            compiled, minimal, config=cfg, defenses=defenses,
            trace=NullTrace(), backend=backend,
        )
        violation = check_image(res.finished, res.image, reference)
        entry.update(
            caught=True, benchmark=name, config=cfg_tag,
            minimal=schedule_to_json(minimal),
            original_events=len(caught_schedule),
            minimal_events=len(minimal),
            shrink_evals=evals,
            violation=violation.to_json() if violation else None,
        )
        break
    return entry


def _validate_defenses(
    result: CampaignResult,
    compiled_cache: Dict[str, CompiledProgram],
    probes: Dict[str, _Probe],
    configs: Dict[str, SystemConfig],
    seed: int,
    trace,
    say: Callable[[str], None],
    backend=None,
    jobs: int = 1,
    worker_timeout: Optional[float] = None,
) -> None:
    """Self-validation: every defense-off mode must be flagged, then its
    failing schedule is shrunk to a minimal reproducer (verified to still
    fail).  Modes are independent, so they shard round-robin across
    workers; entries are merged back in sorted-mode order."""
    from ..parallel import fan_out

    modes = sorted(DEFENSE_OFF_MODES)

    def mode_worker(mode: str) -> Dict:
        return _defense_mode_task(
            mode, result.benchmarks, compiled_cache, probes, configs,
            seed, backend,
        )

    entries = fan_out(
        mode_worker, modes, jobs=jobs, timeout=worker_timeout,
        label="defense-validation",
    )
    for mode, entry in zip(modes, entries):
        result.defense_results[mode] = entry
        trace.emit("defense_mode", mode=mode, **entry)
        say("defense %-24s %s" % (
            mode,
            "caught (%d-event reproducer on %s)"
            % (entry.get("minimal_events", 0), entry["benchmark"])
            if entry["caught"] else "NOT CAUGHT",
        ))


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def _check_trace_sharding(start: Dict, path: str) -> None:
    """Refuse a trace whose recorded sharding contract this build cannot
    reproduce.  Re-sharding such a trace silently would partition the
    scenarios differently from the run that produced it, so any
    mismatch could be an artifact of the partitioning rather than a
    regression — an explanatory refusal is the only honest outcome.
    Traces from before the parallel layer carry no ``sharding`` field
    and replay fine (their serial order is the canonical order)."""
    sharding = start.get("sharding")
    if sharding is None:
        return
    known = [
        {k: s[k] for k in ("strategy", "unit", "version")}
        for s in SUPPORTED_SHARDINGS
    ]
    probe = {
        k: sharding.get(k) for k in ("strategy", "unit", "version")
    }
    if probe not in known:
        raise ValueError(
            "trace %s was recorded under sharding contract %r, which "
            "this build cannot reproduce (supported: %r); refusing to "
            "replay rather than silently re-sharding — scenario "
            "partitioning would differ from the recording run"
            % (path, sharding, list(SUPPORTED_SHARDINGS))
        )


def replay_trace(
    path: str,
    config: SystemConfig = DEFAULT_CONFIG,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    worker_timeout: Optional[float] = None,
) -> Dict:
    """Re-run every scenario recorded in a campaign trace and verify the
    outcome (image hash + oracle verdict) reproduces bit for bit.

    Scenarios are independent, so ``jobs > 1`` shards them round-robin
    across workers; the report (checked count + mismatches in recorded
    order) is identical for every ``jobs`` value.  A trace recorded
    under a sharding contract this build does not support is refused
    with an explanation (see :func:`_check_trace_sharding`)."""
    from ..parallel import fan_out

    from ..obs.schema import ensure_supported_version

    say = progress or (lambda msg: None)
    records = read_trace(path)
    ensure_supported_version(records, path)
    starts = [r for r in records if r.get("type") == "campaign_start"]
    if not starts:
        raise ValueError("not a campaign trace: %s" % path)
    _check_trace_sharding(starts[0], path)
    scale = starts[0]["scale"]
    backend = starts[0].get("backend", "lightwsp-lrpo")
    configs = {"default": config, "tiny_wpq": _tiny_config(config)}

    scenarios = [r for r in records if r.get("type") == "scenario_end"]
    compiled_cache: Dict[str, CompiledProgram] = {}

    def replay_one(record: Dict) -> Optional[Dict]:
        # the cache is per-process: the serial path fills one for the
        # whole trace, a forked worker fills its own for its shard
        name = record["benchmark"]
        if name not in compiled_cache:
            compiled_cache[name] = compile_program(
                resolve_benchmark(name).build(scale=scale), config.compiler
            )
        cfg = configs[record["config"]]
        defenses = (
            ALL_ON if record["mode"] == "all_on"
            else DEFENSE_OFF_MODES[record["mode"]]
        )
        schedule = schedule_from_json(record["schedule"])
        res = run_scenario(
            compiled_cache[name], schedule, config=cfg, defenses=defenses,
            backend=backend,
        )
        # the recorded hash pins the exact final image (including any
        # divergence), so one comparison verifies the whole outcome
        got_hash = image_hash(res.image)
        if got_hash == record["image_hash"]:
            return None
        return {
            "benchmark": name,
            "fault_class": record["fault_class"],
            "schedule": record["schedule"],
            "want_hash": record["image_hash"],
            "got_hash": got_hash,
        }

    outcomes = fan_out(
        replay_one, scenarios, jobs=jobs, timeout=worker_timeout,
        label="replay",
    )
    mismatches: List[Dict] = []
    checked = 0
    for outcome in outcomes:
        checked += 1
        if outcome is not None:
            mismatches.append(outcome)
        if checked % 50 == 0:
            say("replayed %d scenarios..." % checked)
    return {"checked": checked, "mismatches": mismatches}
