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
from ..core.failure import boundary_steps, reference_pm
from ..errors import DeadlockError, MachineLimitError
from ..parallel import fan_out
from ..runtime.backend import get_backend, require_recovering
from ..trace import image_hash
from ..workloads.suite import BENCHMARKS
from .defenses import ALL_ON, DEFENSE_OFF_MODES, Defenses
from .injector import run_scenario
from .kernel import Campaign, Plane
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

__all__ = [
    "DEFAULT_CAMPAIGN_BENCHMARKS",
    "DEFAULT_CAMPAIGN_SCALE",
    "STORE_CAMPAIGN_BENCHMARKS",
    "TINY_WPQ_ENTRIES",
    "CAMPAIGN_SHARDING",
    "CampaignResult",
    "resolve_benchmark",
    "run_campaign",
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
#: reproduce (see :func:`_check_trace_sharding`).
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


#: the two machine configurations, by the tag each scenario record carries
CONFIGS: Dict[str, SystemConfig] = {
    "default": DEFAULT_CONFIG,
    "tiny_wpq": _tiny_config(DEFAULT_CONFIG),
}


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

    def reference_for(self, cfg_tag: str) -> Dict[int, int]:
        return self.reference if cfg_tag == "default" else self.reference_tiny


def _probe_benchmark(
    compiled: CompiledProgram, config: SystemConfig, backend=None
) -> _Probe:
    total, boundaries = boundary_steps(
        compiled, config=config, backend=backend
    )
    reference = reference_pm(compiled, config=config, backend=backend)
    if not get_backend(backend).gated:
        # no WPQ to shrink: the tiny-WPQ overflow surface only exists
        # for gated (quarantine-based) backends
        return _Probe(
            total_steps=total,
            boundary_steps=boundaries,
            open_undo_steps=[],
            reference=reference,
            reference_tiny=reference,
        )

    tiny = _tiny_config(config)
    walker = FaultyMachine(compiled, config=tiny, backend=backend)
    open_undo: List[int] = []
    while walker.step() is not None:
        # an undo-logged region with no ACK scheduled cannot commit yet
        if any(r not in walker._ack_due for r in walker.persist.undo_log):
            open_undo.append(walker.stats.steps)
    return _Probe(
        total_steps=total,
        boundary_steps=boundaries,
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


def _compile(
    name: str, scale: float, verify: Optional[bool] = None
) -> CompiledProgram:
    bench = resolve_benchmark(name)
    if bench.threads != 1:
        raise ValueError(
            "campaign benchmarks must be single-threaded "
            "(got %r); the strict differential oracle does not "
            "apply to racy interleavings" % name
        )
    return compile_program(
        bench.build(scale=scale), DEFAULT_CONFIG.compiler, verify=verify
    )


def _run_and_check(
    compiled: CompiledProgram,
    schedule: List[FaultEvent],
    cfg_tag: str,
    defenses: Defenses,
    reference: Dict[int, int],
    backend,
) -> Tuple[Optional[Violation], Dict]:
    """Run one schedule and judge it: the oracle's verdict, and the
    outcome fields of the scenario's record.  The sweep, the defense
    hunt, its shrinker and replay all judge a schedule here, so a wedged
    or runaway run loop is a verdict everywhere, never a harness crash:
    a fault schedule that livelocks recovery is exactly what the
    campaign exists to flag."""
    violation: Optional[Violation]
    try:
        result = run_scenario(
            compiled, schedule, config=CONFIGS[cfg_tag], defenses=defenses,
            backend=backend,
        )
    except (MachineLimitError, DeadlockError) as exc:
        kind = (
            "machine_limit" if isinstance(exc, MachineLimitError)
            else "deadlock"
        )
        violation = Violation(kind=kind, detail=str(exc))
        outcome: Dict = {
            "image_hash": image_hash({}),
            "steps": exc.steps,
            "crashes": 0,
            "skipped_events": 0,
            "counters": {},
        }
    else:
        violation = check_image(result.finished, result.image, reference)
        outcome = {
            "image_hash": image_hash(result.image),
            "steps": result.stats.steps,
            "crashes": result.stats.crashes,
            "skipped_events": result.skipped_events,
            "counters": {
                k: v for k, v in result.fault_counters.items() if v
            },
        }
    outcome.update(
        schedule=schedule_to_json(schedule),
        violation=violation.to_json() if violation else None,
    )
    return violation, outcome


def _benchmark_task(
    start: Dict, name: str, verify: Optional[bool]
) -> Tuple[List[Dict], Tuple[CompiledProgram, _Probe]]:
    """One benchmark's whole scenario sweep, the unit of work the
    scenario phase shards across workers: its scenario records, plus the
    compiled program and probe the defense-off phase reuses.  A pure
    function of the start record and the benchmark (all RNG streams are
    keyed on ``(seed, name, ...)``), so running it in a forked worker or
    in-process yields the same records byte for byte."""
    seed = start["seed"]
    backend = get_backend(start["backend"])
    compiled = _compile(name, start["scale"], verify)
    probe = _probe_benchmark(compiled, DEFAULT_CONFIG, backend=backend)

    cells: List[Tuple[str, str, List[FaultEvent]]] = []
    for fault_class in start["fault_classes"]:
        rng = _rng(seed, name, fault_class)
        for schedule in generate_schedules(
            fault_class, probe, rng, DEFAULT_CONFIG
        ):
            cells.append((fault_class, "default", schedule))
    if backend.gated:
        for fault_class, schedule in _tiny_wpq_schedules(
            probe, _rng(seed, name, "tiny_wpq")
        ):
            cells.append((fault_class, "tiny_wpq", schedule))

    records: List[Dict] = []
    for fault_class, cfg_tag, schedule in cells:
        _, record = _run_and_check(
            compiled, schedule, cfg_tag, ALL_ON,
            probe.reference_for(cfg_tag), backend,
        )
        record.update(
            benchmark=name, fault_class=fault_class,
            config=cfg_tag, mode="all_on",
        )
        records.append(record)
    return records, (compiled, probe)


def run_campaign(
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_CAMPAIGN_SCALE,
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
    backend = require_recovering(
        get_backend(backend), "the differential campaign oracle"
    )
    fault_classes = tuple(
        fc for fc in FAULT_CLASSES if fc in backend.fault_classes
    )
    names = list(benchmarks or DEFAULT_CAMPAIGN_BENCHMARKS)
    say = progress or (lambda msg: None)
    result = CampaignResult(seed=seed, benchmarks=names,
                            backend=backend.name,
                            fault_classes=fault_classes,
                            trace_path=trace_path)
    start = {
        "seed": seed, "scale": scale, "benchmarks": names,
        "backend": backend.name, "fault_classes": list(fault_classes),
        "tiny_wpq_entries": TINY_WPQ_ENTRIES, "version": 1,
        "sharding": dict(CAMPAIGN_SHARDING),
    }
    with Campaign(PLANE, start, trace_path) as campaign:
        units = campaign.sweep(
            lambda name: _benchmark_task(start, name, verify), names,
            jobs=jobs, worker_timeout=worker_timeout,
        )
        targets: Dict[str, Tuple[CompiledProgram, _Probe]] = {}
        for name, (records, target) in zip(names, units):
            targets[name] = target
            violations = [r for r in records if r["violation"] is not None]
            result.scenarios_run += len(records)
            result.violations.extend(violations)
            say("%-10s %2d scenarios, %d violation(s)"
                % (name, len(records), len(violations)))

        if validate_defenses and backend.validates_defenses:
            _validate_defenses(
                result, targets, campaign, say, backend=backend,
                jobs=jobs, worker_timeout=worker_timeout,
            )
        elif validate_defenses:
            say("defense validation skipped: backend %r has no LRPO "
                "defenses to switch off" % backend.name)

        campaign.end(
            scenarios=result.scenarios_run,
            violations=len(result.violations),
            defenses_caught=result.defenses_caught,
            defenses_total=len(result.defense_results),
        )
    return result


def _defense_mode_task(
    mode: str,
    benchmarks: Sequence[str],
    targets: Dict[str, Tuple[CompiledProgram, _Probe]],
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
        compiled, probe = targets[name]
        rng = _rng(seed, "defense", mode, name)
        cfg_tag, candidates = _defense_candidates(
            mode, probe, rng, DEFAULT_CONFIG
        )
        reference = probe.reference_for(cfg_tag)

        def verdict(schedule: List[FaultEvent]) -> Optional[Violation]:
            return _run_and_check(
                compiled, schedule, cfg_tag, defenses, reference, backend
            )[0]

        caught_schedule = None
        for schedule in candidates:
            entry["candidates_tried"] += 1
            if verdict(schedule) is not None:
                caught_schedule = schedule
                break
        if caught_schedule is None:
            continue

        minimal, evals = shrink_schedule(
            caught_schedule, lambda s: verdict(s) is not None,
            budget=SHRINK_BUDGET,
        )
        # record the minimal reproducer's actual violation
        violation = verdict(minimal)
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
    targets: Dict[str, Tuple[CompiledProgram, _Probe]],
    campaign: Campaign,
    say: Callable[[str], None],
    backend=None,
    jobs: int = 1,
    worker_timeout: Optional[float] = None,
) -> None:
    """Self-validation: every defense-off mode must be flagged, then its
    failing schedule is shrunk to a minimal reproducer (verified to still
    fail).  Modes are independent, so they shard round-robin across
    workers; entries are merged back in sorted-mode order."""
    modes = sorted(DEFENSE_OFF_MODES)
    entries = fan_out(
        lambda mode: _defense_mode_task(
            mode, result.benchmarks, targets, result.seed, backend
        ),
        modes, jobs=jobs, timeout=worker_timeout,
        label="defense-validation",
    )
    for mode, entry in zip(modes, entries):
        result.defense_results[mode] = entry
        campaign.trace.emit("defense_mode", mode=mode, **entry)
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


def _replayer(start: Dict, path: str) -> Callable[[Dict], Dict]:
    """Replay for a campaign trace: each scenario record goes back
    through :func:`_run_and_check`, built from the start record plus the
    record itself."""
    _check_trace_sharding(start, path)
    backend = get_backend(start.get("backend", "lightwsp-lrpo"))
    # per process: the serial path fills these for the whole trace, a
    # forked worker fills its own for its shard
    compiled: Dict[str, CompiledProgram] = {}
    references: Dict[Tuple[str, str], Dict[int, int]] = {}

    def rerun(record: Dict) -> Dict:
        name, cfg_tag = record["benchmark"], record["config"]
        if name not in compiled:
            compiled[name] = _compile(name, start["scale"])
        if (name, cfg_tag) not in references:
            references[name, cfg_tag] = reference_pm(
                compiled[name], config=CONFIGS[cfg_tag], backend=backend
            )
        defenses = (
            ALL_ON if record["mode"] == "all_on"
            else DEFENSE_OFF_MODES[record["mode"]]
        )
        return _run_and_check(
            compiled[name], schedule_from_json(record["schedule"]),
            cfg_tag, defenses, references[name, cfg_tag], backend,
        )[1]

    return rerun


PLANE = Plane(
    start="campaign_start",
    scenario="scenario_end",
    end="campaign_end",
    label="campaign",
    replay_label="replay",
    replayer=_replayer,
    name_of=lambda record: "%s/%s/%s" % (
        record["benchmark"], record["config"], record["fault_class"]
    ),
)
