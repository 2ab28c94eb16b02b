"""The campaign kernel: the one seeded-campaign loop and the one replay
path behind both fault campaigns, the machine-level sweep
(:mod:`repro.faults.campaign`) and the cluster chaos campaign
(:mod:`repro.cluster.chaos`).

A campaign fans independent *units* (a benchmark; a backend and seed)
out over worker processes and records them as one JSONL trace: a start
record that is the campaign's whole parameter set, each unit's scenario
records in unit order, and a closing summary.  A unit's run is a
function of the start record and the unit alone, so the trace is all
replay needs to re-run every scenario and check that its outcome
reproduces bit for bit.

A campaign describes itself to the kernel as a :class:`Plane`.  The
plane keeps its schedule generator, its one run-and-check function and
its oracle; the kernel owns the trace lifecycle, the fan-out in unit
order, record emission and :func:`replay_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..parallel import fan_out
from ..trace import JsonlTrace, NullTrace, read_trace

__all__ = ["Campaign", "Plane", "replay_campaign"]

#: what a sweep worker returns for one unit: its scenario records, in
#: order, and whatever else the plane keeps for itself
UnitResult = Tuple[List[Dict], Any]


@dataclass(frozen=True)
class Plane:
    """What the kernel needs to know about one kind of campaign."""

    #: record types: the start record, one per scenario, the summary
    start: str
    scenario: str
    end: str
    #: ``fan_out`` labels of the sweep and of replay (worker diagnostics)
    label: str
    replay_label: str
    #: ``replayer(start, path)`` prepares to replay one trace, raising
    #: ValueError if this build cannot reproduce it.  The function it
    #: returns re-runs one scenario record and returns the outcome
    #: fields that record must carry.
    replayer: Callable[[Dict, str], Callable[[Dict], Dict]]
    #: a scenario record's name in progress lines and mismatches
    name_of: Callable[[Dict], str]


class Campaign:
    """One campaign's trace: opened with its start record, fed each
    unit's scenario records in unit order by :meth:`sweep`, ended with
    the summary.  Use it as a context manager; the trace file closes on
    the way out, and a campaign that raised leaves a trace without a
    summary."""

    def __init__(
        self, plane: Plane, start: Dict, trace_path: Optional[str]
    ) -> None:
        self.plane = plane
        self.trace = JsonlTrace(trace_path) if trace_path else NullTrace()
        self.trace.emit(plane.start, **start)

    def sweep(
        self,
        worker: Callable[[Any], UnitResult],
        units: Sequence[Any],
        jobs: int = 1,
        worker_timeout: Optional[float] = None,
    ) -> List[UnitResult]:
        """Run ``worker`` on every unit over up to ``jobs`` processes and
        record each unit's scenarios.  Results come back and are
        recorded in unit order, so the trace is the same at any
        ``jobs``."""
        results = fan_out(
            worker, units, jobs=jobs, timeout=worker_timeout,
            label=self.plane.label,
        )
        for records, _ in results:
            for record in records:
                self.trace.emit(self.plane.scenario, **record)
        return results

    def end(self, **summary: Any) -> None:
        self.trace.emit(self.plane.end, **summary)

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.trace.close()


def replay_campaign(
    path: str,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> Dict:
    """Re-run every scenario a campaign trace records and check that
    each outcome reproduces field for field.

    Scenarios are independent, so ``jobs > 1`` fans them out; the report,
    ``{"checked": n, "mismatches": [str, ...]}``, is in recorded order
    at any ``jobs``.  A trace this build cannot use raises ValueError:
    an unsupported schema major, a first record that starts no known
    campaign, a start record the plane refuses, or no scenario records
    at all (nothing checked is not a pass)."""
    from ..obs.schema import ensure_supported_version

    say = progress or (lambda msg: None)
    records = read_trace(path)
    ensure_supported_version(records, path)
    plane = _plane_of(records[0] if records else {}, path)
    rerun = plane.replayer(records[0], path)
    scenarios = [r for r in records if r.get("type") == plane.scenario]
    if not scenarios:
        raise ValueError(
            "%s has no %s records: there is nothing to replay"
            % (path, plane.scenario)
        )

    def check(record: Dict) -> List[str]:
        outcome = rerun(record)
        return [
            "%s: %s %s, trace recorded %s"
            % (plane.name_of(record), key, outcome[key], record.get(key))
            for key in sorted(outcome) if outcome[key] != record.get(key)
        ]

    outcomes = fan_out(check, scenarios, jobs=jobs, label=plane.replay_label)
    mismatches: List[str] = []
    for record, found in zip(scenarios, outcomes):
        say("  replayed %s: %s" % (
            plane.name_of(record), "MISMATCH" if found else "ok",
        ))
        mismatches.extend(found)
    return {"checked": len(scenarios), "mismatches": mismatches}


def _plane_of(first: Dict, path: str) -> Plane:
    """The plane whose start record opens the trace.  Both planes
    import this module, so each is imported here, on demand."""
    rectype = first.get("type")
    if rectype == "campaign_start":
        from .campaign import PLANE

        return PLANE
    if rectype == "cluster_campaign_start":
        from ..cluster.chaos import PLANE as CLUSTER_PLANE

        return CLUSTER_PLANE
    raise ValueError("not a campaign trace: %s" % path)
