"""The benchmark-regression gate: diff two ``BENCH_*.json`` artifacts.

Each metric has a declared direction; a *gated* metric that moves in
the bad direction by more than the threshold (default 10%) is a
regression and fails the diff.  Wall-clock fields never gate — they
vary with the host — and neither do workload-size counters (``ops``,
``instructions``): those are inputs, not outcomes, but a *change* in
them is reported so a silently resized workload can't masquerade as a
speedup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "LOWER_IS_BETTER",
    "HIGHER_IS_BETTER",
    "BenchDiff",
    "Regression",
    "diff_reports",
    "load_report",
    "format_diff",
]

#: gated metrics where a decrease is an improvement
LOWER_IS_BETTER = frozenset({
    "cycles", "slowdown", "persist_entries", "persist_bytes",
    "p50", "p95", "p99", "mean", "sim_ns", "commits",
})

#: gated metrics where an increase is an improvement
HIGHER_IS_BETTER = frozenset({
    "throughput_minst_s", "throughput_mops", "efficiency",
})

#: reported-but-never-gating (host-dependent or workload-size inputs)
INFORMATIONAL = frozenset({"wall_s", "ops", "instructions", "epochs"})


@dataclass
class Regression:
    """One gated metric that got worse past the threshold."""

    entry: str
    metric: str
    baseline: float
    current: float
    change: float      # signed fraction, positive == worse

    def format(self) -> str:
        return (
            "%-16s %-18s %12.4g -> %-12.4g (%+.1f%% worse)"
            % (self.entry, self.metric, self.baseline, self.current,
               self.change * 100.0)
        )


@dataclass
class BenchDiff:
    """The verdict of one baseline comparison."""

    threshold: float
    compared: int = 0                      # gated metric comparisons made
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    #: entries present on only one side, or whose size-inputs changed
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_report(path: str) -> Dict:
    """Read a ``BENCH_*.json`` artifact.  Raises ``ValueError`` naming the
    path and the first field whose shape :func:`diff_reports` cannot
    compare: the artifact is an object whose ``entries`` is an object of
    objects, each with a ``metrics`` object of numbers."""
    with open(path) as fh:
        payload = json.load(fh)

    def malformed(field: str, want: str) -> ValueError:
        return ValueError("%s: %s is not %s" % (path, field, want))

    if not isinstance(payload, dict):
        raise malformed("top level", "an object")
    if payload.get("kind") != "repro-bench":
        raise ValueError("%s is not a repro-bench artifact" % path)
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise malformed("entries", "an object")
    for name, entry in entries.items():
        field = "entries.%s" % name
        if not isinstance(entry, dict):
            raise malformed(field, "an object")
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            raise malformed(field + ".metrics", "an object")
        for metric, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise malformed("%s.metrics.%s" % (field, metric), "a number")
    return payload


def _worseness(metric: str, base: float, cur: float) -> float:
    """Signed fraction by which ``cur`` is worse than ``base`` (positive
    == regression) for a gated metric."""
    if metric in LOWER_IS_BETTER:
        return (cur - base) / base
    return (base - cur) / base


def diff_reports(
    baseline: Dict, current: Dict, threshold: float = 0.10
) -> BenchDiff:
    """Compare two bench artifacts (parsed JSON); see module docstring."""
    diff = BenchDiff(threshold=threshold)
    base_entries = baseline.get("entries", {})
    cur_entries = current.get("entries", {})
    for name in sorted(set(base_entries) | set(cur_entries)):
        if name not in cur_entries:
            diff.notes.append("entry %s missing from current run" % name)
            continue
        if name not in base_entries:
            diff.notes.append("entry %s is new (no baseline)" % name)
            continue
        base_m = base_entries[name].get("metrics", {})
        cur_m = cur_entries[name].get("metrics", {})
        for metric in sorted(set(base_m) & set(cur_m)):
            base, cur = base_m[metric], cur_m[metric]
            if metric in INFORMATIONAL:
                if base != cur and metric != "wall_s":
                    diff.notes.append(
                        "%s: size input %s changed %g -> %g (comparison "
                        "may not be like-for-like)"
                        % (name, metric, base, cur)
                    )
                continue
            if metric not in LOWER_IS_BETTER | HIGHER_IS_BETTER:
                continue
            if base == 0.0:
                if cur != 0.0:
                    diff.notes.append(
                        "%s: %s baseline is 0, cannot compute a ratio "
                        "(now %g)" % (name, metric, cur)
                    )
                continue
            diff.compared += 1
            worse = _worseness(metric, base, cur)
            record = Regression(
                entry=name, metric=metric, baseline=base, current=cur,
                change=worse,
            )
            if worse > threshold:
                diff.regressions.append(record)
            elif worse < -threshold:
                diff.improvements.append(record)
    return diff


def format_diff(diff: BenchDiff) -> str:
    lines = [
        "baseline diff: %d gated comparisons, threshold %.0f%%"
        % (diff.compared, diff.threshold * 100.0)
    ]
    for reg in diff.regressions:
        lines.append("  REGRESSION " + reg.format())
    for imp in diff.improvements:
        lines.append("  improved   " + imp.format())
    for note in diff.notes:
        lines.append("  note: " + note)
    lines.append(
        "verdict: %s"
        % ("PASS" if diff.ok else
           "FAIL (%d regression(s) past %.0f%%)"
           % (len(diff.regressions), diff.threshold * 100.0))
    )
    return "\n".join(lines)
