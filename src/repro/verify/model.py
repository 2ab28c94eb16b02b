"""Diagnostics, reports, and configuration for the static verifier.

A :class:`Diagnostic` pins one violation to a rule, a function, an
instruction site, and a *witness path* — the concrete sequence of
program points that demonstrates the violation (the overflowing store
chain for R1, the live use for R2, the boundary-free cycle for R4...).
Witnesses are what make a verifier report actionable: they point at a
crash point, not just a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "RULES",
    "Site",
    "Diagnostic",
    "VerifyConfig",
    "VerifyReport",
    "VerificationError",
]

#: rule id -> (slug, one-line description of the invariant it proves)
RULES: Dict[str, Tuple[str, str]] = {
    "R1": (
        "store-budget",
        "no boundary-free path holds more store-like instructions than "
        "the threshold (WPQ/2)",
    ),
    "R2": (
        "checkpoint-completeness",
        "every register live-out at a boundary is covered by its recovery "
        "plan",
    ),
    "R3": (
        "boundary-coverage",
        "boundaries at function entry/exit, callsites, irrevocable I/O, "
        "synchronization, and storing loop headers",
    ),
    "R4": (
        "region-wellformedness",
        "no boundary-free cycle stores: region IDs advance monotonically "
        "and no region spans a back edge",
    ),
    "R5": (
        "checkpoint-slot-safety",
        "checkpoint slots written in the region that needs them, read "
        "only when fresh, never clobbered by data stores",
    ),
}


@dataclass(frozen=True)
class Site:
    """One program point: function, block label, instruction index."""

    function: str
    block: str
    index: int

    def __str__(self) -> str:
        return "%s:%s:%d" % (self.function, self.block, self.index)


@dataclass
class Diagnostic:
    """One verified invariant violation."""

    rule: str
    site: Site
    message: str
    #: "error" fails verification; "warn" is reported but does not gate
    #: (used for threshold overshoot the compiler itself declared via
    #: ``converged=False``, which stays crash-safe while <= WPQ size).
    severity: str = "error"
    #: rendered program points demonstrating the violation, in execution
    #: order ("func:block:idx  <instr>")
    witness: Tuple[str, ...] = ()
    #: uid of the implicated boundary instruction, when one exists
    boundary_uid: Optional[int] = None

    def format(self) -> str:
        slug = RULES.get(self.rule, ("?", ""))[0]
        lines = [
            "%s %s[%s] at %s: %s"
            % (self.severity.upper(), self.rule, slug, self.site, self.message)
        ]
        for step in self.witness:
            lines.append("    | %s" % step)
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "rule": self.rule,
            "slug": RULES.get(self.rule, ("?", ""))[0],
            "severity": self.severity,
            "function": self.site.function,
            "block": self.site.block,
            "index": self.site.index,
            "message": self.message,
            "witness": list(self.witness),
            "boundary_uid": self.boundary_uid,
        }


@dataclass(frozen=True)
class VerifyConfig:
    """What the verifier holds the program to."""

    #: region store budget — WPQ/2 in the paper's configuration
    threshold: int = 32
    #: hard capacity: a region above the threshold but within the WPQ is
    #: degraded service, not data loss (§IV-A); above the WPQ it is
    #: unrecoverable
    wpq_entries: int = 64
    #: True when the compiler declared non-convergence (tiny thresholds
    #: whose checkpoint groups alone overflow): threshold overshoot
    #: within the WPQ becomes a warning instead of an error
    allow_overshoot: bool = False
    #: word addresses [0, checkpoint_words) are the checkpoint array
    checkpoint_words: int = 33 * 64
    #: cap on witness-path length in diagnostics
    max_witness: int = 12

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be positive")
        if self.wpq_entries < self.threshold:
            raise ValueError("WPQ smaller than the threshold it backs")


@dataclass
class VerifyReport:
    """The outcome of verifying one program."""

    program: str
    config: VerifyConfig
    diagnostics: List[Diagnostic] = field(default_factory=list)
    functions: int = 0
    boundaries: int = 0
    checked_paths: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warn"]

    def format(self, limit: int = 20) -> str:
        head = "verify %s: %s (%d function(s), %d boundaries, %d error(s), %d warning(s))" % (
            self.program,
            "PASS" if self.ok else "FAIL",
            self.functions,
            self.boundaries,
            len(self.errors()),
            len(self.warnings()),
        )
        lines = [head]
        for diag in self.diagnostics[:limit]:
            lines.append(diag.format())
        if len(self.diagnostics) > limit:
            lines.append("... %d more diagnostic(s)" % (len(self.diagnostics) - limit))
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "program": self.program,
            "ok": self.ok,
            "threshold": self.config.threshold,
            "wpq_entries": self.config.wpq_entries,
            "allow_overshoot": self.config.allow_overshoot,
            "functions": self.functions,
            "boundaries": self.boundaries,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


class VerificationError(Exception):
    """Raised when verification gates execution and the program fails."""

    def __init__(self, report: VerifyReport) -> None:
        self.report = report
        super().__init__(report.format())
