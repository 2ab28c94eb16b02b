"""Cross-layer validation: the functional machine, the interpreter trace,
and the timing engine describe the *same* execution, so their independent
counters must agree.  These checks catch a whole class of silent bugs
(an event kind dropped by one layer, regions counted differently, stores
double-tagged) that no single layer's tests can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.machine import PersistentMachine
from ..runtime.backends import LIGHTWSP
from ..sim.engine import simulate
from ..trace import count_events
from .experiments import trace_of

__all__ = ["CrossCheck", "cross_validate"]

Entries = Sequence[Tuple[str, Sequence[int]]]


@dataclass
class CrossCheck:
    """One agreement (or disagreement) between two layers."""

    name: str
    functional: float
    timing: float

    @property
    def ok(self) -> bool:
        return self.functional == self.timing

    def __str__(self) -> str:
        mark = "OK " if self.ok else "FAIL"
        return "%s %-28s functional=%s timing=%s" % (
            mark, self.name, self.functional, self.timing
        )


def cross_validate(
    compiled: CompiledProgram,
    entries: Entries = (("main", ()),),
    config: SystemConfig = DEFAULT_CONFIG,
) -> List[CrossCheck]:
    """Run the same compiled program through the functional machine and
    the timing engine (same single-threaded schedule for determinism) and
    compare every counter both layers maintain.

    Multi-threaded programs interleave differently between the layers
    (the machine schedules, the engine replays the interpreter's
    schedule), so only schedule-independent counters are compared there.
    """
    events = trace_of(compiled.program, entries=entries)
    stats = count_events(events)
    timing = simulate(events, config, LIGHTWSP)

    machine = PersistentMachine(compiled, entries=entries, config=config)
    if not machine.run():
        raise RuntimeError("functional machine did not finish")

    single = len(entries) == 1
    checks = [
        CrossCheck(
            "instructions (trace vs engine)",
            stats.instructions,
            timing.instructions,
        ),
        CrossCheck(
            "persist entries (trace vs engine)",
            stats.persist_entries,
            timing.persist_entries,
        ),
        CrossCheck(
            "regions (trace vs engine)",
            stats.boundaries,
            timing.regions,
        ),
        CrossCheck(
            "stores (machine vs trace)",
            machine.stats.stores,
            stats.persist_entries,
        ),
    ]
    if single:
        checks.append(
            CrossCheck(
                "instructions (machine vs trace)",
                machine.stats.steps,
                stats.instructions + 1,  # trace counts exclude HALT
            )
        )
        checks.append(
            CrossCheck(
                "boundaries (machine vs trace)",
                machine.stats.boundaries,
                stats.boundaries,
            )
        )
    return checks
