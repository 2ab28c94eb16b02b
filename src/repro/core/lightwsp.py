"""LightWSP itself: the scheme policy and top-level entry points.

LightWSP's timing behaviour on the shared engine:

* every store (data, checkpoint, PC-checkpointing boundary) places one
  8-byte entry on the non-temporal persist path,
* WPQs are **gated**: entries quarantine per region and flush via the
  commit pipeline — lazy region-level persist ordering (§III-B),
* the core **never waits** at a region boundary; the only stalls are
  front-end-buffer back-pressure when the path or WPQ cannot keep up.

Hardware cost (§V-G4): a 2-byte flush ID per MC — everything else (WCB as
front-end buffer, battery-backed WPQ) already exists.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..compiler.interp import run_single, run_threads
from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..runtime.backends import LIGHTWSP
from ..runtime.policy import SchemePolicy
from ..sim.engine import SimResult, simulate
from ..trace import TraceEvent

__all__ = ["LIGHTWSP", "lightwsp_policy", "simulate_lightwsp", "trace_of"]


def lightwsp_policy() -> SchemePolicy:
    """The LightWSP timing policy (defined once, in
    :mod:`repro.runtime.backends`)."""
    return LIGHTWSP


def trace_of(
    compiled: CompiledProgram,
    entries: Sequence[Tuple[str, Sequence[int]]] = (("main", ()),),
    max_steps: int = 4_000_000,
) -> Sequence[TraceEvent]:
    """The dynamic trace of a compiled program (single- or multi-thread)."""
    if len(entries) == 1:
        fname, args = entries[0]
        events, _ = run_single(
            compiled.program, fname, args=args, max_steps=max_steps
        )
        return events
    events, _ = run_threads(compiled.program, entries, max_steps=max_steps)
    return events


def simulate_lightwsp(
    compiled: CompiledProgram,
    config: SystemConfig = DEFAULT_CONFIG,
    entries: Sequence[Tuple[str, Sequence[int]]] = (("main", ()),),
    cache_scale: Optional[float] = None,
) -> SimResult:
    """Compile-trace-simulate convenience for the common case."""
    events = trace_of(compiled, entries)
    return simulate(events, config, LIGHTWSP, cache_scale=cache_scale)
