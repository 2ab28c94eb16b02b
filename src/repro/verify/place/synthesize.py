"""Boundary-placement synthesis from the verifier's own dataflow.

Given a program with **no** instrumentation (or one whose instrumentation
is first stripped), compute a boundary + checkpoint placement that
satisfies all five recoverability rules — using only the verifier's
:class:`~repro.verify.graph.InstrGraph` and
:class:`~repro.verify.liveness.InstrLiveness`, deliberately independent
of the compiler's ``boundaries.py``/``checkpoints.py`` machinery, so the
two placements cannot share a bug.

The construction mirrors the proof obligations directly:

1. **Coverage (R3/R4b)** — a boundary at each function entry, before
   every ``ret``, around every callsite and irrevocable I/O, before
   every synchronization operation, and at the header of every storing
   loop.
2. **Budget fixpoint (R1)** — checkpoints are (re)derived from
   instruction-level live-outs, then the R1 forward max-count dataflow
   is run; every store it flags as crossing the budget gets a
   ``threshold`` boundary inserted immediately before it.  Checkpoint
   groups grow when boundaries are added, so the two steps iterate to a
   fixpoint (each pass adds at least one boundary and boundaries never
   exceed store sites, so it terminates; a pass cap declares
   non-convergence exactly like the compiler does).
3. **Plans (R2/R5)** — each boundary's recovery plan is the plain
   ``("ckpt",)`` reload of every register live-out of it, backed by the
   physical checkpoint group sitting immediately before the boundary
   (which is what makes the slots *fresh* in the R5 sense).

The returned program is re-checked by the full verifier; a failed check
raises :class:`PlacementError` (unless a deliberate ``_bug`` is seeded —
the mutation self-test uses those hooks to prove the verifier would
catch a buggy synthesizer).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ...compiler.checkpoints import RecoveryPlan
from ...compiler.ir import Function, Instr, Op, Program
from ...compiler.pipeline import CompiledProgram, CompileStats, clone_program, finish_compiled
from ...config import CompilerConfig
from ..graph import InstrGraph
from ..liveness import InstrLiveness
from ..model import VerifyConfig, VerifyReport
from ..rules import check_store_budget
from ..verifier import verify_program
from .report import PlacementAction, PlacementReport

__all__ = [
    "PlacementError",
    "SynthesisResult",
    "strip_instrumentation",
    "synthesize_placement",
]

#: budget-fixpoint pass cap; hitting it declares non-convergence (the
#: same contract as the compiler's region repartitioner)
MAX_BUDGET_PASSES = 32

#: deliberate-defect hooks for the mutation self-test
SYNTH_BUGS = ("off-by-one-budget", "drop-loop-header")


class PlacementError(RuntimeError):
    """Synthesis/minimization could not produce (or prove) a placement."""

    def __init__(
        self, message: str, report: Optional[VerifyReport] = None
    ) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class SynthesisResult:
    """A synthesized placement: runnable output plus the decision log."""

    compiled: CompiledProgram
    report: PlacementReport


def strip_instrumentation(program: Program) -> Program:
    """A clone of ``program`` with every boundary and checkpoint removed
    — the synthesizer's canonical input."""
    prog = clone_program(program)
    for func in prog.functions.values():
        for block in func.blocks.values():
            block.instrs = [
                i for i in block.instrs
                if i.op not in (Op.BOUNDARY, Op.CHECKPOINT)
            ]
    return prog


def _boundary(kind: str) -> Instr:
    return Instr(Op.BOUNDARY, note=kind)


def _insert_coverage(func: Function, actions: List[PlacementAction]) -> None:
    """Pass 1: the R3 adjacency boundaries (entry/exit/call/io/sync)."""

    def note(kind: str, label: str, index: int) -> None:
        actions.append(
            PlacementAction(
                action="inserted", kind=kind, function=func.name,
                block=label, index=index,
            )
        )

    for label, block in func.blocks.items():
        out: List[Instr] = []

        def put(kind: str) -> None:
            # Adjacent boundaries collapse: one boundary satisfies both
            # the preceding instruction's "followed by" and the next
            # instruction's "preceded by" obligation.
            if out and out[-1].op == Op.BOUNDARY:
                return
            note(kind, label, len(out))
            out.append(_boundary(kind))

        for instr in block.instrs:
            if instr.op == Op.RET:
                put("exit")
            elif instr.op == Op.CALL:
                put("call")
            elif instr.op in Op.IRREVOCABLE:
                put("io")
            elif instr.op in Op.SYNC:
                put("sync")
            out.append(instr)
            # Calls and irrevocable I/O must also be *followed* by a
            # boundary (the I/O sits alone in its region).
            if instr.op == Op.CALL:
                put("call")
            elif instr.op in Op.IRREVOCABLE:
                put("io")
        block.instrs = out

    entry = func.blocks[func.entry]
    if not entry.instrs or entry.instrs[0].op != Op.BOUNDARY:
        note("entry", func.entry, 0)
        entry.instrs.insert(0, _boundary("entry"))


def _insert_loop_headers(
    func: Function, actions: List[PlacementAction]
) -> None:
    """Pass 1b: a boundary at the header of every storing loop."""
    graph = InstrGraph(func)
    for tail, head in graph.back_edges():
        body = graph.loop_body(tail, head)
        if not any(
            instr.op in (Op.STORE, Op.ATOMIC_RMW)
            for lbl in body
            for instr in func.blocks[lbl].instrs
        ):
            continue
        header = func.blocks[head]
        if any(i.op == Op.BOUNDARY for i in header.instrs):
            continue
        actions.append(
            PlacementAction(
                action="inserted", kind="loop", function=func.name,
                block=head, index=0,
            )
        )
        header.instrs.insert(0, _boundary("loop"))


def _reinsert_checkpoints(func: Function) -> None:
    """Derive checkpoint groups from the verifier's instruction-level
    live-outs: one checkpoint per live-out register, immediately before
    its boundary (which anchors R5 freshness and slot ownership)."""
    for block in func.blocks.values():
        block.instrs = [i for i in block.instrs if i.op != Op.CHECKPOINT]
    graph = InstrGraph(func)
    live = InstrLiveness(graph)
    for label, block in func.blocks.items():
        out: List[Instr] = []
        for idx, instr in enumerate(block.instrs):
            if instr.op == Op.BOUNDARY:
                for reg in sorted(live.live_out.get((label, idx), ())):
                    out.append(Instr(Op.CHECKPOINT, srcs=(reg,), note=reg))
            out.append(instr)
        block.instrs = out


def _budget_cfg(budget: int, checkpoint_words: int) -> VerifyConfig:
    return VerifyConfig(
        threshold=budget,
        wpq_entries=max(2 * budget, budget + 1),
        allow_overshoot=False,
        checkpoint_words=checkpoint_words,
    )


def _enforce_budget(
    func: Function,
    budget: int,
    checkpoint_words: int,
    actions: List[PlacementAction],
) -> Tuple[int, bool]:
    """Pass 2: iterate checkpoint derivation + R1 dataflow, inserting a
    ``threshold`` boundary before every store the dataflow flags, until
    quiescent.  Returns (passes, converged)."""
    cfg = _budget_cfg(budget, checkpoint_words)
    for iteration in range(1, MAX_BUDGET_PASSES + 1):
        _reinsert_checkpoints(func)
        graph = InstrGraph(func)
        flagged = check_store_budget(graph, cfg)
        if not flagged:
            return iteration, True
        sites: Dict[str, Set[int]] = {}
        for diag in flagged:
            sites.setdefault(diag.site.block, set()).add(diag.site.index)
        inserted = False
        for label in sorted(sites):
            block = func.blocks[label]
            for idx in sorted(sites[label], reverse=True):
                at = idx
                if block.instrs[idx].op == Op.CHECKPOINT:
                    # Never split a checkpoint group: cut between the
                    # preceding code and the whole group, so the group
                    # stays adjacent to the boundary it feeds (R5).
                    while (
                        at > 0
                        and block.instrs[at - 1].op == Op.CHECKPOINT
                    ):
                        at -= 1
                if at == 0 or block.instrs[at - 1].op == Op.BOUNDARY:
                    # A region consisting of nothing but one checkpoint
                    # group already exceeds the budget: no cut can fix
                    # it.  Declare non-convergence, as the compiler's
                    # repartitioner does for unsplittable groups.
                    continue
                actions.append(
                    PlacementAction(
                        action="inserted", kind="threshold",
                        function=func.name, block=label, index=at,
                    )
                )
                block.instrs.insert(at, _boundary("threshold"))
                inserted = True
        if not inserted:
            return iteration, False
    return MAX_BUDGET_PASSES, False


def _collect_plans(func: Function, plans: Dict[int, RecoveryPlan]) -> None:
    """Pass 3: one plain slot-reload recipe per live-out register of
    each boundary, matching the physical checkpoint group before it."""
    graph = InstrGraph(func)
    live = InstrLiveness(graph)
    for label, block in func.blocks.items():
        for idx, instr in enumerate(block.instrs):
            if instr.op != Op.BOUNDARY:
                continue
            recipes = {
                reg: ("ckpt",)
                for reg in sorted(live.live_out.get((label, idx), ()))
            }
            plans[instr.uid] = RecoveryPlan(instr.uid, recipes)


def _drop_loop_headers(func: Function) -> None:
    """The seeded 'dropped loop-header boundary' defect: a buggy late
    cleanup pass deleting every loop-kind boundary after the fixpoint."""
    for block in func.blocks.values():
        out: List[Instr] = []
        for instr in block.instrs:
            if instr.op == Op.BOUNDARY and instr.note == "loop":
                while out and out[-1].op == Op.CHECKPOINT:
                    out.pop()
                continue
            out.append(instr)
        block.instrs = out


def synthesize_placement(
    program: Program,
    config: Optional[CompilerConfig] = None,
    budget: Optional[int] = None,
    check: bool = True,
    _bug: Optional[str] = None,
) -> SynthesisResult:
    """Compute a verified boundary placement for ``program``.

    The input's existing instrumentation (if any) is stripped first, so
    both raw ``.lir`` programs and compiler output are accepted.
    ``budget`` is the R1 store budget (defaults to the config's
    threshold).  ``check=True`` re-verifies the output with the full
    verifier and raises :class:`PlacementError` on any error.  ``_bug``
    seeds a deliberate defect (see :data:`SYNTH_BUGS`) for the mutation
    self-test; it implies no final check by the synthesizer itself.
    """
    if _bug is not None and _bug not in SYNTH_BUGS:
        raise ValueError("unknown seeded bug %r (want one of %s)"
                         % (_bug, ", ".join(SYNTH_BUGS)))
    config = config or CompilerConfig()
    budget = budget if budget is not None else config.store_threshold
    effective = budget + 1 if _bug == "off-by-one-budget" else budget
    checkpoint_words = (
        Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS
    )

    prog = strip_instrumentation(program)
    actions: List[PlacementAction] = []
    plans: Dict[int, RecoveryPlan] = {}
    passes = 0
    converged = True
    for func in prog.functions.values():
        _insert_coverage(func, actions)
        _insert_loop_headers(func, actions)
        fn_passes, fn_converged = _enforce_budget(
            func, effective, checkpoint_words, actions
        )
        passes = max(passes, fn_passes)
        converged = converged and fn_converged
        if _bug == "drop-loop-header":
            _drop_loop_headers(func)
        # Re-derive groups once more: a pass-cap exit (or the seeded
        # defect) can leave boundaries without their checkpoint group.
        _reinsert_checkpoints(func)
        _collect_plans(func, plans)

    stats = CompileStats(
        functions=len(prog.functions), converged=converged,
    )
    # The synthesis budget *is* the output's store threshold, so
    # ``derive_config`` audits the result against the right bound.
    out_config = (
        config
        if config.store_threshold == budget
        else dataclasses.replace(config, store_threshold=budget)
    )
    compiled = CompiledProgram(
        program=prog, plans=plans, stats=stats, config=out_config,
    )
    finish_compiled(compiled)

    cfg = VerifyConfig(
        threshold=budget,
        wpq_entries=max(2 * budget, budget + 1),
        allow_overshoot=not converged,
        checkpoint_words=checkpoint_words,
    )
    verify_report = verify_program(prog, plans, cfg)
    report = PlacementReport(
        program=prog.name,
        mode="synthesize",
        budget=budget,
        boundaries_before=0,
        boundaries_after=stats.boundaries,
        checkpoints_before=0,
        checkpoints_after=stats.checkpoint_stores,
        iterations=passes,
        verify_ok=not verify_report.errors(),
        actions=actions,
    )
    if check and _bug is None and verify_report.errors():
        raise PlacementError(
            "synthesized placement for %r fails verification:\n%s"
            % (prog.name, verify_report.format()),
            verify_report,
        )
    return SynthesisResult(compiled=compiled, report=report)
