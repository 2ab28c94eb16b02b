"""Verifier-backed boundary minimization.

The compiler places boundaries conservatively: every loop header of a
storing loop gets one, even when an inner loop's boundary already cuts
every storing cycle, and threshold repartitioning can leave slack.  The
minimizer deletes every boundary whose removal the verifier *proves*
safe — the store budget keeps its slack (R1), checkpoint coverage is
preserved (R2/R5), and no storing cycle or uncovered irrevocable
operation is exposed (R3/R4) — iterating to a fixpoint.

Every kept candidate is justified: the report records the verifier
diagnostics (witness paths included) that vetoed its removal.

Soundness is inherited, not argued: a removal is accepted only if the
full rule set still passes with **no errors and no new warnings**
relative to the program's own baseline.  The "no new warnings" clause
matters for non-converged compiles, where R1 overshoot is downgraded to
warnings — minimization must not silently widen an already-overshooting
region.

Termination: each accepted removal strictly decreases the boundary
count, which is finite and never increased; each vetoed candidate is
marked and never retried at the same site.  So the fixpoint loop does
at most ``boundaries`` accepting passes.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ...compiler.ir import Function, Op
from ...compiler.pipeline import CompiledProgram, finish_compiled
from ..model import Diagnostic, VerifyConfig
from ..verifier import derive_config, verify_function, verify_program
from .report import KeptBoundary, PlacementAction, PlacementReport
from .synthesize import PlacementError

__all__ = ["MINIMIZE_BUGS", "minimize_compiled"]

#: boundary kinds the minimizer never touches: they discharge the R3
#: adjacency obligations (entry/ret/call/io/sync), which no other
#: boundary can discharge for them.
_ANCHORED = frozenset({"entry", "exit", "call", "sync", "io"})

#: deliberate-defect hooks for the mutation self-test
MINIMIZE_BUGS = ("unsafe-merge",)


def _warn_count(diags: List[Diagnostic]) -> int:
    return sum(1 for d in diags if d.severity == "warn")


def _error_count(diags: List[Diagnostic]) -> int:
    return sum(1 for d in diags if d.severity == "error")


def _candidate_sites(func: Function) -> List[Tuple[str, int]]:
    """(label, index) of every removable-in-principle boundary, indices
    descending per block so earlier deletions don't shift later ones."""
    sites: List[Tuple[str, int]] = []
    for label in func.block_order():
        block = func.blocks[label]
        for idx in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[idx]
            if instr.op == Op.BOUNDARY and instr.note not in _ANCHORED:
                sites.append((label, idx))
    return sites


def minimize_compiled(
    compiled: CompiledProgram,
    cfg: Optional[VerifyConfig] = None,
    check: bool = True,
    _bug: Optional[str] = None,
) -> PlacementReport:
    """Remove every provably-redundant boundary from ``compiled``,
    **in place**, and return the placement report.

    ``cfg`` defaults to the program's own audit config
    (:func:`~repro.verify.verifier.derive_config`).  ``check=True``
    re-runs the full verifier on the final program and raises
    :class:`PlacementError` if minimization somehow broke it (it cannot,
    unless a ``_bug`` is seeded).
    """
    if _bug is not None and _bug not in MINIMIZE_BUGS:
        raise ValueError("unknown seeded bug %r (want one of %s)"
                         % (_bug, ", ".join(MINIMIZE_BUGS)))
    cfg = cfg or derive_config(compiled)
    prog = compiled.program

    boundaries_before = compiled.stats.boundaries
    checkpoints_before = compiled.stats.checkpoint_stores
    actions: List[PlacementAction] = []
    kept: List[KeptBoundary] = []
    bug_budget = 1 if _bug == "unsafe-merge" else 0
    iterations = 0

    for func in prog.functions.values():
        # Rules are intra-procedural, so candidate trials only re-verify
        # this one function; the cross-function report is settled once
        # at the end.
        baseline = verify_function(func, compiled.plans, cfg)
        base_warns = _warn_count(baseline)
        vetoed: Set[int] = set()
        changed = True
        while changed:
            changed = False
            iterations += 1
            for label, idx in _candidate_sites(func):
                block = func.blocks[label]
                instr = block.instrs[idx]
                if instr.uid in vetoed:
                    continue
                # The boundary and the contiguous checkpoint group
                # feeding it leave together.
                start = idx
                while (
                    start > 0
                    and block.instrs[start - 1].op == Op.CHECKPOINT
                ):
                    start -= 1
                saved = block.instrs[start:idx + 1]
                del block.instrs[start:idx + 1]
                plan = compiled.plans.pop(instr.uid, None)

                diags = verify_function(func, compiled.plans, cfg)
                unsafe = (
                    _error_count(diags) > 0
                    or _warn_count(diags) > base_warns
                )
                if unsafe and bug_budget > 0:
                    # Seeded 'unsafe merge' defect: ignore the first
                    # veto and merge the regions anyway.
                    bug_budget -= 1
                    unsafe = False
                    diags = []
                if unsafe:
                    block.instrs[start:start] = saved
                    if plan is not None:
                        compiled.plans[instr.uid] = plan
                    vetoed.add(instr.uid)
                    kept.append(
                        KeptBoundary(
                            kind=instr.note or "plain",
                            function=func.name,
                            block=label,
                            index=idx,
                            reason="removal vetoed by %s"
                            % ", ".join(
                                sorted({d.rule for d in diags})
                            ),
                            diagnostics=list(diags),
                        )
                    )
                else:
                    actions.append(
                        PlacementAction(
                            action="removed",
                            kind=instr.note or "plain",
                            function=func.name,
                            block=label,
                            index=idx,
                            checkpoints=len(saved) - 1,
                        )
                    )
                    changed = True
                    # Start a fresh scan: indices in this block moved.
                    break

    # Anchored boundaries are kept by construction; record why.
    for func in prog.functions.values():
        for label in func.block_order():
            for idx, instr in enumerate(func.blocks[label].instrs):
                if instr.op == Op.BOUNDARY and instr.note in _ANCHORED:
                    kept.append(
                        KeptBoundary(
                            kind=instr.note,
                            function=func.name,
                            block=label,
                            index=idx,
                            reason="anchored: discharges an R3 "
                            "adjacency obligation",
                        )
                    )

    # Finish the edited program again: the interpreter trusts the
    # dispatch table the compile lowered, and never rechecks it.
    finish_compiled(compiled)
    stats = compiled.stats
    stats.minimized_boundaries = boundaries_before - stats.boundaries

    final = verify_program(prog, compiled.plans, cfg)
    report = PlacementReport(
        program=prog.name,
        mode="minimize",
        budget=cfg.threshold,
        boundaries_before=boundaries_before,
        boundaries_after=stats.boundaries,
        checkpoints_before=checkpoints_before,
        checkpoints_after=stats.checkpoint_stores,
        iterations=iterations,
        verify_ok=final.ok,
        actions=actions,
        kept=kept,
    )
    if check and _bug is None and not final.ok:
        raise PlacementError(
            "minimized placement for %r fails verification:\n%s"
            % (prog.name, final.format()),
            final,
        )
    return report
