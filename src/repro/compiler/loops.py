"""Natural-loop discovery and simple trip-count analysis.

The region partitioner places a boundary at the header of every loop that
contains stores (§IV-A), and the region-size-extension pass unrolls loops —
with a static factor when the trip count is a known constant, speculatively
(body + exit-check duplication) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cfg import CFG
from .ir import Function, Op

__all__ = ["NaturalLoop", "find_loops", "constant_trip_count"]


@dataclass
class NaturalLoop:
    """A natural loop: the header plus all blocks that can reach a latch
    without leaving through the header."""

    header: str
    latches: Tuple[str, ...]
    body: Set[str] = field(default_factory=set)

    def contains_stores(self, func: Function) -> bool:
        return any(func.blocks[lbl].store_count() > 0 for lbl in self.body)

    def store_count(self, func: Function) -> int:
        return sum(func.blocks[lbl].store_count() for lbl in self.body)


def find_loops(func: Function, cfg: Optional[CFG] = None) -> List[NaturalLoop]:
    """All natural loops, merged per header (a header with several back
    edges yields one loop whose body is the union)."""
    cfg = cfg or CFG(func)
    by_header: Dict[str, List[str]] = {}
    for tail, head in cfg.back_edges():
        by_header.setdefault(head, []).append(tail)

    loops: List[NaturalLoop] = []
    for header, latches in sorted(by_header.items()):
        body: Set[str] = {header}
        stack = [latch for latch in latches]
        while stack:
            label = stack.pop()
            if label in body:
                continue
            body.add(label)
            stack.extend(cfg.preds[label])
        loops.append(NaturalLoop(header=header, latches=tuple(sorted(latches)), body=body))
    return loops


def constant_trip_count(func: Function, loop: NaturalLoop) -> Optional[int]:
    """Detect the canonical counted-loop idiom produced by our builder::

        header:  ...body...
                 add  i, i, step        (constant step)
                 lt   c, i, N           (constant bound)
                 cbr  c, header, exit

    and return its remaining trip count, or None when the loop shape is
    anything else.  This deliberately recognizes only the simple shape —
    the speculative-unrolling path handles the rest, as in the paper.
    """
    if len(loop.latches) != 1:
        return None
    latch = func.blocks[loop.latches[0]]
    if len(latch.instrs) < 3:
        return None
    term = latch.terminator()
    if term is None or term.op != Op.CBR or term.targets[0] != loop.header:
        return None
    cmp_instr = latch.instrs[-2]
    if cmp_instr.op not in (Op.LT, Op.LE, Op.NE) or cmp_instr.dst != term.srcs[0]:
        return None
    if not isinstance(cmp_instr.srcs[1], int):
        return None
    bound = cmp_instr.srcs[1]
    induction = cmp_instr.srcs[0]
    if not isinstance(induction, str):
        return None
    step_instr = latch.instrs[-3]
    if (
        step_instr.op != Op.ADD
        or step_instr.dst != induction
        or step_instr.srcs[0] != induction
        or not isinstance(step_instr.srcs[1], int)
        or step_instr.srcs[1] <= 0
    ):
        return None
    step = step_instr.srcs[1]

    # The step must be the *only* def of the induction register anywhere in
    # the loop, or the arithmetic below is fiction (and static unrolling,
    # which drops intermediate exit checks, would be unsound).
    for label in loop.body:
        for instr in func.blocks[label].instrs:
            if induction in instr.defs() and instr is not step_instr:
                return None

    # Find the constant initialization of the induction variable:  it must
    # be a `const` in a block outside the loop (typically the preheader).
    init: Optional[int] = None
    for label, block in func.blocks.items():
        if label in loop.body:
            continue
        for instr in block.instrs:
            if instr.dst == induction:
                if instr.op == Op.CONST:
                    init = instr.imm
                else:
                    return None  # initialized non-trivially
    if init is None:
        return None
    if cmp_instr.op == Op.LT:
        remaining = max(0, -(-(bound - init) // step))
    elif cmp_instr.op == Op.LE:
        remaining = max(0, -(-(bound - init + 1) // step))
    else:  # NE: only exact hits terminate
        if (bound - init) % step != 0:
            return None
        remaining = (bound - init) // step
    return remaining
