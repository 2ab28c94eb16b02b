"""The LightWSP compiler driver (Fig. 3).

``compile_program`` clones the input program and runs, per function:

1. loop unrolling / speculative unrolling (region size extension),
2. initial region-boundary insertion,
3. per-block threshold enforcement + boundary normalization,
4. liveness analysis + checkpoint insertion,
5. region formation (combine / repartition fixpoint),
6. checkpoint pruning + recovery-plan collection.

The result is a :class:`CompiledProgram`: the instrumented IR, the
per-boundary recovery plans, and static statistics (§V-G3 reports the
dynamic counterparts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import CompilerConfig
from .boundaries import (
    enforce_threshold_in_blocks,
    insert_initial_boundaries,
    max_region_store_count,
    normalize_boundaries,
)
from .checkpoints import RecoveryPlan, collect_recovery_plans, prune_checkpoints
from .interp import precompile_dispatch
from .ir import Function, Op, Program
from .opt import optimize_function
from .regions import RegionFormationStats, form_regions
from .unroll import UnrollStats, unroll_loops

__all__ = [
    "CompiledProgram",
    "CompileStats",
    "compile_program",
    "clone_program",
    "finish_compiled",
    "set_default_verify",
]

#: process-wide default for post-compile verification (tests/conftest.py
#: turns it on for the whole suite)
_DEFAULT_VERIFY = False


def set_default_verify(enabled: bool) -> None:
    """Set the process-wide default for ``compile_program(verify=None)``."""
    global _DEFAULT_VERIFY
    _DEFAULT_VERIFY = enabled


@dataclass
class CompileStats:
    """Static compilation statistics, per program."""

    functions: int = 0
    boundaries: int = 0
    checkpoint_stores: int = 0
    pruned_checkpoints: int = 0
    data_stores: int = 0
    max_region_stores: int = 0
    minimized_boundaries: int = 0
    converged: bool = True
    folded: int = 0
    eliminated: int = 0
    unroll: UnrollStats = field(default_factory=UnrollStats)
    region_formation: List[RegionFormationStats] = field(default_factory=list)

    @property
    def instrumentation_stores(self) -> int:
        """Stores the compiler added (checkpoints + PC-checkpointing
        boundaries) — the source of LightWSP's instruction overhead."""
        return self.boundaries + self.checkpoint_stores


@dataclass
class CompiledProgram:
    """A program instrumented with boundaries and checkpoints."""

    program: Program
    plans: Dict[int, RecoveryPlan]
    stats: CompileStats
    config: CompilerConfig

    def plan_for(self, boundary_uid: int) -> RecoveryPlan:
        return self.plans.get(boundary_uid, RecoveryPlan(boundary_uid))


def clone_program(program: Program) -> Program:
    """Deep copy with fresh instruction identities, leaving the input
    untouched so one workload can be compiled under many configs."""
    new = Program(program.name)
    new.globals = dict(program.globals)
    new._next_addr = program._next_addr
    for func in program.functions.values():
        clone = Function(func.name, func.params)
        for label in func.block_order():
            block = clone.add_block(label)
            block.instrs = [instr.copy() for instr in func.blocks[label].instrs]
        clone.entry = func.entry
        new.functions[func.name] = clone
    return new


def finish_compiled(compiled: CompiledProgram) -> None:
    """Finish a compiled program: count its boundaries, checkpoint stores
    and data stores into ``compiled.stats``, validate it, and lower it
    for the interpreter.  Every function that produces or edits a
    compiled program ends here, since the interpreter trusts the lowered
    table and never rechecks it against the blocks."""
    stats = compiled.stats
    stats.boundaries = stats.checkpoint_stores = stats.data_stores = 0
    for func in compiled.program.functions.values():
        for instr in func.instructions():
            if instr.op == Op.BOUNDARY:
                stats.boundaries += 1
            elif instr.op == Op.CHECKPOINT:
                stats.checkpoint_stores += 1
            elif instr.op in (Op.STORE, Op.ATOMIC_RMW):
                stats.data_stores += 1
    compiled.program.validate()
    precompile_dispatch(compiled.program)


def compile_program(
    program: Program,
    config: Optional[CompilerConfig] = None,
    verify: Optional[bool] = None,
) -> CompiledProgram:
    """Run the full Fig. 3 pipeline on a clone of ``program``.

    ``verify=True`` re-checks the output with the independent static
    verifier (:mod:`repro.verify`) and raises
    :class:`~repro.verify.VerificationError` on any rule violation.
    ``verify=None`` defers to :func:`set_default_verify`, which is off
    by default."""
    config = config or CompilerConfig()
    program.validate()
    prog = clone_program(program)
    stats = CompileStats(functions=len(prog.functions))
    plans: Dict[int, RecoveryPlan] = {}

    for func in prog.functions.values():
        _compile_function(func, config, stats, plans)

    compiled = CompiledProgram(program=prog, plans=plans, stats=stats, config=config)
    for func in prog.functions.values():
        stats.max_region_stores = max(
            stats.max_region_stores, max_region_store_count(func)
        )
    finish_compiled(compiled)

    if verify is None:
        verify = _DEFAULT_VERIFY
    if verify:
        # Imported lazily: repro.verify audits this module's output and
        # importing it at module scope would be circular.
        from ..verify import VerificationError, verify_compiled

        report = verify_compiled(compiled)
        if not report.ok:
            raise VerificationError(report)
    return compiled


def _compile_function(
    func: Function,
    config: CompilerConfig,
    stats: CompileStats,
    plans: Dict[int, RecoveryPlan],
) -> None:
    threshold = config.store_threshold

    unroll_stats = unroll_loops(
        func,
        threshold,
        limit=config.unroll_limit,
        speculative=config.speculative_unroll,
    )
    stats.unroll.static_unrolled += unroll_stats.static_unrolled
    stats.unroll.speculative_unrolled += unroll_stats.speculative_unrolled
    stats.unroll.total_factor += unroll_stats.total_factor

    insert_initial_boundaries(func)
    enforce_threshold_in_blocks(func, threshold)
    normalize_boundaries(func)

    formation = form_regions(func, threshold, merge=config.merge_regions)
    stats.region_formation.append(formation)
    stats.converged = stats.converged and formation.converged

    if config.scalar_opts:
        opt = optimize_function(func)
        stats.folded += opt.folded
        stats.eliminated += opt.eliminated

    if config.prune_checkpoints:
        func_plans = prune_checkpoints(func)
    else:
        func_plans = collect_recovery_plans(func)
    for plan in func_plans.values():
        stats.pruned_checkpoints += len(plan.pruned())
    plans.update(func_plans)
