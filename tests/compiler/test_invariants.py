"""Structural invariants of compiled programs, checked over the random
program generator: the properties every downstream component (machine,
engine, recovery) silently relies on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import Op, compile_program
from repro.config import CompilerConfig
from repro.workloads.randprog import random_program


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boundaries_end_blocks(seed):
    """Normalized form: a boundary is always the last instruction before
    its block's terminator (regions start at block beginnings)."""
    compiled = compile_program(random_program(seed))
    for func in compiled.program.functions.values():
        for block in func.blocks.values():
            for i, instr in enumerate(block.instrs):
                if instr.op == Op.BOUNDARY:
                    assert i == len(block.instrs) - 2, (
                        func.name, block.label, i)
                    assert block.instrs[-1].is_terminator()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_boundary_has_plan_and_site(seed):
    compiled = compile_program(random_program(seed))
    for func in compiled.program.functions.values():
        for instr in func.instructions():
            if instr.op == Op.BOUNDARY:
                plan = compiled.plan_for(instr.uid)
                for recipe in plan.recipes.values():
                    assert recipe[0] in ("ckpt", "const", "expr")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_checkpoints_precede_their_boundary(seed):
    """Every checkpoint must sit in the region its boundary ends —
    otherwise its slot would not be durable when the plan reads it."""
    compiled = compile_program(random_program(seed))
    for func in compiled.program.functions.values():
        for block in func.blocks.values():
            pending = 0
            for instr in block.instrs:
                if instr.op == Op.CHECKPOINT:
                    pending += 1
                elif instr.op == Op.BOUNDARY:
                    pending = 0
            # checkpoints never dangle past the block's boundary
            has_boundary = any(i.op == Op.BOUNDARY for i in block.instrs)
            if has_boundary:
                assert pending == 0, (func.name, block.label)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sync_instructions_begin_fresh_regions(seed):
    """§III-D: every fence/atomic/lock/unlock is immediately preceded (in
    its block) by a boundary or block start."""
    compiled = compile_program(random_program(seed))
    for func in compiled.program.functions.values():
        for block in func.blocks.values():
            for i, instr in enumerate(block.instrs):
                if instr.op in Op.SYNC:
                    before = block.instrs[:i]
                    # nothing store-like may sit between the last boundary
                    # and the sync instruction
                    for prev in reversed(before):
                        if prev.op == Op.BOUNDARY:
                            break
                        assert not prev.is_store_like(), (
                            func.name, block.label, i)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    threshold=st.sampled_from([8, 16, 32]),
)
def test_compiled_random_programs_valid(seed, threshold):
    compiled = compile_program(
        random_program(seed), CompilerConfig(store_threshold=threshold)
    )
    compiled.program.validate()
    assert compiled.stats.boundaries > 0
