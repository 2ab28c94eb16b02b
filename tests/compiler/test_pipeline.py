"""End-to-end tests for the compiler pipeline, including hypothesis
property tests: compilation must preserve program semantics and respect
the store threshold."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import call_program, data_words, locking_program, saxpy_program

from repro.compiler import (
    FunctionBuilder,
    Op,
    Program,
    clone_program,
    compile_program,
    run_single,
    run_threads,
)
from repro.compiler.boundaries import max_region_store_count
from repro.config import CompilerConfig


class TestCompileProgram:
    def test_threshold_respected(self):
        # Paper-scale thresholds (>= 8 here, 16/32/64 in the evaluation)
        # must converge with every region within the threshold.
        for threshold in (8, 16, 32):
            compiled = compile_program(
                saxpy_program(n=32), CompilerConfig(store_threshold=threshold)
            )
            for func in compiled.program.functions.values():
                assert max_region_store_count(func) <= threshold
            assert compiled.stats.converged

    def test_tiny_threshold_reports_convergence_honestly(self):
        # A threshold smaller than a region's live-out checkpoint group
        # cannot always be honoured; the compiler must say so rather than
        # diverge (and the overshoot stays within WPQ capacity in any
        # realistic configuration).
        compiled = compile_program(
            saxpy_program(n=32), CompilerConfig(store_threshold=4)
        )
        worst = max(
            max_region_store_count(f)
            for f in compiled.program.functions.values()
        )
        if compiled.stats.converged:
            assert worst <= 4
        else:
            assert worst <= 2 * 4  # bounded overshoot

    def test_semantics_preserved(self):
        prog = saxpy_program(n=32)
        reference = data_words(run_single(prog)[1])
        compiled = compile_program(prog, CompilerConfig(store_threshold=8))
        assert data_words(run_single(compiled.program)[1]) == reference

    def test_semantics_preserved_with_calls(self):
        prog = call_program()
        reference = data_words(run_single(prog)[1])
        compiled = compile_program(prog)
        assert data_words(run_single(compiled.program)[1]) == reference

    def test_semantics_preserved_multithreaded(self):
        prog = locking_program(n_threads=2, increments=6)
        compiled = compile_program(prog, CompilerConfig(store_threshold=8))
        _, mem = run_threads(
            compiled.program, [("worker", (t,)) for t in range(2)]
        )
        assert mem.read(prog.base_of("shared")) == 12

    def test_original_program_untouched(self):
        prog = saxpy_program(n=8)
        ops_before = [i.op for f in prog.functions.values() for i in f.instructions()]
        compile_program(prog)
        ops_after = [i.op for f in prog.functions.values() for i in f.instructions()]
        assert ops_before == ops_after

    def test_every_boundary_has_a_plan_when_pruning(self):
        compiled = compile_program(
            saxpy_program(n=16), CompilerConfig(prune_checkpoints=True)
        )
        for func in compiled.program.functions.values():
            for instr in func.instructions():
                if instr.op == Op.BOUNDARY:
                    assert compiled.plan_for(instr.uid) is not None

    def test_stats_counts_match_program(self):
        compiled = compile_program(saxpy_program(n=16))
        boundaries = sum(
            1
            for f in compiled.program.functions.values()
            for i in f.instructions()
            if i.op == Op.BOUNDARY
        )
        assert compiled.stats.boundaries == boundaries

    def test_pruning_reduces_checkpoints(self):
        base = compile_program(
            saxpy_program(n=64),
            CompilerConfig(prune_checkpoints=False, store_threshold=8),
        )
        pruned = compile_program(
            saxpy_program(n=64),
            CompilerConfig(prune_checkpoints=True, store_threshold=8),
        )
        assert pruned.stats.checkpoint_stores <= base.stats.checkpoint_stores

    def test_smaller_threshold_more_boundaries(self):
        small = compile_program(
            saxpy_program(n=64), CompilerConfig(store_threshold=4, unroll_limit=1)
        )
        large = compile_program(
            saxpy_program(n=64), CompilerConfig(store_threshold=32, unroll_limit=1)
        )
        assert small.stats.boundaries >= large.stats.boundaries


class TestCloneProgram:
    def test_clone_is_independent(self):
        prog = saxpy_program(n=8)
        clone = clone_program(prog)
        clone.functions["main"].blocks["entry"].instrs.pop()
        assert len(prog.functions["main"].blocks["entry"].instrs) != len(
            clone.functions["main"].blocks["entry"].instrs
        )

    def test_clone_preserves_globals(self):
        prog = saxpy_program(n=8)
        clone = clone_program(prog)
        assert clone.globals == prog.globals

    def test_clone_runs_identically(self):
        prog = saxpy_program(n=8)
        assert data_words(run_single(prog)[1]) == data_words(
            run_single(clone_program(prog))[1]
        )


# ----------------------------------------------------------------------
# Property tests: random structured programs
# ----------------------------------------------------------------------

REGS = ["r%d" % i for i in range(1, 8)]


@st.composite
def random_programs(draw):
    """Structured random programs: a few segments, each straight-line
    compute/store code or a counted loop; always terminating."""
    prog = Program("prop")
    a = prog.array("a", 256)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    for i, reg in enumerate(REGS):
        fb.const(reg, draw(st.integers(-100, 100)))
    n_segments = draw(st.integers(1, 4))
    for seg in range(n_segments):
        kind = draw(st.sampled_from(["straight", "loop"]))
        if kind == "straight":
            for _ in range(draw(st.integers(1, 8))):
                choice = draw(st.sampled_from(["op", "store", "load"]))
                dst = draw(st.sampled_from(REGS))
                s1 = draw(st.sampled_from(REGS))
                s2 = draw(
                    st.one_of(st.sampled_from(REGS), st.integers(-8, 8))
                )
                if choice == "op":
                    op = draw(st.sampled_from(["add", "sub", "mul", "xor", "min"]))
                    getattr(fb, op)(dst, s1, s2)
                elif choice == "store":
                    idx = draw(st.integers(0, 255))
                    fb.store(s1, idx, base=a)
                else:
                    idx = draw(st.integers(0, 255))
                    fb.load(dst, idx, base=a)
        else:
            trip = draw(st.integers(1, 12))
            loop_label = "loop%d" % seg
            body_stores = draw(st.integers(1, 3))
            fb.const("r1", 0)
            fb.br(loop_label)
            fb.block(loop_label)
            for k in range(body_stores):
                fb.add("r2", "r1", k)
                fb.store("r2", "r1", base=a + seg * 16)
            fb.add("r1", "r1", 1)
            fb.lt("r3", "r1", trip)
            next_label = "seg%d" % (seg + 1)
            fb.cbr("r3", loop_label, next_label)
            fb.block(next_label)
    fb.ret()
    fb.build()
    return prog


@settings(max_examples=40, deadline=None)
@given(
    prog=random_programs(),
    threshold=st.sampled_from([2, 4, 8, 32]),
)
def test_compilation_preserves_semantics(prog, threshold):
    reference = data_words(run_single(prog)[1])
    compiled = compile_program(prog, CompilerConfig(store_threshold=threshold))
    assert data_words(run_single(compiled.program)[1]) == reference


@settings(max_examples=40, deadline=None)
@given(prog=random_programs(), threshold=st.sampled_from([2, 4, 8]))
def test_compilation_respects_threshold(prog, threshold):
    compiled = compile_program(prog, CompilerConfig(store_threshold=threshold))
    if compiled.stats.converged:
        for func in compiled.program.functions.values():
            assert max_region_store_count(func) <= threshold
    else:
        # non-convergence is only legal when checkpoint groups alone
        # overflow tiny thresholds; the overshoot must stay bounded
        for func in compiled.program.functions.values():
            assert max_region_store_count(func) <= threshold + 16
