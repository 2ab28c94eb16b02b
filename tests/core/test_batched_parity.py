"""Byte-for-bit parity of the batched execution core.

The batching loop (``PersistentMachine.run`` driving ``ThreadVM.run_fast``
with bulk store admission, for any thread count) must be observationally
identical to the classic per-instruction ``step()`` loop — same final PM
and volatile images, same I/O log, same stats (including the high-water
WPQ occupancy and the opt-in commit/IO step hooks), same thread
positions and register files.  This sweep is the soundness argument for
keeping two loops: it pins the equivalence across ≥50 random programs,
every quantum size in {1, 3, default}, gated and eager backends, the
tiny-WPQ overflow path, and mid-run power failures on the fault machine
with one thread and with several.
"""

from dataclasses import replace

import pytest

from repro.compiler import FunctionBuilder, Program
from repro.compiler.pipeline import compile_program
from repro.config import DEFAULT_CONFIG
from repro.core.machine import PersistentMachine
from repro.errors import DeadlockError, MachineLimitError
from repro.faults.machine import FaultyMachine
from repro.workloads.randprog import random_mt_program, random_program

TINY_WPQ = replace(
    DEFAULT_CONFIG, mc=replace(DEFAULT_CONFIG.mc, wpq_entries=4)
)


def run_classic(machine, steps=None):
    """The pre-batching run loop, verbatim: one ``step()`` per retired
    instruction.  The reference semantics the batched path must match."""
    budget = steps if steps is not None else machine.max_steps
    for _ in range(budget):
        if machine.step() is None:
            return True
        if machine.stats.steps >= machine.max_steps:
            raise MachineLimitError(
                "machine exceeded max_steps",
                steps=machine.stats.steps,
                limit=machine.max_steps,
            )
    return all(vm.halted for vm in machine.vms)


def make_machine(compiled, cls=PersistentMachine, **kwargs):
    machine = cls(compiled, **kwargs)
    machine.stats.commit_steps = []
    machine.stats.io_steps = []
    return machine


def assert_same_state(batched, classic):
    assert batched.pm == classic.pm
    assert batched.volatile.words == classic.volatile.words
    assert batched.io_log == classic.io_log
    bs, cs = batched.stats, classic.stats
    assert bs.steps == cs.steps
    assert bs.stores == cs.stores
    assert bs.boundaries == cs.boundaries
    assert bs.commits == cs.commits
    assert bs.overflow_events == cs.overflow_events
    assert bs.undo_writes == cs.undo_writes
    assert bs.max_wpq_occupancy == cs.max_wpq_occupancy
    assert bs.commit_steps == cs.commit_steps
    assert bs.io_steps == cs.io_steps
    assert batched._turn == classic._turn
    assert batched.committed_upto == classic.committed_upto
    assert batched.wpq_occupancy() == classic.wpq_occupancy()
    for bvm, cvm in zip(batched.vms, classic.vms):
        assert bvm.halted == cvm.halted
        assert bvm.steps == cvm.steps
        assert bvm.position() == cvm.position()
        assert bvm.regs == cvm.regs
        assert len(bvm.frames) == len(cvm.frames)


def io_after_call_program(k):
    """``main`` calls an empty leaf, runs ``k`` ALU instructions, then
    performs one IO.  The call's boundaries leave a flush-ACK maturing a
    few steps later, so sweeping ``k`` lands the IO on the ACK deadline
    (``k`` = 1), where only the per-step ACK recheck after the IO
    commits the region on time.  (After a BOUNDARY, the commit attempt
    every boundary makes would hide a missing recheck; after an IO
    nothing does.)"""
    prog = Program("io_after_call")
    leaf = FunctionBuilder(prog, "leaf")
    leaf.block("entry")
    leaf.ret()
    leaf.build()
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.call("leaf")
    for _ in range(k):
        fb.add("r1", "r1", 1)
    fb.io(1, "r1")
    fb.ret()
    fb.build()
    return prog


def check_faulty_parity(compiled, crash_at=None, **kwargs):
    """Batched vs classic on :class:`FaultyMachine`, optionally with a
    power failure after ``crash_at`` steps and a resumed run."""
    batched = make_machine(compiled, cls=FaultyMachine, **kwargs)
    classic = make_machine(compiled, cls=FaultyMachine, **kwargs)
    if crash_at is not None:
        batched.run(steps=crash_at)
        run_classic(classic, steps=crash_at)
        assert_same_state(batched, classic)
        if batched.finished:
            return
        batched.crash()
        classic.crash()
    assert batched.run() == run_classic(classic)
    assert_same_state(batched, classic)


def check_parity(compiled, entries=None, quantum=16, config=DEFAULT_CONFIG,
                 backend=None):
    kwargs = {"quantum": quantum, "config": config, "backend": backend}
    if entries is not None:
        kwargs["entries"] = entries
    batched = make_machine(compiled, **kwargs)
    classic = make_machine(compiled, **kwargs)
    finished_b = batched.run()
    finished_c = run_classic(classic)
    assert finished_b == finished_c
    assert_same_state(batched, classic)


class TestSingleThreadParity:
    @pytest.mark.parametrize("seed", range(50))
    def test_randprog_sweep(self, seed):
        compiled = compile_program(random_program(seed))
        check_parity(compiled)

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_quantum_sizes(self, seed, quantum):
        compiled = compile_program(random_program(seed))
        check_parity(compiled, quantum=quantum)

    @pytest.mark.parametrize("seed", [1, 11, 23])
    def test_tiny_wpq_overflow_path(self, seed):
        # 4-entry WPQs: bulk admission must hit the §IV-D overflow
        # fallback exactly like per-store admission does
        compiled = compile_program(random_program(seed))
        check_parity(compiled, config=TINY_WPQ)

    @pytest.mark.parametrize(
        "backend", ["lightwsp-lrpo", "cwsp-eager", "psp", "memory-mode"]
    )
    def test_backends(self, backend):
        compiled = compile_program(random_program(7))
        check_parity(compiled, backend=backend)


class TestMultiThreadParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_randmt_sweep(self, seed):
        prog, entries = random_mt_program(seed, n_threads=3)
        compiled = compile_program(prog)
        check_parity(compiled, entries=entries)

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    def test_quantum_sizes(self, quantum):
        prog, entries = random_mt_program(5, n_threads=2)
        compiled = compile_program(prog)
        check_parity(compiled, entries=entries, quantum=quantum)


class TestFaultyMachineParity:
    @pytest.mark.parametrize("seed", [2, 9, 21])
    def test_no_fault_run(self, seed):
        check_faulty_parity(compile_program(random_program(seed)))

    @pytest.mark.parametrize("seed", [4, 13])
    @pytest.mark.parametrize("crash_at", [25, 90])
    def test_mid_run_crash(self, seed, crash_at):
        check_faulty_parity(
            compile_program(random_program(seed)), crash_at=crash_at
        )

    @pytest.mark.parametrize("k", range(6))
    def test_io_on_an_ack_deadline(self, k):
        check_faulty_parity(compile_program(io_after_call_program(k)))

    @pytest.mark.parametrize("seed", [6, 15])
    def test_tiny_wpq_crash(self, seed):
        check_faulty_parity(
            compile_program(random_program(seed)), crash_at=40,
            config=TINY_WPQ,
        )


class TestMultiThreadFaultyParity:
    """The ACK deadline cap and recheck under round-robin rotation."""

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_no_fault_run(self, seed, quantum):
        prog, entries = random_mt_program(seed, n_threads=3)
        check_faulty_parity(
            compile_program(prog), entries=entries, quantum=quantum
        )

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("crash_at", [30, 120])
    def test_mid_run_crash(self, crash_at, quantum):
        prog, entries = random_mt_program(8, n_threads=2)
        check_faulty_parity(
            compile_program(prog), crash_at=crash_at, entries=entries,
            quantum=quantum,
        )

    def test_tiny_wpq_crash(self):
        prog, entries = random_mt_program(3, n_threads=3)
        check_faulty_parity(
            compile_program(prog), crash_at=60, entries=entries,
            config=TINY_WPQ,
        )


class TestTypedEscapes:
    def test_max_steps_raises_machine_limit(self):
        compiled = compile_program(random_program(0))
        machine = PersistentMachine(compiled, max_steps=10)
        with pytest.raises(MachineLimitError, match="max_steps") as info:
            machine.run()
        assert info.value.steps == 10
        assert info.value.limit == 10
        # RuntimeError compatibility is part of the contract
        assert isinstance(info.value, RuntimeError)

    # (20, 100): the second run asks for more steps than max_steps
    # leaves, and its batches must still stop at max_steps
    @pytest.mark.parametrize("first, then", [(0, None), (20, 100)])
    def test_machine_limit_matches_classic_loop(self, first, then):
        compiled = compile_program(random_program(0))
        batched = PersistentMachine(compiled, max_steps=37)
        classic = PersistentMachine(compiled, max_steps=37)
        if first:
            batched.run(steps=first)
            run_classic(classic, steps=first)
        with pytest.raises(MachineLimitError):
            batched.run(steps=then)
        with pytest.raises(MachineLimitError):
            run_classic(classic, steps=then)
        assert_same_state(batched, classic)

    def test_deadlock_error_is_runtime_error(self):
        assert issubclass(DeadlockError, RuntimeError)
        assert issubclass(MachineLimitError, RuntimeError)
