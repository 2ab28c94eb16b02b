"""Byte-for-bit parity of the columnar trace recorder.

``run_single`` and ``run_threads`` record their traces from
``ThreadVM.run_fast`` batches into a :class:`~repro.trace.Trace`; only
the instructions a batch pauses before go through ``step()``.  The
classic loops below — one ``step()`` per instruction, one event each —
are the reference: over ≥50 random programs, compiled and not, at
several scheduling quanta, the trace's event view must equal the
classic event list, the memory images must match, and
``MachineLimitError`` / ``DeadlockError`` must fire at the same step.
"""

import pytest

from helpers import io_program

from repro.compiler import FunctionBuilder, Program, compile_program
from repro.compiler.interp import (
    LockTable, ThreadVM, WordMemory, run_single, run_threads,
)
from repro.config import SystemConfig
from repro.errors import DeadlockError, MachineLimitError
from repro.runtime import LIGHTWSP, MEMORY_MODE
from repro.sim.engine import simulate
from repro.trace import EK, Trace, TraceStats, count_events
from repro.workloads.randprog import random_mt_program, random_program


def classic_single(program, func_name="main", args=(), max_steps=2_000_000):
    """The pre-columnar ``run_single`` loop: one ``step()`` and one event
    per instruction (error messages shortened)."""
    vm = ThreadVM(program, func_name, args=args)
    events = []
    while not vm.halted:
        if vm.steps >= max_steps:
            raise MachineLimitError(
                "execution exceeded %d steps" % max_steps,
                steps=vm.steps, limit=max_steps,
            )
        event = vm.step()
        if event is None:
            raise DeadlockError("deadlock", steps=vm.steps)
        events.append(event)
    return events, vm.memory


def classic_threads(program, entries, max_steps=4_000_000, schedule_seed=0,
                    quantum=16):
    """The pre-columnar ``run_threads`` loop: one ``step()`` and one
    event per instruction (error messages shortened)."""
    memory = WordMemory()
    locks = LockTable()
    vms = [
        ThreadVM(program, fname, args=args, memory=memory, tid=tid, locks=locks)
        for tid, (fname, args) in enumerate(entries)
    ]
    events = []
    n = len(vms)
    turn = schedule_seed % n if n else 0
    total = 0
    stalls = 0
    while any(not vm.halted for vm in vms):
        vm = vms[turn]
        turn = (turn + 1) % n
        if vm.halted:
            continue
        progressed = False
        for _ in range(quantum):
            if vm.halted:
                break
            if total >= max_steps:
                raise MachineLimitError(
                    "multi-thread run exceeded %d steps" % max_steps,
                    steps=total, limit=max_steps,
                )
            event = vm.step()
            if event is None:
                break
            progressed = True
            total += 1
            events.append(event)
        if progressed:
            stalls = 0
        else:
            stalls += 1
            if stalls > 2 * n:
                raise DeadlockError("deadlock", steps=total)
    return events, memory


def reference_stats(events):
    """``count_events`` as the event loop it replaces computed it."""
    stats = TraceStats()
    fields = {
        EK.LOAD: "loads", EK.STORE: "data_stores",
        EK.CHECKPOINT: "checkpoint_stores", EK.BOUNDARY: "boundaries",
        EK.ATOMIC: "atomics",
    }
    for ev in events:
        if ev.kind == EK.HALT:
            continue
        stats.instructions += 1
        if ev.kind in fields:
            setattr(stats, fields[ev.kind], getattr(stats, fields[ev.kind]) + 1)
    return stats


def outcome(run, *args, **kwargs):
    """(events, memory words), or the error's type and step count."""
    try:
        events, memory = run(*args, **kwargs)
    except (MachineLimitError, DeadlockError) as exc:
        return type(exc).__name__, exc.steps
    return list(events), memory.words


def assert_trace_matches(trace, events):
    assert isinstance(trace, Trace)
    assert len(trace) == len(events)
    assert list(trace) == events
    assert trace == events
    assert count_events(trace) == reference_stats(events)
    if events:
        assert trace[-1] == events[-1]
        assert trace[len(events) // 2] == events[len(events) // 2]


def check_single(program, **kwargs):
    trace, memory = run_single(program, **kwargs)
    events, classic_memory = classic_single(program, **kwargs)
    assert_trace_matches(trace, events)
    assert memory.words == classic_memory.words
    return trace


def check_threads(program, entries, **kwargs):
    trace, memory = run_threads(program, entries, **kwargs)
    events, classic_memory = classic_threads(program, entries, **kwargs)
    assert_trace_matches(trace, events)
    assert memory.words == classic_memory.words
    return trace


def atomic_program():
    """Three workers bump one counter with ATOMIC_RMW around a FENCE and
    exchange a private word, so every pause kind but IO appears."""
    prog = Program("atomics")
    counter = prog.array("counter", 1)
    private = prog.array("private", 4)
    fb = FunctionBuilder(prog, "worker", params=("r9",))
    fb.block("entry")
    fb.const("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.atomic_rmw("r2", 0, 1, op="add", base=counter)
    fb.fence()
    fb.add("r3", "r2", "r9")
    fb.atomic_rmw("r4", "r9", "r3", op="xchg", base=private)
    fb.store("r4", "r9", base=private)
    fb.add("r1", "r1", 1)
    fb.lt("r5", "r1", 5)
    fb.cbr("r5", "loop", "exit")
    fb.block("exit")
    fb.ret()
    fb.build()
    return prog


def deadlock_program():
    """``main`` takes lock 1 twice (a single thread blocks on itself);
    ``worker`` takes locks 0 and 1 in the order its argument picks, so
    two workers in opposite orders deadlock."""
    prog = Program("deadlock")
    main = FunctionBuilder(prog, "main")
    main.block("entry")
    main.const("r1", 3)
    main.lock(1)
    main.add("r1", "r1", 1)
    main.lock(1)
    main.ret()
    main.build()
    fb = FunctionBuilder(prog, "worker", params=("r9",))
    fb.block("entry")
    fb.cbr("r9", "ba", "ab")
    fb.block("ab")
    fb.lock(0)
    fb.nop()
    fb.lock(1)
    fb.br("done")
    fb.block("ba")
    fb.lock(1)
    fb.nop()
    fb.lock(0)
    fb.br("done")
    fb.block("done")
    fb.ret()
    fb.build()
    return prog


class TestSingleThreadParity:
    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("seed", range(50))
    def test_randprog_sweep(self, seed, compiled):
        program = random_program(seed)
        if compiled:
            program = compile_program(program).program
        check_single(program)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_io_program(self, compiled):
        program = io_program()
        if compiled:
            program = compile_program(program).program
        trace = check_single(program)
        assert [ev.payload for ev in trace if ev.kind == EK.IO] == [7, 0]

    @pytest.mark.parametrize("compiled", [False, True])
    def test_atomic_program(self, compiled):
        program = atomic_program()
        if compiled:
            program = compile_program(program).program
        trace = check_single(program, func_name="worker", args=(2,))
        assert any(ev.kind == EK.ATOMIC for ev in trace)


class TestMultiThreadParity:
    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("seed", range(50))
    def test_random_mt_sweep(self, seed, compiled, quantum):
        program, entries = random_mt_program(seed, n_threads=2 + seed % 3)
        if compiled:
            program = compile_program(program).program
        check_threads(program, entries, quantum=quantum,
                      schedule_seed=seed)

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("compiled", [False, True])
    def test_atomic_program(self, compiled, quantum):
        program = atomic_program()
        if compiled:
            program = compile_program(program).program
        entries = [("worker", (t,)) for t in range(3)]
        check_threads(program, entries, quantum=quantum)


def _limit_sweep(run, program, n_events, *args, **kwargs):
    """Every ``max_steps`` from 1 past the end: the same trace, or the
    same error at the same step."""
    for max_steps in range(1, n_events + 2):
        got = outcome(run[0], program, *args, max_steps=max_steps, **kwargs)
        want = outcome(run[1], program, *args, max_steps=max_steps, **kwargs)
        assert got == want, max_steps


class TestErrorsFireAtTheSameStep:
    """``max_steps`` is swept across every instruction, so it lands on
    each pause instruction (LOCK / ATOMIC_RMW / FENCE / BOUNDARY / IO)
    and on the halting RET."""

    @pytest.mark.parametrize("seed", [2, 7, 19])
    def test_machine_limit_single(self, seed):
        program = compile_program(random_program(seed)).program
        events, _ = classic_single(program)
        _limit_sweep((run_single, classic_single), program, len(events))

    def test_machine_limit_single_io_and_atomics(self):
        program = compile_program(io_program()).program
        events, _ = classic_single(program)
        _limit_sweep((run_single, classic_single), program, len(events))
        program = compile_program(atomic_program()).program
        events, _ = classic_single(program, "worker", (1,))
        _limit_sweep((run_single, classic_single), program, len(events),
                     "worker", (1,))

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    def test_machine_limit_threads(self, quantum):
        program, entries = random_mt_program(4, n_threads=3)
        program = compile_program(program).program
        events, _ = classic_threads(program, entries, quantum=quantum)
        kinds = {ev.kind for ev in events}
        assert {EK.LOCK, EK.BOUNDARY, EK.HALT} <= kinds
        _limit_sweep((run_threads, classic_threads), program, len(events),
                     entries, quantum=quantum)

    def test_single_thread_deadlock(self):
        program = deadlock_program()
        got = outcome(run_single, program)
        assert got == outcome(classic_single, program)
        assert got == ("DeadlockError", 3)

    @pytest.mark.parametrize("quantum", [1, 2, 16])
    def test_lock_order_deadlock(self, quantum):
        program = deadlock_program()
        entries = [("worker", (0,)), ("worker", (1,))]
        got = outcome(run_threads, program, entries, quantum=quantum)
        assert got == outcome(classic_threads, program, entries,
                              quantum=quantum)
        if quantum < 4:
            assert got[0] == "DeadlockError"


class TestReplayOfRecordedTraces:
    """The engine walks the recorded columns; a trace rebuilt event by
    event from the classic list splits its ALU runs differently and
    must replay to the same ``SimResult``."""

    @pytest.mark.parametrize("seed", range(0, 50, 7))
    def test_recorded_and_rebuilt_traces_replay_alike(self, seed):
        config = SystemConfig()
        program, entries = random_mt_program(seed, n_threads=3)
        compiled = compile_program(program, config.compiler).program
        trace, _ = run_threads(compiled, entries, quantum=3)
        events, _ = classic_threads(compiled, entries, quantum=3)
        rebuilt = Trace.from_events(events)
        for policy in (MEMORY_MODE, LIGHTWSP):
            for cores in (None, 2):
                got = simulate(trace, config, policy, hardware_cores=cores)
                want = simulate(rebuilt, config, policy, hardware_cores=cores)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", range(50))
    def test_replay_retires_every_instruction(self, seed):
        # random programs carry FENCEs, which the engine's ALU fold
        # retires: each must count as an instruction
        program = compile_program(random_program(seed)).program
        trace, _ = run_single(program)
        result = simulate(trace, SystemConfig(), LIGHTWSP)
        assert result.instructions == count_events(trace).instructions
