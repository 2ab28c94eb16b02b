"""A recorded resume point never changes.

Each entry of ``PersistentMachine.history`` is where a thread restarts
after a power failure in the region that follows its boundary.  Recovery
reads it long after it was recorded, so nothing the thread does later may
write through it: not a RET that makes a parked caller frame live again,
not a CALL that pushes onto the live call stack, not a lock release.
The check records every entry's values the moment it appears (and the
thread-start sentinels at construction), runs the program under
``step()`` and under ``run()`` (also with a power failure part way and
the resumed run), and requires every entry still in the history at the
end to hold exactly the recorded values.  A clone keeps its own history:
a crash and a resumed run on one side leave the other's alone.

The crash-consistency suites rarely see such corruption: the battery
drain commits every broadcast region, and the compiler puts a boundary
right after every call, so a recovery almost never resumes inside a
callee that has already returned.
"""

import pytest

from helpers import resume_point_values, resume_points
from repro.compiler import FunctionBuilder, Program
from repro.compiler.pipeline import compile_program
from repro.core.machine import PersistentMachine
from repro.workloads.randprog import random_mt_program, random_program


def call_loop_program(n):
    """``main`` calls ``leaf`` ``n`` times and updates its loop register
    right after each return: a caller register written once its frame is
    live again."""
    prog = Program("call_loop")
    a = prog.array("a", 16)
    leaf = FunctionBuilder(prog, "leaf", params=("r1",))
    leaf.block("entry")
    leaf.mul("r2", "r1", 3)
    leaf.store("r2", "r1", base=a)
    leaf.ret("r2")
    leaf.build()
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 0)
    fb.const("r3", 0)
    fb.br("loop")
    fb.block("loop")
    fb.call("leaf", args=("r1",), ret="r2")
    fb.add("r1", "r1", 1)
    fb.add("r3", "r3", "r2")
    fb.lt("r4", "r1", n)
    fb.cbr("r4", "loop", "exit")
    fb.block("exit")
    fb.store("r3", 15, base=a)
    fb.ret()
    fb.build()
    return prog


def recording_machine(compiled, entries=None):
    """A machine that snapshots each history entry as it is appended.
    Returns the machine and the list of (tid, entry, values) records."""
    kwargs = {} if entries is None else {"entries": entries}
    machine = PersistentMachine(compiled, **kwargs)
    records = [
        (tid, history[0], resume_point_values(history[0]))
        for tid, history in enumerate(machine.history)
    ]
    boundary_executed = machine._boundary_executed

    def recording(tid, boundary_uid):
        ended = boundary_executed(tid, boundary_uid)
        entry = machine.history[tid][-1]
        records.append((tid, entry, resume_point_values(entry)))
        return ended

    machine._boundary_executed = recording
    return machine, records


def step_to_end(machine, steps=None):
    budget = steps if steps is not None else machine.max_steps
    for _ in range(budget):
        if machine.step() is None:
            return


def check_unchanged(machine, records):
    """Every recorded entry still in the history holds its recorded
    values."""
    checked = 0
    for tid, entry, values in records:
        if any(e is entry for e in machine.history[tid]):
            assert resume_point_values(entry) == values
            checked += 1
    assert checked


def check_program(compiled, entries=None, crash_at=None):
    for stepped in (False, True):
        machine, records = recording_machine(compiled, entries)
        if crash_at is not None:
            if stepped:
                step_to_end(machine, crash_at)
            else:
                machine.run(steps=crash_at)
            if not machine.finished:
                machine.crash()
        if stepped:
            step_to_end(machine)
        else:
            machine.run()
        assert machine.finished
        check_unchanged(machine, records)
    return records


@pytest.mark.parametrize("crash_at", [None, 23, 61])
@pytest.mark.parametrize("seed", range(10))
def test_random_programs(seed, crash_at):
    check_program(compile_program(random_program(seed)), crash_at=crash_at)


@pytest.mark.parametrize("crash_at", [None, 17, 40])
def test_call_loop(crash_at):
    records = check_program(
        compile_program(call_loop_program(6)), crash_at=crash_at
    )
    # the loop records resume points inside the callee, over main's
    # parked frame
    assert any(values[-1] for _, _, values in records)


@pytest.mark.parametrize("crash_at", [None, 50, 130])
def test_lock_program(crash_at):
    prog, entries = random_mt_program(2, n_threads=3)
    records = check_program(
        compile_program(prog), entries=entries, crash_at=crash_at
    )
    # some resume points lie inside a critical section
    assert any(values[5] for _, _, values in records)


@pytest.mark.parametrize("seed", range(10))
def test_a_clone_has_its_own_history(seed):
    compiled = compile_program(random_program(seed))
    uncloned = PersistentMachine(compiled)
    uncloned.run()
    machine = PersistentMachine(compiled)
    machine.run(steps=uncloned.stats.steps // 2)
    before = resume_points(machine)
    fork = machine.clone()
    fork.crash()
    fork.run()
    assert resume_points(machine) == before
    after = resume_points(fork)
    machine.run()
    assert resume_points(fork) == after
    assert resume_points(machine) == resume_points(uncloned)
