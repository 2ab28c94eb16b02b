"""Tests for the IR interpreter (VM)."""

import pytest

from helpers import call_program, data_words, locking_program, saxpy_program

from repro.compiler import (
    FunctionBuilder,
    Program,
    run_single,
    run_threads,
)
from repro.compiler.interp import _binop, _wrap
from repro.compiler.ir import Op
from repro.trace import EK


class TestArithmetic:
    def test_wrap_to_signed_64(self):
        assert _wrap(2**63) == -(2**63)
        assert _wrap(-(2**63) - 1) == 2**63 - 1
        assert _wrap(5) == 5

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Op.ADD, 2, 3, 5),
            (Op.SUB, 2, 3, -1),
            (Op.MUL, -4, 3, -12),
            (Op.DIV, 7, 2, 3),
            (Op.DIV, 7, 0, 0),
            (Op.MOD, 7, 3, 1),
            (Op.MOD, 7, 0, 0),
            (Op.AND, 0b1100, 0b1010, 0b1000),
            (Op.OR, 0b1100, 0b1010, 0b1110),
            (Op.XOR, 0b1100, 0b1010, 0b0110),
            (Op.SHL, 1, 4, 16),
            (Op.SHR, 16, 4, 1),
            (Op.MIN, 3, -5, -5),
            (Op.MAX, 3, -5, 3),
            (Op.EQ, 4, 4, 1),
            (Op.NE, 4, 4, 0),
            (Op.LT, -1, 0, 1),
            (Op.LE, 0, 0, 1),
            (Op.GT, 1, 0, 1),
            (Op.GE, -1, 0, 0),
        ],
    )
    def test_binops(self, op, a, b, expected):
        assert _binop(op, a, b) == expected

    def test_shift_amount_masked(self):
        assert _binop(Op.SHL, 1, 64) == 1  # 64 & 63 == 0
        assert _binop(Op.SHR, 8, 65) == 4


class TestExecution:
    def test_saxpy_result(self):
        prog = saxpy_program(n=16, scale=3)
        data = data_words(run_single(prog)[1])
        y = prog.base_of("y")
        # y[i] = 3 * (7 i)
        for i in range(1, 16):
            assert data[y + i] == 21 * i

    def test_calls_and_returns(self):
        prog = call_program()
        data = data_words(run_single(prog)[1])
        a = prog.base_of("a")
        # helper(1, 2) stores 3 at a[1], returns 3;
        # helper(3, 3) stores 6 at a[3], returns 6; main stores 6 at a[7].
        assert data[a + 1] == 3
        assert data[a + 3] == 6
        assert data[a + 7] == 6

    def test_atomic_rmw_returns_old_value(self):
        prog = Program()
        a = prog.array("a", 2)
        fb = FunctionBuilder(prog, "main")
        fb.block("entry")
        fb.const("r1", 10)
        fb.store("r1", 0, base=a)
        fb.atomic_rmw("r2", 0, 5, op="add", base=a)
        fb.store("r2", 1, base=a)  # old value
        fb.ret()
        fb.build()
        data = data_words(run_single(prog)[1])
        assert data[a] == 15
        assert data[a + 1] == 10

    def test_atomic_xchg(self):
        prog = Program()
        a = prog.array("a", 2)
        fb = FunctionBuilder(prog, "main")
        fb.block("entry")
        fb.const("r1", 7)
        fb.store("r1", 0, base=a)
        fb.atomic_rmw("r2", 0, 99, op="xchg", base=a)
        fb.store("r2", 1, base=a)
        fb.ret()
        fb.build()
        data = data_words(run_single(prog)[1])
        assert data[a] == 99
        assert data[a + 1] == 7

    def test_event_kinds_emitted(self):
        prog = saxpy_program(n=4)
        events, _ = run_single(prog)
        kinds = {e.kind for e in events}
        assert EK.LOAD in kinds
        assert EK.STORE in kinds
        assert EK.ALU in kinds
        assert events[-1].kind == EK.HALT

    def test_addresses_are_bytes(self):
        prog = Program()
        a = prog.array("a", 4)
        fb = FunctionBuilder(prog, "main")
        fb.block("entry")
        fb.store(1, 0, base=a)
        fb.ret()
        fb.build()
        events, _ = run_single(prog)
        store = next(e for e in events if e.kind == EK.STORE)
        assert store.addr == a * 8

    def test_runaway_detected(self):
        fb = FunctionBuilder(None, "main")
        fb.block("entry")
        fb.br("entry")
        prog = Program()
        prog.functions["main"] = fb.func
        with pytest.raises(RuntimeError, match="steps"):
            run_single(prog, max_steps=1000)


class TestThreads:
    def test_lock_protected_counter_is_exact(self):
        prog = locking_program(n_threads=3, increments=10)
        events, mem = run_threads(
            prog, [("worker", (t,)) for t in range(3)], schedule_seed=1
        )
        shared = prog.base_of("shared")
        assert mem.read(shared) == 30

    def test_schedules_differ_but_result_constant(self):
        prog = locking_program(n_threads=2, increments=5)
        results = set()
        for seed in range(4):
            _, mem = run_threads(
                prog, [("worker", (t,)) for t in range(2)], schedule_seed=seed
            )
            results.add(mem.read(prog.base_of("shared")))
        assert results == {10}

    def test_lock_events_present(self):
        prog = locking_program(n_threads=2, increments=2)
        events, _ = run_threads(prog, [("worker", (t,)) for t in range(2)])
        assert any(e.kind == EK.LOCK for e in events)
        assert any(e.kind == EK.UNLOCK for e in events)

    def test_deadlock_detected(self):
        prog = Program()
        fb = FunctionBuilder(prog, "w1")
        fb.block("entry")
        fb.lock(0)
        fb.lock(1)
        fb.unlock(1)
        fb.unlock(0)
        fb.ret()
        fb.build()
        fb = FunctionBuilder(prog, "w2")
        fb.block("entry")
        fb.lock(1)
        fb.lock(0)
        fb.unlock(0)
        fb.unlock(1)
        fb.ret()
        fb.build()
        # quantum=1 forces the interleaving that deadlocks
        with pytest.raises(RuntimeError, match="deadlock|blocked"):
            run_threads(prog, [("w1", ()), ("w2", ())], quantum=1)

    def test_wrong_unlock_rejected(self):
        prog = Program()
        fb = FunctionBuilder(prog, "main")
        fb.block("entry")
        fb.unlock(3)
        fb.ret()
        fb.build()
        with pytest.raises(RuntimeError, match="does not hold"):
            run_single(prog)
