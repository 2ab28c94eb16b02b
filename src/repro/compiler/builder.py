"""Fluent construction helpers for the IR.

:class:`FunctionBuilder` wraps a :class:`~repro.compiler.ir.Function` and a
current insertion block, offering one method per opcode::

    prog = Program("saxpy")
    x = prog.array("x", 1024)
    y = prog.array("y", 1024)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 0)                 # i = 0
    fb.br("loop")
    fb.block("loop")
    fb.load("r2", "r1", base=x)       # r2 = x[i]
    fb.add("r3", "r2", 3)
    fb.store("r3", "r1", base=y)      # y[i] = r2 + 3
    fb.add("r1", "r1", 1)
    fb.lt("r4", "r1", 1024)
    fb.cbr("r4", "loop", "exit")
    fb.block("exit")
    fb.ret()

Addresses: ``base`` is an absolute word address (typically from
``Program.array``), combined with an index register and word offset.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ir import BasicBlock, Function, Instr, Op, Operand, Program

__all__ = ["FunctionBuilder"]


class FunctionBuilder:
    """Builds one function, appending instructions to a current block."""

    def __init__(
        self,
        program: Optional[Program],
        name: str,
        params: Sequence[str] = (),
    ) -> None:
        self.program = program
        self.func = Function(name, params)
        if program is not None:
            program.add_function(self.func)
        self._current: Optional[BasicBlock] = None

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------
    def block(self, label: str) -> BasicBlock:
        """Create block ``label`` and make it the insertion point."""
        self._current = self.func.add_block(label)
        return self._current

    @property
    def current(self) -> BasicBlock:
        if self._current is None:
            raise RuntimeError("no current block; call .block() first")
        return self._current

    def emit(self, instr: Instr) -> Instr:
        return self.current.append(instr)

    # ------------------------------------------------------------------
    # data / arithmetic
    # ------------------------------------------------------------------
    def const(self, dst: str, value: int) -> Instr:
        return self.emit(Instr(Op.CONST, dst=dst, imm=value))

    def mov(self, dst: str, src: Operand) -> Instr:
        return self.emit(Instr(Op.MOV, dst=dst, srcs=(src,)))

    def _binop(self, op: str, dst: str, a: Operand, b: Operand) -> Instr:
        return self.emit(Instr(op, dst=dst, srcs=(a, b)))

    def add(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.ADD, dst, a, b)

    def sub(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.SUB, dst, a, b)

    def mul(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.MUL, dst, a, b)

    def div(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.DIV, dst, a, b)

    def mod(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.MOD, dst, a, b)

    def and_(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.AND, dst, a, b)

    def or_(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.OR, dst, a, b)

    def xor(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.XOR, dst, a, b)

    def shl(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.SHL, dst, a, b)

    def shr(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.SHR, dst, a, b)

    def min(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.MIN, dst, a, b)

    def max(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.MAX, dst, a, b)

    def eq(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.EQ, dst, a, b)

    def ne(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.NE, dst, a, b)

    def lt(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.LT, dst, a, b)

    def le(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.LE, dst, a, b)

    def gt(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.GT, dst, a, b)

    def ge(self, dst: str, a: Operand, b: Operand) -> Instr:
        return self._binop(Op.GE, dst, a, b)

    def nop(self) -> Instr:
        return self.emit(Instr(Op.NOP))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def load(self, dst: str, index: Operand, base: int = 0) -> Instr:
        """``dst <- mem[index + base]`` (word addressing)."""
        return self.emit(Instr(Op.LOAD, dst=dst, addr=index, offset=base))

    def store(self, src: Operand, index: Operand, base: int = 0) -> Instr:
        """``mem[index + base] <- src``."""
        return self.emit(Instr(Op.STORE, srcs=(src,), addr=index, offset=base))

    def atomic_rmw(
        self, dst: str, index: Operand, src: Operand, op: str = "add", base: int = 0
    ) -> Instr:
        return self.emit(
            Instr(
                Op.ATOMIC_RMW,
                dst=dst,
                srcs=(src,),
                addr=index,
                offset=base,
                rmw_op=op,
            )
        )

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def br(self, target: str) -> Instr:
        return self.emit(Instr(Op.BR, targets=(target,)))

    def cbr(self, cond: Operand, then_target: str, else_target: str) -> Instr:
        return self.emit(
            Instr(Op.CBR, srcs=(cond,), targets=(then_target, else_target))
        )

    def call(self, callee: str, args: Sequence[Operand] = (), ret: Optional[str] = None) -> Instr:
        return self.emit(Instr(Op.CALL, dst=ret, srcs=tuple(args), callee=callee))

    def ret(self, value: Optional[Operand] = None) -> Instr:
        srcs = (value,) if value is not None else ()
        return self.emit(Instr(Op.RET, srcs=srcs))

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def fence(self) -> Instr:
        return self.emit(Instr(Op.FENCE))

    def io(self, device: int, payload: Optional[Operand] = None) -> Instr:
        """An irrevocable external operation (console write, NIC doorbell,
        block-device command).  §IV-A: the compiler brackets it with
        boundaries so a power-interrupted I/O restarts from just before
        the operation."""
        srcs = (payload,) if payload is not None else ()
        return self.emit(Instr(Op.IO, srcs=srcs, imm=device))

    def lock(self, lock_id: int) -> Instr:
        return self.emit(Instr(Op.LOCK, imm=lock_id))

    def unlock(self, lock_id: int) -> Instr:
        return self.emit(Instr(Op.UNLOCK, imm=lock_id))

    # ------------------------------------------------------------------
    def build(self) -> Function:
        self.func.validate()
        return self.func
