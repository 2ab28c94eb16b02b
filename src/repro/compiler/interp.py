"""A stepping interpreter (VM) for the IR.

The VM executes one instruction per :meth:`ThreadVM.step` call and returns
a :class:`~repro.trace.TraceEvent`, or a whole batch per
:meth:`ThreadVM.run_fast` call, so it serves three masters:

* trace generation for the timing simulator (:func:`run_single` /
  :func:`run_threads` run the threads to completion and record a
  columnar :class:`~repro.trace.Trace`),
* the functional persistence machine, which interposes on every memory
  write to model WPQ gating and can stop a thread at an arbitrary step to
  inject a power failure,
* multi-threaded scheduling: ``step`` returns ``None`` when the thread is
  blocked on a lock, letting a scheduler interleave threads.

Execution is driven by a precompiled dispatch table: every basic block is
lowered once into a list of flat code tuples — a small-integer opcode
plus pre-resolved operands (wrapped immediates, a specialized binop
function, pre-parsed checkpoint slots, callee parameter tuples).
:meth:`ThreadVM.step` is a thin wrapper that indexes an opcode →
bound-handler table with the tuple's code; :meth:`ThreadVM.run_fast`
executes a whole batch of instructions in one inline loop over the same
tuples, pausing only before the instructions the outer machine executes
itself (LOCK / ATOMIC_RMW / FENCE).  BOUNDARY and IO retire inside the
batch through two handlers the persistence machine passes; without them
(the sim plane, any direct caller) they pause too.  The batched loop is
byte-for-bit equivalent to repeated ``step`` calls — the parity property
suites (tests/core, tests/compiler) pin that equivalence across random
programs, and it is the soundness argument for keeping two loops.

Given a trace, ``run_fast`` also records the events those ``step`` calls
would have returned, as columns: a LOAD, STORE, CKPT or UNLOCK record,
preceded by the run of ALU instructions before it, and the trailing ALU
run or the HALT at batch end.  Trace generation therefore runs at batch
speed too; only the paused instructions go through ``step``.

The dispatch table lives on the :class:`~repro.compiler.ir.Program` and
has one rule: it is built when a compiled program is finished
(:func:`~repro.compiler.pipeline.finish_compiled`), or once when a thread
first runs a program that was never compiled, and code that edits a
finished program finishes it again.  The interpreter trusts the table:
it never checks a block against its source instructions.

Semantics notes: all arithmetic wraps to signed 64-bit; division/modulo by
zero yield 0 (no traps — power failure is the only "exception" this system
cares about); every call frame gets a fresh register file with parameters
bound (callee-saved-everything, which makes per-function liveness sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..errors import DeadlockError, MachineLimitError
from ..trace import (
    EK, K_ALU, K_CKPT, K_HALT, K_LOAD, K_STORE, K_UNLOCK, Trace, TraceEvent,
)
from .ir import WORD_BYTES, Instr, Op, Program

__all__ = [
    "WordMemory",
    "LockTable",
    "ThreadVM",
    "run_single",
    "run_threads",
    "precompile_dispatch",
]

_MASK64 = (1 << 64) - 1


def _wrap(value: int) -> int:
    """Wrap to signed 64-bit."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


# ----------------------------------------------------------------------
# binop dispatch: one specialized function per operator, resolved once at
# block-compile time instead of string-compared on every execution
# ----------------------------------------------------------------------

def _b_add(a: int, b: int) -> int:
    return _wrap(a + b)


def _b_sub(a: int, b: int) -> int:
    return _wrap(a - b)


def _b_mul(a: int, b: int) -> int:
    return _wrap(a * b)


def _b_div(a: int, b: int) -> int:
    return _wrap(a // b) if b else 0


def _b_mod(a: int, b: int) -> int:
    return _wrap(a % b) if b else 0


def _b_and(a: int, b: int) -> int:
    return _wrap(a & b)


def _b_or(a: int, b: int) -> int:
    return _wrap(a | b)


def _b_xor(a: int, b: int) -> int:
    return _wrap(a ^ b)


def _b_shl(a: int, b: int) -> int:
    return _wrap(a << (b & 63))


def _b_shr(a: int, b: int) -> int:
    return _wrap((a & _MASK64) >> (b & 63))


def _b_min(a: int, b: int) -> int:
    return min(a, b)


def _b_max(a: int, b: int) -> int:
    return max(a, b)


def _b_eq(a: int, b: int) -> int:
    return int(a == b)


def _b_ne(a: int, b: int) -> int:
    return int(a != b)


def _b_lt(a: int, b: int) -> int:
    return int(a < b)


def _b_le(a: int, b: int) -> int:
    return int(a <= b)


def _b_gt(a: int, b: int) -> int:
    return int(a > b)


def _b_ge(a: int, b: int) -> int:
    return int(a >= b)


_BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    Op.ADD: _b_add, Op.SUB: _b_sub, Op.MUL: _b_mul, Op.DIV: _b_div,
    Op.MOD: _b_mod, Op.AND: _b_and, Op.OR: _b_or, Op.XOR: _b_xor,
    Op.SHL: _b_shl, Op.SHR: _b_shr, Op.MIN: _b_min, Op.MAX: _b_max,
    Op.EQ: _b_eq, Op.NE: _b_ne, Op.LT: _b_lt, Op.LE: _b_le,
    Op.GT: _b_gt, Op.GE: _b_ge,
}


def _binop(op: str, a: int, b: int) -> int:
    fn = _BINOP_FUNCS.get(op)
    if fn is None:
        raise ValueError("unknown binop %r" % op)
    return fn(a, b)


# ----------------------------------------------------------------------
# numeric opcodes for the compiled code tuples.  Codes >= C_LOCK are
# the machine-visible instructions: the batched loop pauses before LOCK,
# ATOMIC_RMW and FENCE, and retires BOUNDARY and IO only through the
# handlers the persistence machine passes it.
# ----------------------------------------------------------------------
C_CONST = 0
C_MOV = 1
C_BINOP = 2
C_NOP = 3
C_LOAD = 4
C_STORE = 5
C_CKPT = 6
C_BR = 7
C_CBR = 8
C_CALL = 9
C_RET = 10
C_UNLOCK = 11
C_LOCK = 12
C_ATOMIC = 13
C_FENCE = 14
C_BOUNDARY = 15
C_IO = 16

#: one compiled instruction: (numeric code, source Instr, *pre-resolved)
Code = Tuple[Any, ...]
#: a program's dispatch table: function -> block label -> code
Dispatch = Dict[str, Dict[str, List[Code]]]


def _compile_instr(instr: Instr) -> Code:
    """Lower one instruction to a flat code tuple with operands resolved
    as far as they can be without runtime state."""
    op = instr.op
    if op == Op.CONST:
        return (C_CONST, instr, instr.dst, _wrap(cast(int, instr.imm)))
    if op == Op.MOV:
        return (C_MOV, instr, instr.dst, instr.srcs[0])
    if op in Op.BINOPS:
        return (
            C_BINOP, instr, instr.dst, _BINOP_FUNCS[op],
            instr.srcs[0], instr.srcs[1],
        )
    if op == Op.NOP:
        return (C_NOP, instr)
    if op == Op.LOAD:
        return (C_LOAD, instr, instr.dst, instr.addr, instr.offset)
    if op == Op.STORE:
        return (C_STORE, instr, instr.srcs[0], instr.addr, instr.offset)
    if op == Op.CHECKPOINT:
        reg = instr.srcs[0]
        index: Optional[int] = None
        if isinstance(reg, str) and reg.startswith("r"):
            try:
                parsed = int(reg[1:])
            except ValueError:
                parsed = -1
            if 0 <= parsed < Program.N_ARCH_REGS:
                index = parsed
        # invalid registers keep index None so execution raises exactly
        # where the uncompiled interpreter would (checkpoint_slot)
        return (C_CKPT, instr, reg, index)
    if op == Op.BR:
        return (C_BR, instr, instr.targets[0])
    if op == Op.CBR:
        return (C_CBR, instr, instr.srcs[0], instr.targets[0], instr.targets[1])
    if op == Op.CALL:
        return (C_CALL, instr, instr.callee, instr.dst)
    if op == Op.RET:
        return (C_RET, instr, instr.srcs[0] if instr.srcs else 0)
    if op == Op.UNLOCK:
        return (C_UNLOCK, instr, instr.imm)
    if op == Op.LOCK:
        return (C_LOCK, instr, instr.imm)
    if op == Op.ATOMIC_RMW:
        return (C_ATOMIC, instr)
    if op == Op.FENCE:
        return (C_FENCE, instr)
    if op == Op.BOUNDARY:
        return (C_BOUNDARY, instr)
    if op == Op.IO:
        return (C_IO, instr)
    raise ValueError("unknown opcode %r" % op)


def precompile_dispatch(program: Program) -> Dispatch:
    """Lower every basic block of ``program`` to dispatch code, store the
    table on the program and return it."""
    dispatch: Dispatch = {}
    for fname, func in program.functions.items():
        dispatch[fname] = {
            label: [_compile_instr(i) for i in block.instrs]
            for label, block in func.blocks.items()
        }
    program._dispatch = dispatch
    return dispatch


class WordMemory:
    """Word-granular memory; absent words read as zero."""

    def __init__(self) -> None:
        self.words: Dict[int, int] = {}

    def read(self, addr: int) -> int:
        return self.words.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self.words[addr] = value

    def snapshot(self) -> Dict[int, int]:
        return dict(self.words)


#: the held locks of a thread that holds none
NO_LOCKS: FrozenSet[int] = frozenset()


class LockTable:
    """Shared lock ownership for multi-threaded runs.

    ``held`` keeps each thread's held locks as a frozenset that every
    acquire and release replaces, so a resume point keeps it as it is,
    with no copy and no scan of ``owner``."""

    def __init__(self) -> None:
        self.owner: Dict[int, int] = {}
        self.held: Dict[int, FrozenSet[int]] = {}

    def try_acquire(self, lock_id: int, tid: int) -> bool:
        if self.owner.get(lock_id) is None:
            self.owner[lock_id] = tid
            self.held[tid] = self.held.get(tid, NO_LOCKS) | {lock_id}
            return True
        return False

    def release(self, lock_id: int, tid: int) -> None:
        if self.owner.get(lock_id) != tid:
            raise RuntimeError(
                "thread %d releasing lock %d it does not hold" % (tid, lock_id)
            )
        del self.owner[lock_id]
        self.held[tid] = self.held[tid] - {lock_id}

    def copy(self) -> "LockTable":
        new = LockTable()
        new.owner = dict(self.owner)
        new.held = dict(self.held)
        return new


@dataclass
class Frame:
    """A saved caller context.  A CALL parks the caller's live register
    dict here, and nothing writes a pushed frame again: RET resumes on a
    copy of ``regs``, so resume points and clones share frames."""

    regs: Dict[str, int]
    func: str
    block: str
    index: int
    ret_reg: Optional[str]


class ThreadVM:
    """One hardware thread executing a (compiled or plain) program."""

    def __init__(
        self,
        program: Program,
        func_name: str,
        args: Sequence[int] = (),
        memory: Optional[WordMemory] = None,
        tid: int = 0,
        locks: Optional[LockTable] = None,
    ) -> None:
        self.program = program
        dispatch = program._dispatch
        #: the program's dispatch table, lowered here if it never was
        self.dispatch: Dispatch = (
            dispatch if dispatch is not None else precompile_dispatch(program)
        )
        self.memory = memory if memory is not None else WordMemory()
        self.tid = tid
        self.locks = locks if locks is not None else LockTable()
        func = program.functions[func_name]
        self.regs: Dict[str, int] = {}
        for param, arg in zip(func.params, args):
            self.regs[param] = _wrap(int(arg))
        self.frames: List[Frame] = []
        self.func_name = func_name
        self.block = func.entry
        self.index = 0
        self.halted = False
        self.steps = 0

    # ------------------------------------------------------------------
    def _value(self, operand: Union[int, str]) -> int:
        if isinstance(operand, int):
            return operand
        return self.regs.get(operand, 0)

    def _addr(self, instr: Instr) -> int:
        return _wrap(self._value(instr.addr) + instr.offset)

    def current_instr(self) -> Optional[Instr]:
        if self.halted:
            return None
        func = self.program.functions[self.func_name]
        block = func.blocks[self.block]
        return block.instrs[self.index]

    def position(self) -> Tuple[str, str, int]:
        return (self.func_name, self.block, self.index)

    # ------------------------------------------------------------------
    def step(self) -> Optional[TraceEvent]:
        """Execute one instruction.  Returns the trace event, ``None``
        when blocked on a lock, or a HALT event exactly once at the end.

        A thin wrapper over the precompiled dispatch table: the current
        instruction's code tuple selects a bound handler."""
        if self.halted:
            return None
        code = self.dispatch[self.func_name][self.block][self.index]
        handler = _HANDLERS[code[0]]
        return handler(self, code)

    # -- per-opcode handlers (the single-step semantics reference) ------
    def _advance(self) -> None:
        self.index += 1

    def _h_const(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        self.regs[c[2]] = c[3]
        self.index += 1
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_mov(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        v = c[3]
        self.regs[c[2]] = self.regs.get(v, 0) if type(v) is str else v
        self.index += 1
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_binop(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        regs = self.regs
        a = c[4]
        if type(a) is str:
            a = regs.get(a, 0)
        b = c[5]
        if type(b) is str:
            b = regs.get(b, 0)
        regs[c[2]] = c[3](a, b)
        self.index += 1
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_nop(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        self.index += 1
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_load(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        a = c[3]
        if type(a) is str:
            a = self.regs.get(a, 0)
        addr = _wrap(a + c[4])
        self.regs[c[2]] = self.memory.read(addr)
        self.index += 1
        return TraceEvent(EK.LOAD, addr=addr * WORD_BYTES, tid=self.tid)

    def _h_store(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        regs = self.regs
        a = c[3]
        if type(a) is str:
            a = regs.get(a, 0)
        addr = _wrap(a + c[4])
        v = c[2]
        self.memory.write(addr, regs.get(v, 0) if type(v) is str else v)
        self.index += 1
        return TraceEvent(EK.STORE, addr=addr * WORD_BYTES, tid=self.tid)

    def _h_ckpt(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        index = c[3]
        if index is None:
            slot = Program.checkpoint_slot(self.tid, c[2])
        else:
            slot = self.tid * Program.CHECKPOINT_WORDS_PER_CORE + index
        self.memory.write(slot, self.regs.get(c[2], 0))
        self.index += 1
        return TraceEvent(EK.CHECKPOINT, addr=slot * WORD_BYTES, tid=self.tid)

    def _h_br(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        self.block = c[2]
        self.index = 0
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_cbr(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        v = c[2]
        if type(v) is str:
            v = self.regs.get(v, 0)
        self.block = c[3] if v != 0 else c[4]
        self.index = 0
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_call(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        instr: Instr = c[1]
        callee = self.program.functions[c[2]]
        self.frames.append(
            Frame(
                regs=self.regs,
                func=self.func_name,
                block=self.block,
                index=self.index + 1,
                ret_reg=c[3],
            )
        )
        regs = self.regs
        new_regs: Dict[str, int] = {}
        for param, src in zip(callee.params, instr.srcs):
            new_regs[param] = regs.get(src, 0) if type(src) is str else src
        self.regs = new_regs
        self.func_name = c[2]
        self.block = callee.entry
        self.index = 0
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_ret(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        v = c[2]
        if type(v) is str:
            v = self.regs.get(v, 0)
        if not self.frames:
            self.halted = True
            return TraceEvent(EK.HALT, tid=self.tid)
        frame = self.frames.pop()
        self.regs = dict(frame.regs)
        if frame.ret_reg is not None:
            self.regs[frame.ret_reg] = v
        self.func_name = frame.func
        self.block = frame.block
        self.index = frame.index
        return TraceEvent(EK.ALU, tid=self.tid)

    def _h_unlock(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        self.locks.release(c[2], self.tid)
        self.index += 1
        return TraceEvent(EK.UNLOCK, tid=self.tid, lock_id=c[2])

    def _h_lock(self, c: Code) -> Optional[TraceEvent]:
        # Locks may refuse to advance the thread — no step is charged.
        if not self.locks.try_acquire(c[2], self.tid):
            return None
        self.index += 1
        self.steps += 1
        return TraceEvent(EK.LOCK, tid=self.tid, lock_id=c[2])

    def _h_atomic(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        instr: Instr = c[1]
        addr = self._addr(instr)
        old = self.memory.read(addr)
        operand = self._value(instr.srcs[0])
        new = operand if instr.rmw_op == "xchg" else _binop(instr.rmw_op, old, operand)
        self.memory.write(addr, new)
        if instr.dst is not None:
            self.regs[instr.dst] = old
        self.index += 1
        return TraceEvent(EK.ATOMIC, addr=addr * WORD_BYTES, tid=self.tid)

    def _h_fence(self, c: Code) -> Optional[TraceEvent]:
        self.steps += 1
        self.index += 1
        return TraceEvent(EK.FENCE, tid=self.tid)

    def _h_boundary(self, c: Code) -> TraceEvent:
        self.steps += 1
        instr: Instr = c[1]
        slot = Program.pc_slot(self.tid)
        self.memory.write(slot, instr.uid)
        self.index += 1
        return TraceEvent(
            EK.BOUNDARY,
            addr=slot * WORD_BYTES,
            tid=self.tid,
            boundary_uid=instr.uid,
        )

    def _h_io(self, c: Code) -> TraceEvent:
        self.steps += 1
        instr: Instr = c[1]
        payload = self._value(instr.srcs[0]) if instr.srcs else 0
        self.index += 1
        return TraceEvent(
            EK.IO, tid=self.tid, lock_id=instr.imm, payload=payload
        )

    # ------------------------------------------------------------------
    def run_fast(
        self,
        limit: int,
        trace: Optional[Trace] = None,
        store_steps: Optional[List[int]] = None,
        on_boundary: Optional[Callable[[int, int], None]] = None,
        on_io: Optional[Callable[[int, int, int], None]] = None,
    ) -> Tuple[int, str]:
        """Execute up to ``limit`` instructions in one inline loop over
        the compiled code tuples.

        Stops *before* any machine-visible instruction (LOCK /
        ATOMIC_RMW / FENCE, and BOUNDARY / IO when no handler is given)
        with reason ``"pause"``; executes a halting RET inline and
        returns ``"halt"``; otherwise retires ``limit`` instructions and
        returns ``"limit"``.  The executed prefix is byte-for-bit
        identical to the same number of :meth:`step` calls — the parity
        property suite pins this.

        Given a ``trace``, the batch also records the events those
        :meth:`step` calls would have returned: each LOAD, STORE, CKPT
        and UNLOCK record, preceded by the ALU run before it, and at
        batch end the trailing ALU run or the HALT.  ``n - last`` is the
        ALU run: every instruction the loop retires between two recorded
        ones is an ALU event, so no ALU opcode pays for recording.

        Given ``store_steps``, each STORE and CKPT appends the thread's
        step count as it retires (``steps`` before that instruction), in
        the order its memory write happened: the persistence machine
        settles a batch's stores in step order from these.

        Given ``on_boundary`` and ``on_io`` (the persistence machine
        passes both, and no trace), BOUNDARY and IO retire inside the
        batch.  A BOUNDARY stamps and writes its PC-slot store as
        :meth:`_h_boundary` does (the store retires one step before the
        boundary), writes the thread's position back and calls
        ``on_boundary(uid, step)``; an IO calls ``on_io(device, payload,
        step)``.  ``step`` is the thread's step count once the
        instruction has retired.  Both count in the returned total and
        against ``limit``.  Should an instruction or a handler raise,
        the thread's position and step count still reflect every
        instruction retired before it."""
        if self.halted or limit <= 0:
            return 0, "halt" if self.halted else "limit"
        regs = self.regs
        memory = self.memory
        mem_read = memory.read
        mem_write = memory.write
        frames = self.frames
        lock_release = self.locks.release
        tid = self.tid
        ckpt_base = tid * Program.CHECKPOINT_WORDS_PER_CORE
        pc_slot = Program.pc_slot(tid)
        functions = self.program.functions
        dispatch = self.dispatch
        func_name = self.func_name
        label = self.block
        # the current function's label -> code map: BR and CBR index
        # it, CALL and RET switch it
        fcode = dispatch[func_name]
        code = fcode[label]
        index = self.index
        n = 0
        reason = "limit"
        emit = trace.recorder(tid) if trace is not None else None
        last = 0  # n just past the last recorded instruction
        stamp = store_steps.append if store_steps is not None else None
        steps0 = self.steps
        try:
            while n < limit:
                c = code[index]
                k = c[0]
                if k == C_BINOP:
                    a = c[4]
                    if type(a) is str:
                        a = regs.get(a, 0)
                    b = c[5]
                    if type(b) is str:
                        b = regs.get(b, 0)
                    regs[c[2]] = c[3](a, b)
                    index += 1
                elif k == C_CONST:
                    regs[c[2]] = c[3]
                    index += 1
                elif k == C_LOAD:
                    a = c[3]
                    if type(a) is str:
                        a = regs.get(a, 0)
                    a = _wrap(a + c[4])
                    regs[c[2]] = mem_read(a)
                    index += 1
                    if emit is not None:
                        emit(n - last, K_LOAD, a * WORD_BYTES, 0)
                        last = n + 1
                elif k == C_STORE:
                    a = c[3]
                    if type(a) is str:
                        a = regs.get(a, 0)
                    a = _wrap(a + c[4])
                    v = c[2]
                    if type(v) is str:
                        v = regs.get(v, 0)
                    mem_write(a, v)
                    index += 1
                    if stamp is not None:
                        stamp(steps0 + n)
                    if emit is not None:
                        emit(n - last, K_STORE, a * WORD_BYTES, 0)
                        last = n + 1
                elif k == C_CBR:
                    v = c[2]
                    if type(v) is str:
                        v = regs.get(v, 0)
                    label = c[3] if v != 0 else c[4]
                    code = fcode[label]
                    index = 0
                elif k == C_MOV:
                    v = c[3]
                    if type(v) is str:
                        v = regs.get(v, 0)
                    regs[c[2]] = v
                    index += 1
                elif k == C_BR:
                    label = c[2]
                    code = fcode[label]
                    index = 0
                elif k == C_CKPT:
                    ri = c[3]
                    if ri is None:
                        slot = Program.checkpoint_slot(tid, c[2])
                    else:
                        slot = ckpt_base + ri
                    mem_write(slot, regs.get(c[2], 0))
                    index += 1
                    if stamp is not None:
                        stamp(steps0 + n)
                    if emit is not None:
                        emit(n - last, K_CKPT, slot * WORD_BYTES, 0)
                        last = n + 1
                elif k == C_BOUNDARY and on_boundary is not None:
                    uid = c[1].uid
                    if stamp is not None:
                        stamp(steps0 + n)
                    mem_write(pc_slot, uid)
                    index += 1
                    n += 1
                    self.func_name = func_name
                    self.block = label
                    self.index = index
                    on_boundary(uid, steps0 + n)
                    continue
                elif k == C_CALL:
                    frames.append(
                        Frame(regs, func_name, label, index + 1, c[3])
                    )
                    callee = functions[c[2]]
                    instr: Instr = c[1]
                    new_regs: Dict[str, int] = {}
                    for param, src in zip(callee.params, instr.srcs):
                        new_regs[param] = (
                            regs.get(src, 0) if type(src) is str else src
                        )
                    regs = new_regs
                    func_name = c[2]
                    label = callee.entry
                    fcode = dispatch[func_name]
                    code = fcode[label]
                    index = 0
                elif k == C_RET:
                    v = c[2]
                    if type(v) is str:
                        v = regs.get(v, 0)
                    if not frames:
                        n += 1
                        self.halted = True
                        reason = "halt"
                        break
                    frame = frames.pop()
                    # the parked caller dict stays as the frame saved it
                    regs = dict(frame.regs)
                    if frame.ret_reg is not None:
                        regs[frame.ret_reg] = v
                    func_name = frame.func
                    label = frame.block
                    fcode = dispatch[func_name]
                    code = fcode[label]
                    index = frame.index
                elif k == C_NOP:
                    index += 1
                elif k == C_UNLOCK:
                    lock_release(c[2], tid)
                    index += 1
                    if emit is not None:
                        emit(n - last, K_UNLOCK, 0, c[2])
                        last = n + 1
                elif k == C_IO and on_io is not None:
                    instr = c[1]
                    v = instr.srcs[0] if instr.srcs else 0
                    if type(v) is str:
                        v = regs.get(v, 0)
                    index += 1
                    n += 1
                    on_io(instr.imm, v, steps0 + n)
                    continue
                else:
                    # machine-visible: LOCK / ATOMIC_RMW / FENCE, and
                    # BOUNDARY / IO without handlers — the caller
                    # executes these through step()
                    reason = "pause"
                    break
                n += 1
        finally:
            self.regs = regs
            self.func_name = func_name
            self.block = label
            self.index = index
            self.steps = steps0 + n
        if emit is not None:
            if reason == "halt":
                emit(n - 1 - last, K_HALT, 0, 0)
            elif n > last:
                emit(0, K_ALU, 0, n - last)
        return n, reason


#: opcode -> handler; indexed by the code tuple's first element
_HANDLERS: List[Callable[[ThreadVM, Code], Optional[TraceEvent]]] = [
    ThreadVM._h_const,      # C_CONST
    ThreadVM._h_mov,        # C_MOV
    ThreadVM._h_binop,      # C_BINOP
    ThreadVM._h_nop,        # C_NOP
    ThreadVM._h_load,       # C_LOAD
    ThreadVM._h_store,      # C_STORE
    ThreadVM._h_ckpt,       # C_CKPT
    ThreadVM._h_br,         # C_BR
    ThreadVM._h_cbr,        # C_CBR
    ThreadVM._h_call,       # C_CALL
    ThreadVM._h_ret,        # C_RET
    ThreadVM._h_unlock,     # C_UNLOCK
    ThreadVM._h_lock,       # C_LOCK
    ThreadVM._h_atomic,     # C_ATOMIC
    ThreadVM._h_fence,      # C_FENCE
    ThreadVM._h_boundary,   # C_BOUNDARY
    ThreadVM._h_io,         # C_IO
]


def run_single(
    program: Program,
    func_name: str = "main",
    args: Sequence[int] = (),
    max_steps: int = 2_000_000,
    memory: Optional[WordMemory] = None,
) -> Tuple[Trace, WordMemory]:
    """Run one thread to completion; returns (trace, memory).

    :meth:`ThreadVM.run_fast` records each batch; only the instruction
    a batch pauses before goes through :meth:`ThreadVM.step`."""
    vm = ThreadVM(program, func_name, args=args, memory=memory)
    trace = Trace()
    while not vm.halted:
        if vm.steps >= max_steps:
            raise MachineLimitError(
                "execution exceeded %d steps (likely non-terminating)"
                % max_steps,
                steps=vm.steps,
                limit=max_steps,
            )
        _, why = vm.run_fast(max_steps - vm.steps, trace)
        if why != "pause":
            continue
        event = vm.step()
        if event is None:
            raise DeadlockError(
                "single thread blocked on a lock: deadlock", steps=vm.steps
            )
        trace.append(event)
    return trace, vm.memory


def run_threads(
    program: Program,
    entries: Sequence[Tuple[str, Sequence[int]]],
    max_steps: int = 4_000_000,
    schedule_seed: int = 0,
    quantum: int = 16,
) -> Tuple[Trace, WordMemory]:
    """Run several threads over shared memory with a deterministic
    round-robin schedule (``quantum`` instructions per turn).  The schedule
    seed rotates the starting thread, giving tests cheap schedule
    diversity while staying reproducible.

    A turn runs :meth:`ThreadVM.run_fast` batches capped at the turn's
    remaining quantum and at ``max_steps``; only the instruction a batch
    pauses before goes through :meth:`ThreadVM.step`, and a LOCK that
    finds its lock held ends the turn."""
    memory = WordMemory()
    locks = LockTable()
    vms = [
        ThreadVM(program, fname, args=args, memory=memory, tid=tid, locks=locks)
        for tid, (fname, args) in enumerate(entries)
    ]
    trace = Trace()
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
        left = quantum
        while left > 0 and not vm.halted:
            if total >= max_steps:
                raise MachineLimitError(
                    "multi-thread run exceeded %d steps" % max_steps,
                    steps=total,
                    limit=max_steps,
                )
            retired, why = vm.run_fast(min(left, max_steps - total), trace)
            if retired:
                progressed = True
                total += retired
                left -= retired
            if why != "pause":
                continue
            event = vm.step()
            if event is None:
                break  # blocked on a lock; yield the turn
            progressed = True
            total += 1
            left -= 1
            trace.append(event)
        if progressed:
            stalls = 0
        else:
            stalls += 1
            if stalls > 2 * n:
                raise DeadlockError(
                    "all threads blocked: lock deadlock", steps=total
                )
    return trace, memory
