"""A small register-level intermediate representation.

The LightWSP compiler operates at the LLVM MIR level, *after* register
allocation: its decisions depend on (a) how many store instructions lie on
each control-flow path and (b) which architectural registers are live-out
of each region.  This IR therefore models exactly those ingredients:

* a finite set of named registers (``r0`` ... ``r31`` by convention),
* explicit ``load``/``store`` instructions at 8-byte word granularity,
* control flow via labelled basic blocks with ``br``/``cbr``/``ret``
  terminators and direct ``call`` instructions,
* synchronization instructions (``fence``, ``atomic_rmw``, ``lock`` /
  ``unlock``) that force region boundaries (§III-D),
* two compiler-inserted pseudo-instructions: ``boundary`` (the
  PC-checkpointing store that ends a region) and ``checkpoint`` (a store of
  one live-out register into the PM-resident checkpoint array).

Both pseudo-instructions *are* stores on the persist path; the simulator
and the §V-G3 statistics count them as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Op",
    "Instr",
    "BasicBlock",
    "Function",
    "Program",
    "Operand",
    "WORD_BYTES",
    "is_store_like",
    "is_boundary_forcing",
]

#: The IR is word-addressed with 8-byte words — the granularity of the
#: non-temporal persist path (§III-A).
WORD_BYTES = 8

#: An operand is either a register name or an immediate integer.
Operand = Union[str, int]


class Op:
    """Opcode namespace.  Plain strings keep instructions printable."""

    # data movement / arithmetic
    CONST = "const"      # dst <- imm
    MOV = "mov"          # dst <- src
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"          # integer division, division by zero yields 0
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MIN = "min"
    MAX = "max"
    # comparisons (produce 0/1)
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    # memory
    LOAD = "load"        # dst <- mem[addr_reg + offset]
    STORE = "store"      # mem[addr_reg + offset] <- src
    # control flow
    BR = "br"
    CBR = "cbr"          # conditional branch on src != 0
    CALL = "call"
    RET = "ret"
    # synchronization (boundary-forcing, §III-D)
    FENCE = "fence"
    ATOMIC_RMW = "atomic_rmw"    # dst <- mem[addr]; mem[addr] <- op(dst, src)
    LOCK = "lock"        # acquire lock number `imm`
    UNLOCK = "unlock"    # release lock number `imm`
    # compiler-inserted pseudo-stores
    BOUNDARY = "boundary"        # region boundary: PC-checkpointing store
    CHECKPOINT = "checkpoint"    # store of a live-out register
    # irrevocable external operation (§IV-A "I/O Functions"): identified
    # by `imm` (device/port); reads srcs[0] as the payload if present
    IO = "io"
    # misc
    NOP = "nop"

    BINOPS = frozenset(
        {ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, MIN, MAX,
         EQ, NE, LT, LE, GT, GE}
    )
    TERMINATORS = frozenset({BR, CBR, RET})
    SYNC = frozenset({FENCE, ATOMIC_RMW, LOCK, UNLOCK})
    #: irrevocable: must sit alone in a region (boundaries on both sides)
    IRREVOCABLE = frozenset({IO})


def is_store_like(op: str) -> bool:
    """True for instructions that put an entry on the persist path."""
    return op in (Op.STORE, Op.CHECKPOINT, Op.BOUNDARY, Op.ATOMIC_RMW)


def is_boundary_forcing(op: str) -> bool:
    """True for instructions at which the compiler must start a new region
    (function calls are handled separately)."""
    return op in Op.SYNC or op in Op.IRREVOCABLE


_instr_ids = itertools.count()


@dataclass
class Instr:
    """One IR instruction.

    ``dst`` is the defined register (or None), ``srcs`` the operand tuple
    (registers or immediates).  Memory instructions carry ``addr`` (a base
    register or an absolute immediate address) and ``offset`` in *words*.
    Branches carry ``targets``; calls carry ``callee``.
    """

    op: str
    dst: Optional[str] = None
    srcs: Tuple[Operand, ...] = ()
    addr: Optional[Operand] = None
    offset: int = 0
    targets: Tuple[str, ...] = ()
    callee: Optional[str] = None
    imm: Optional[int] = None
    #: sub-operation for ATOMIC_RMW ("add", "xchg", ...)
    rmw_op: str = "add"
    #: free-form annotation; boundary instructions record their origin here
    #: ("entry", "exit", "call", "loop", "sync", "threshold")
    note: str = ""
    uid: int = field(default_factory=lambda: next(_instr_ids))

    # ------------------------------------------------------------------
    def uses(self) -> Tuple[str, ...]:
        """Registers read by this instruction."""
        regs = [s for s in self.srcs if isinstance(s, str)]
        if isinstance(self.addr, str):
            regs.append(self.addr)
        return tuple(regs)

    def defs(self) -> Tuple[str, ...]:
        """Registers written by this instruction."""
        return (self.dst,) if self.dst is not None else ()

    def is_terminator(self) -> bool:
        return self.op in Op.TERMINATORS

    def is_store_like(self) -> bool:
        return is_store_like(self.op)

    def copy(self) -> "Instr":
        return replace(self, uid=next(_instr_ids))

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts: List[str] = [self.op]
        if self.dst is not None:
            parts.append(self.dst + " <-")
        if self.addr is not None:
            parts.append("[%s+%d]" % (self.addr, self.offset))
        if self.srcs:
            parts.append(", ".join(str(s) for s in self.srcs))
        if self.callee:
            parts.append("@" + self.callee)
        if self.targets:
            parts.append("-> " + ", ".join(self.targets))
        if self.imm is not None and self.op in (Op.CONST, Op.LOCK, Op.UNLOCK):
            parts.append("#%d" % self.imm)
        return " ".join(parts)


@dataclass
class BasicBlock:
    """A labelled straight-line instruction sequence.

    The last instruction must be a terminator for well-formed functions;
    :meth:`Function.validate` checks this.  Blocks are mutable — compiler
    passes rewrite them in place.
    """

    label: str
    instrs: List[Instr] = field(default_factory=list)

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator():
            return self.instrs[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator()
        if term is None or term.op == Op.RET:
            return ()
        return term.targets

    def store_count(self) -> int:
        return sum(1 for i in self.instrs if i.is_store_like())

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __str__(self) -> str:
        body = "\n".join("    " + str(i) for i in self.instrs)
        return "%s:\n%s" % (self.label, body)


class Function:
    """A function: an entry block plus a labelled CFG of basic blocks."""

    def __init__(self, name: str, params: Sequence[str] = ()) -> None:
        self.name = name
        self.params: Tuple[str, ...] = tuple(params)
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        self._label_counter = itertools.count()

    # ------------------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError("duplicate block label %r in %s" % (label, self.name))
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry is None:
            self.entry = label
        return block

    def fresh_label(self, hint: str = "bb") -> str:
        while True:
            label = "%s.%d" % (hint, next(self._label_counter))
            if label not in self.blocks:
                return label

    def block_order(self) -> List[str]:
        """Labels in insertion order (entry first)."""
        return list(self.blocks)

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks.values():
            yield from block.instrs

    def store_count(self) -> int:
        return sum(b.store_count() for b in self.blocks.values())

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ValueError on malformed control flow."""
        if self.entry is None:
            raise ValueError("function %s has no blocks" % self.name)
        for block in self.blocks.values():
            term = block.terminator()
            if term is None:
                raise ValueError(
                    "block %s in %s lacks a terminator" % (block.label, self.name)
                )
            for i, instr in enumerate(block.instrs):
                if instr.is_terminator() and i != len(block.instrs) - 1:
                    raise ValueError(
                        "terminator %s mid-block in %s:%s"
                        % (instr, self.name, block.label)
                    )
            for target in block.successors():
                if target not in self.blocks:
                    raise ValueError(
                        "branch to unknown block %r in %s" % (target, self.name)
                    )

    def __str__(self) -> str:
        header = "func %s(%s)" % (self.name, ", ".join(self.params))
        return header + "\n" + "\n".join(
            str(self.blocks[lbl]) for lbl in self.block_order()
        )


class Program:
    """A whole program: functions plus a global data layout.

    Global arrays live in PM (word-granularity).  The checkpoint array —
    one slot per architectural register, plus one PC slot per the paper's
    checkpoint-storage management (§IV-A) — is reserved at address 0.
    """

    #: number of architectural registers reserved in the checkpoint array
    N_ARCH_REGS = 32
    #: checkpoint array: N_ARCH_REGS register slots + 1 PC slot, per core.
    CHECKPOINT_WORDS_PER_CORE = N_ARCH_REGS + 1
    #: maximum hardware threads whose checkpoint frames we reserve
    MAX_CONTEXTS = 64

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, Tuple[int, int]] = {}  # name -> (base, words)
        self._next_addr = self.CHECKPOINT_WORDS_PER_CORE * self.MAX_CONTEXTS
        #: interpreter dispatch table: func -> label -> compiled code
        #: tuples (see repro.compiler.interp).  Built when a compiled
        #: program is finished, or once when a thread first runs a
        #: program that was never compiled; code that edits a finished
        #: program finishes it again, since nothing rechecks the table.
        self._dispatch: Optional[Dict[str, Dict[str, List[Tuple[Any, ...]]]]] = None

    # ------------------------------------------------------------------
    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError("duplicate function %r" % func.name)
        self.functions[func.name] = func
        return func

    def array(self, name: str, words: int, align: int = 8) -> int:
        """Reserve a global array of ``words`` 8-byte words; returns the
        base *word* address."""
        if name in self.globals:
            raise ValueError("duplicate global %r" % name)
        if words < 1:
            raise ValueError("array %r must have at least one word" % name)
        base = -(-self._next_addr // align) * align
        self.globals[name] = (base, words)
        self._next_addr = base + words
        return base

    def base_of(self, name: str) -> int:
        return self.globals[name][0]

    @staticmethod
    def checkpoint_slot(context: int, reg: str) -> int:
        """Word address of ``reg``'s checkpoint slot for hardware context
        ``context`` (registers are named ``rN``)."""
        if not reg.startswith("r"):
            raise ValueError("cannot index checkpoint slot for %r" % reg)
        index = int(reg[1:])
        if index >= Program.N_ARCH_REGS:
            raise ValueError("register %r beyond checkpoint array" % reg)
        return context * Program.CHECKPOINT_WORDS_PER_CORE + index

    @staticmethod
    def pc_slot(context: int) -> int:
        """Word address of the PC checkpoint slot for ``context``."""
        return (
            context * Program.CHECKPOINT_WORDS_PER_CORE + Program.N_ARCH_REGS
        )

    def validate(self) -> None:
        for func in self.functions.values():
            func.validate()
            for instr in func.instructions():
                if instr.op == Op.CALL and instr.callee not in self.functions:
                    raise ValueError(
                        "call to unknown function %r" % (instr.callee,)
                    )

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())
