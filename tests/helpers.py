"""Shared program-construction helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence

from repro.compiler import FunctionBuilder, Program, run_single

#: First word address usable for data (everything below is the checkpoint
#: array region reserved by Program).
DATA_BASE = Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS


def data_words(memory) -> Dict[int, int]:
    """The memory image restricted to data addresses (checkpoint-array
    slots excluded) and with zero values dropped, for comparisons."""
    return {
        addr: value
        for addr, value in memory.words.items()
        if addr >= DATA_BASE and value != 0
    }


def saxpy_program(n: int = 64, scale: int = 3) -> Program:
    """y[i] = scale * x[i] + y[i] over n elements, x prefilled via stores."""
    prog = Program("saxpy")
    x = prog.array("x", n)
    y = prog.array("y", n)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 0)
    fb.br("init")
    fb.block("init")
    fb.mul("r2", "r1", 7)
    fb.store("r2", "r1", base=x)
    fb.add("r1", "r1", 1)
    fb.lt("r3", "r1", n)
    fb.cbr("r3", "init", "mid")
    fb.block("mid")
    fb.const("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.load("r2", "r1", base=x)
    fb.mul("r2", "r2", scale)
    fb.load("r4", "r1", base=y)
    fb.add("r2", "r2", "r4")
    fb.store("r2", "r1", base=y)
    fb.add("r1", "r1", 1)
    fb.lt("r3", "r1", n)
    fb.cbr("r3", "loop", "exit")
    fb.block("exit")
    fb.ret()
    fb.build()
    return prog


def straightline_program(stores: int, name: str = "straight") -> Program:
    """``stores`` consecutive stores with simple data dependencies."""
    prog = Program(name)
    a = prog.array("a", max(1, stores))
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 1)
    for i in range(stores):
        fb.add("r1", "r1", i + 1)
        fb.store("r1", i, base=a)
    fb.ret()
    fb.build()
    return prog


def call_program() -> Program:
    """main calls helper twice; helper stores and returns a value."""
    prog = Program("calls")
    a = prog.array("a", 8)
    helper = FunctionBuilder(prog, "helper", params=("r1", "r2"))
    helper.block("entry")
    helper.add("r3", "r1", "r2")
    helper.store("r3", "r1", base=a)
    helper.ret("r3")
    helper.build()

    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r4", 2)
    fb.call("helper", args=(1, "r4"), ret="r5")
    fb.call("helper", args=(3, "r5"), ret="r6")
    fb.store("r6", 7, base=a)
    fb.ret()
    fb.build()
    return prog


def locking_program(n_threads: int = 2, increments: int = 10) -> Program:
    """Threads atomically increment a shared counter inside a lock."""
    prog = Program("locking")
    shared = prog.array("shared", 1)
    scratch = prog.array("scratch", n_threads * increments + 1)
    fb = FunctionBuilder(prog, "worker", params=("r9",))
    fb.block("entry")
    fb.const("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.lock(0)
    fb.load("r2", 0, base=shared)
    fb.add("r2", "r2", 1)
    fb.store("r2", 0, base=shared)
    fb.unlock(0)
    fb.mul("r3", "r9", increments)
    fb.add("r3", "r3", "r1")
    fb.store("r2", "r3", base=scratch)
    fb.add("r1", "r1", 1)
    fb.lt("r4", "r1", increments)
    fb.cbr("r4", "loop", "exit")
    fb.block("exit")
    fb.ret()
    fb.build()
    return prog


def io_program() -> Program:
    """Two irrevocable I/O operations between stores: a console write
    of payload 7, then a doorbell with no payload."""
    prog = Program("io")
    a = prog.array("a", 8)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 7)
    fb.store("r1", 0, base=a)
    fb.io(1, "r1")         # console write of r1
    fb.add("r1", "r1", 1)
    fb.store("r1", 1, base=a)
    fb.io(2)               # doorbell, no payload
    fb.store("r1", 2, base=a)
    fb.ret()
    fb.build()
    return prog


def run_data(prog: Program, func: str = "main", args: Sequence[int] = ()) -> Dict[int, int]:
    """Run to completion and return the data-memory image."""
    _, mem = run_single(prog, func, args=args)
    return data_words(mem)


def write_trace(records: List[Dict], path: str) -> str:
    """Write (possibly tampered) trace records back out as JSONL."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def resume_point_values(entry) -> tuple:
    """One entry of ``PersistentMachine.history`` as fresh plain values:
    the ended region, the resume coordinates, the boundary uid, the held
    locks, the thread-start registers, and every saved frame's
    coordinates, return register and registers (copied)."""
    ended, func, block, index, frames, held_locks, uid, initial_regs = entry
    return (
        ended, func, block, index, uid, sorted(held_locks),
        None if initial_regs is None else dict(initial_regs),
        [(f.func, f.block, f.index, f.ret_reg, dict(f.regs))
         for f in frames],
    )


def resume_points(machine) -> List[List[tuple]]:
    """Each thread's boundary history as plain values
    (:func:`resume_point_values`)."""
    return [
        [resume_point_values(entry) for entry in history]
        for history in machine.history
    ]


def nonzero_fields(result) -> Dict[str, object]:
    """Every non-zero field of a ``SimResult`` except the scheme name,
    floats by ``repr``, so a pinned replay compares to the last bit."""
    out: Dict[str, object] = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "scheme" or value in (0, 0.0):
            continue
        out[f.name] = repr(value) if isinstance(value, float) else value
    return out
