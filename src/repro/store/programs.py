"""The store's operations as LightWSP programs.

Every operation is emitted as ordinary IR and compiled through the real
pipeline — region partitioning, checkpoint insertion, WPQ-threshold
splitting — so the store inherits crash consistency from the machine
instead of implementing a redo log of its own (the paper's whole-system
persistence pitch, §I).  The only store-specific discipline is *write
order*: a PUT appends the record words first and stores the index pointer
last, so the pointer (the visibility point) can never commit ahead of the
record it names — regions commit in program order on a single shard
thread, so a crash keeps a prefix.

Functions emitted:

* ``probe(key)``   — linear probing; returns the slot whose ``idx_keys``
  entry is ``key+1`` or the first never-claimed slot.
* ``getv(key)``    — checksum of the record's value words, or ``-1``.
* ``putv(key, seed)`` — append record + flip pointer; returns the
  checksum, or ``-2`` when the heap is full even after compaction.
* ``delv(key)``    — append tombstone + clear pointer; returns 1/0.
* ``scanv(start, count)`` — sum of checksums over a key range.
* ``compact()``    — copy live records into the inactive half, flip.
* ``main()``       — the request dispatcher: read each request triple,
  dispatch, store the result word, acknowledge with one ``io`` whose
  payload is the request's index in the batch.

The dispatcher reads its batch from the ``reqs``/``meta`` arrays; they
can either be *baked* into the program as a setup block of immediate
stores (self-contained programs for the fault campaign and tests) or
seeded into the machine's images by the serving harness (modelling a
persistent NIC request ring).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..compiler.builder import FunctionBuilder
from ..compiler.ir import Program
from .layout import (
    META_ACTIVE,
    META_COMPACTIONS,
    META_CURSOR,
    META_DEAD,
    META_DROPS,
    META_NREQ,
    KNUTH,
    OP_DELETE,
    OP_GET,
    OP_PUT,
    RESP_DEVICE,
    StoreLayout,
)

__all__ = ["build_store_program", "request_words", "Request"]

#: one request: (opcode, key, arg) — arg is the PUT seed, the SCAN count,
#: and 0 for GET/DELETE
Request = Tuple[int, int, int]


def _emit_probe(prog: Program, lay: StoreLayout) -> None:
    fb = FunctionBuilder(prog, "probe", params=["r1"])
    mask = lay.capacity - 1
    fb.block("entry")
    fb.mul("r2", "r1", KNUTH)
    fb.shr("r2", "r2", 16)
    fb.and_("r2", "r2", mask)
    fb.add("r3", "r1", 1)            # the claimed-slot marker for key
    fb.br("loop")
    fb.block("loop")
    fb.load("r4", "r2", base=lay.idx_keys)
    fb.eq("r5", "r4", 0)
    fb.cbr("r5", "found", "check")
    fb.block("check")
    fb.eq("r5", "r4", "r3")
    fb.cbr("r5", "found", "next")
    fb.block("next")
    fb.add("r2", "r2", 1)
    fb.and_("r2", "r2", mask)
    fb.br("loop")
    fb.block("found")
    fb.ret("r2")
    fb.build()


def _emit_get(prog: Program, lay: StoreLayout) -> None:
    fb = FunctionBuilder(prog, "getv", params=["r1"])
    fb.block("entry")
    fb.call("probe", ["r1"], ret="r2")
    fb.load("r3", "r2", base=lay.idx_keys)
    fb.eq("r4", "r3", 0)
    fb.cbr("r4", "miss", "checkptr")
    fb.block("checkptr")
    fb.load("r5", "r2", base=lay.idx_ptrs)
    fb.eq("r4", "r5", 0)
    fb.cbr("r4", "miss", "sum")
    fb.block("sum")                   # value words live at r5 .. r5+V-1
    fb.const("r6", 0)
    fb.const("r7", 0)
    fb.br("sumloop")
    fb.block("sumloop")
    fb.lt("r8", "r7", lay.value_words)
    fb.cbr("r8", "sumbody", "done")
    fb.block("sumbody")
    fb.add("r9", "r5", "r7")
    fb.load("r10", "r9")
    fb.add("r6", "r6", "r10")
    fb.add("r7", "r7", 1)
    fb.br("sumloop")
    fb.block("done")
    fb.ret("r6")
    fb.block("miss")
    fb.const("r6", -1)
    fb.ret("r6")
    fb.build()


def _emit_put(prog: Program, lay: StoreLayout) -> None:
    rec = lay.record_words
    half = lay.half_words
    fb = FunctionBuilder(prog, "putv", params=["r1", "r2"])
    fb.block("entry")
    fb.load("r3", META_CURSOR, base=lay.meta)
    fb.add("r4", "r3", rec)
    fb.le("r5", "r4", half)
    fb.cbr("r5", "place", "tight")
    fb.block("tight")
    fb.call("compact")
    fb.load("r3", META_CURSOR, base=lay.meta)
    fb.add("r4", "r3", rec)
    fb.le("r5", "r4", half)
    fb.cbr("r5", "place", "drop")
    fb.block("drop")                  # full even after compaction
    fb.load("r6", META_DROPS, base=lay.meta)
    fb.add("r6", "r6", 1)
    fb.store("r6", META_DROPS, base=lay.meta)
    fb.const("r6", -2)
    fb.ret("r6")
    fb.block("place")
    fb.call("probe", ["r1"], ret="r6")
    fb.load("r7", "r6", base=lay.idx_keys)
    fb.eq("r8", "r7", 0)
    fb.cbr("r8", "claim", "overwrite")
    fb.block("claim")
    fb.add("r9", "r1", 1)
    fb.store("r9", "r6", base=lay.idx_keys)
    fb.br("writerec")
    fb.block("overwrite")             # the replaced record becomes dead
    fb.load("r9", "r6", base=lay.idx_ptrs)
    fb.eq("r8", "r9", 0)
    fb.cbr("r8", "writerec", "adddead")
    fb.block("adddead")
    fb.load("r10", META_DEAD, base=lay.meta)
    fb.add("r10", "r10", rec)
    fb.store("r10", META_DEAD, base=lay.meta)
    fb.br("writerec")
    fb.block("writerec")              # header + value words, pointer LAST
    fb.load("r11", META_ACTIVE, base=lay.meta)
    fb.mul("r11", "r11", half)
    fb.add("r11", "r11", "r3")        # heap-relative record address
    fb.mul("r12", "r1", 2)
    fb.store("r12", "r11", base=lay.heap)
    fb.const("r13", 0)
    fb.br("ploop")
    fb.block("ploop")
    fb.lt("r14", "r13", lay.value_words)
    fb.cbr("r14", "pbody", "publish")
    fb.block("pbody")
    fb.add("r15", "r11", 1)
    fb.add("r15", "r15", "r13")
    fb.add("r16", "r2", "r13")
    fb.store("r16", "r15", base=lay.heap)
    fb.add("r13", "r13", 1)
    fb.br("ploop")
    fb.block("publish")               # the visibility point
    fb.add("r17", "r11", lay.heap + 1)
    fb.store("r17", "r6", base=lay.idx_ptrs)
    fb.add("r18", "r3", rec)
    fb.store("r18", META_CURSOR, base=lay.meta)
    fb.mul("r19", "r2", lay.value_words)
    fb.add("r19", "r19", (lay.value_words * (lay.value_words - 1)) // 2)
    fb.ret("r19")
    fb.build()


def _emit_delete(prog: Program, lay: StoreLayout) -> None:
    rec = lay.record_words
    half = lay.half_words
    fb = FunctionBuilder(prog, "delv", params=["r1"])
    fb.block("entry")
    fb.call("probe", ["r1"], ret="r2")
    fb.load("r3", "r2", base=lay.idx_keys)
    fb.eq("r4", "r3", 0)
    fb.cbr("r4", "miss", "checkptr")
    fb.block("checkptr")
    fb.load("r5", "r2", base=lay.idx_ptrs)
    fb.eq("r4", "r5", 0)
    fb.cbr("r4", "miss", "room")
    fb.block("room")                  # one word for the tombstone
    fb.load("r6", META_CURSOR, base=lay.meta)
    fb.add("r7", "r6", 1)
    fb.le("r8", "r7", half)
    fb.cbr("r8", "tomb", "tight")
    fb.block("tight")
    fb.call("compact")
    fb.load("r6", META_CURSOR, base=lay.meta)
    fb.add("r7", "r6", 1)
    fb.le("r8", "r7", half)
    fb.cbr("r8", "tomb", "clear")     # no room: skip the tombstone
    fb.block("tomb")
    fb.load("r9", META_ACTIVE, base=lay.meta)
    fb.mul("r9", "r9", half)
    fb.add("r9", "r9", "r6")
    fb.mul("r10", "r1", 2)
    fb.add("r10", "r10", 1)           # odd header = tombstone
    fb.store("r10", "r9", base=lay.heap)
    fb.store("r7", META_CURSOR, base=lay.meta)
    fb.load("r11", META_DEAD, base=lay.meta)
    fb.add("r11", "r11", rec + 1)     # dead record + its own tombstone
    fb.store("r11", META_DEAD, base=lay.meta)
    fb.br("clear")
    fb.block("clear")                 # the visibility point
    fb.store(0, "r2", base=lay.idx_ptrs)
    fb.const("r12", 1)
    fb.ret("r12")
    fb.block("miss")
    fb.const("r12", 0)
    fb.ret("r12")
    fb.build()


def _emit_scan(prog: Program, lay: StoreLayout) -> None:
    fb = FunctionBuilder(prog, "scanv", params=["r1", "r2"])
    fb.block("entry")
    fb.const("r3", 0)                 # accumulator
    fb.mov("r4", "r1")                # current key
    fb.add("r5", "r1", "r2")          # end key (exclusive)
    fb.br("loop")
    fb.block("loop")
    fb.lt("r6", "r4", "r5")
    fb.cbr("r6", "body", "done")
    fb.block("body")
    fb.call("getv", ["r4"], ret="r7")
    fb.eq("r8", "r7", -1)
    fb.cbr("r8", "skip", "accum")
    fb.block("accum")
    fb.add("r3", "r3", "r7")
    fb.br("skip")
    fb.block("skip")
    fb.add("r4", "r4", 1)
    fb.br("loop")
    fb.block("done")
    fb.ret("r3")
    fb.build()


def _emit_compact(prog: Program, lay: StoreLayout) -> None:
    rec = lay.record_words
    half = lay.half_words
    fb = FunctionBuilder(prog, "compact")
    fb.block("entry")
    fb.load("r1", META_ACTIVE, base=lay.meta)
    fb.sub("r2", 1, "r1")             # the half we copy into
    fb.mul("r3", "r2", half)          # heap-relative destination cursor
    fb.const("r5", 0)                 # slot
    fb.br("loop")
    fb.block("loop")
    fb.lt("r6", "r5", lay.capacity)
    fb.cbr("r6", "body", "done")
    fb.block("body")
    fb.load("r7", "r5", base=lay.idx_keys)
    fb.eq("r8", "r7", 0)
    fb.cbr("r8", "next", "checkptr")
    fb.block("checkptr")
    fb.load("r9", "r5", base=lay.idx_ptrs)
    fb.eq("r8", "r9", 0)
    fb.cbr("r8", "next", "copy")
    fb.block("copy")                  # header, value words, pointer LAST
    fb.sub("r10", "r9", 1)
    fb.load("r11", "r10")
    fb.store("r11", "r3", base=lay.heap)
    fb.const("r12", 0)
    fb.br("ploop")
    fb.block("ploop")
    fb.lt("r13", "r12", lay.value_words)
    fb.cbr("r13", "pbody", "publish")
    fb.block("pbody")
    fb.add("r14", "r9", "r12")
    fb.load("r15", "r14")
    fb.add("r16", "r3", 1)
    fb.add("r16", "r16", "r12")
    fb.store("r15", "r16", base=lay.heap)
    fb.add("r12", "r12", 1)
    fb.br("ploop")
    fb.block("publish")
    fb.add("r17", "r3", lay.heap + 1)
    fb.store("r17", "r5", base=lay.idx_ptrs)
    fb.add("r3", "r3", rec)
    fb.br("next")
    fb.block("next")
    fb.add("r5", "r5", 1)
    fb.br("loop")
    fb.block("done")
    fb.mul("r18", "r2", half)
    fb.sub("r19", "r3", "r18")        # cursor offset in the new half
    fb.store("r19", META_CURSOR, base=lay.meta)
    fb.store("r2", META_ACTIVE, base=lay.meta)
    fb.store(0, META_DEAD, base=lay.meta)
    fb.load("r20", META_COMPACTIONS, base=lay.meta)
    fb.add("r20", "r20", 1)
    fb.store("r20", META_COMPACTIONS, base=lay.meta)
    fb.ret()
    fb.build()


def _emit_main(
    prog: Program, lay: StoreLayout, baked: Optional[Sequence[Request]]
) -> None:
    fb = FunctionBuilder(prog, "main")
    if baked is not None:
        if len(baked) > lay.max_batch:
            raise ValueError(
                "batch of %d exceeds max_batch %d" % (len(baked), lay.max_batch)
            )
        fb.block("setup")
        for i, (op, key, arg) in enumerate(baked):
            fb.store(op, 3 * i, base=lay.reqs)
            fb.store(key, 3 * i + 1, base=lay.reqs)
            fb.store(arg, 3 * i + 2, base=lay.reqs)
        fb.store(len(baked), META_NREQ, base=lay.meta)
        fb.br("start")
    fb.block("start")
    fb.const("r1", 0)                 # request index
    fb.load("r2", META_NREQ, base=lay.meta)
    fb.br("loop")
    fb.block("loop")
    fb.lt("r3", "r1", "r2")
    fb.cbr("r3", "fetch", "exit")
    fb.block("fetch")
    fb.mul("r4", "r1", 3)
    fb.load("r5", "r4", base=lay.reqs)            # opcode
    fb.add("r6", "r4", 1)
    fb.load("r7", "r6", base=lay.reqs)            # key
    fb.add("r6", "r4", 2)
    fb.load("r8", "r6", base=lay.reqs)            # arg
    fb.eq("r9", "r5", OP_PUT)
    fb.cbr("r9", "do_put", "c_get")
    fb.block("c_get")
    fb.eq("r9", "r5", OP_GET)
    fb.cbr("r9", "do_get", "c_del")
    fb.block("c_del")
    fb.eq("r9", "r5", OP_DELETE)
    fb.cbr("r9", "do_del", "do_scan")
    fb.block("do_put")
    fb.call("putv", ["r7", "r8"], ret="r10")
    fb.br("finish")
    fb.block("do_get")
    fb.call("getv", ["r7"], ret="r10")
    fb.br("finish")
    fb.block("do_del")
    fb.call("delv", ["r7"], ret="r10")
    fb.br("finish")
    fb.block("do_scan")
    fb.call("scanv", ["r7", "r8"], ret="r10")
    fb.br("finish")
    fb.block("finish")                # durable result, then the ack
    fb.store("r10", "r1", base=lay.out)
    # adds nothing, but it is one instruction per request: dropping it
    # would shift every simulated step count and every pinned trace
    fb.add("r11", "r1", 0)
    fb.io(RESP_DEVICE, "r11")
    fb.add("r1", "r1", 1)
    fb.br("loop")
    fb.block("exit")
    fb.ret()
    fb.build()


def build_store_program(
    lay: StoreLayout,
    baked_requests: Optional[Sequence[Request]] = None,
    name: str = "kvstore",
) -> Tuple[Program, StoreLayout]:
    """Emit the full store program.  Returns ``(program, placed_layout)``
    where the placed layout carries the absolute array addresses.

    With ``baked_requests`` the batch is written by a setup block of
    immediate stores (a self-contained program); without it the caller
    must seed ``reqs`` and ``meta[META_NREQ]`` into the machine's images
    (see :func:`request_words`).  The ``io`` acknowledgement payloads
    are batch-local indices; a caller serving many batches adds the
    batch's first request id."""
    prog = Program(name)
    placed = lay.place(prog)
    _emit_probe(prog, placed)
    _emit_get(prog, placed)
    _emit_put(prog, placed)
    _emit_delete(prog, placed)
    _emit_scan(prog, placed)
    _emit_compact(prog, placed)
    _emit_main(prog, placed, baked_requests)
    prog.validate()
    return prog, placed


def request_words(
    lay: StoreLayout, requests: Sequence[Request]
) -> Dict[int, int]:
    """The words a serving harness seeds into both machine images to hand
    the dispatcher its batch (the persistent NIC request ring)."""
    if len(requests) > lay.max_batch:
        raise ValueError(
            "batch of %d exceeds max_batch %d" % (len(requests), lay.max_batch)
        )
    words: Dict[int, int] = {}
    for i, (op, key, arg) in enumerate(requests):
        words[lay.reqs + 3 * i] = op
        words[lay.reqs + 3 * i + 1] = key
        words[lay.reqs + 3 * i + 2] = arg
    words[lay.meta + META_NREQ] = len(requests)
    return words
