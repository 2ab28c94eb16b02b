"""The single trace-event schema shared by every layer.

Two kinds of trace live here:

* **dynamic instruction traces** (:class:`Trace`, viewed as
  :class:`TraceEvent` s of kind :class:`EK`) — the interface between the
  compiler's execution (or a synthetic workload generator) and the
  timing simulator.  One event per retired instruction, at the
  abstraction level the timing model needs: instruction class, byte
  address for memory operations, and region-boundary markers.
  Addresses are in *bytes* (the IR is word-addressed; the interpreter
  multiplies by the 8-byte word size) so the cache models can index
  64 B blocks directly.  A :class:`Trace` stores the events as parallel
  integer columns and folds each run of one thread's ALU events into a
  single record, because ALU events are most of every trace and the
  timing engine only charges them ``base_cpi`` each; its iterator view
  still yields one :class:`TraceEvent` per instruction.

* **append-only JSONL run artifacts** (:class:`JsonlTrace`,
  :class:`NullTrace`) — one JSON object per line, in the order things
  happened, never rewritten.  Fault campaigns use it as their replay
  artifact: it records each scenario's benchmark, fault schedule, defense
  switches, and outcome (violation flag + a stable hash of the final
  persisted image), so ``repro faults replay <trace>`` can re-run every
  scenario and verify the outcomes reproduce bit-for-bit.

The runtime layer (:mod:`repro.runtime`) emits both kinds through this
module, so backend-agnostic tools see one schema.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

__all__ = [
    "EK",
    "KIND_NAMES",
    "Trace",
    "TraceEvent",
    "TraceStats",
    "as_trace",
    "count_events",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SCHEMA_MAJOR",
    "JsonlTrace",
    "NullTrace",
    "TraceSchemaError",
    "TraceParseError",
    "TruncatedTraceError",
    "TruncatedTraceWarning",
    "image_hash",
    "image_digest",
    "mix_int",
    "read_trace",
]

#: the trace.v1 contract version stamped into every JSONL record (see
#: :mod:`repro.obs.schema` for the event catalogue and version rules)
TRACE_SCHEMA_VERSION = "1.1"
TRACE_SCHEMA_MAJOR = 1


# ----------------------------------------------------------------------
# dynamic instruction events
# ----------------------------------------------------------------------

class EK:
    """Trace event kinds."""

    ALU = "alu"                # any non-memory instruction
    LOAD = "load"
    STORE = "store"            # a data store (persist-path entry)
    CHECKPOINT = "ckpt"        # compiler checkpoint store (persist-path entry)
    BOUNDARY = "bdry"          # region end: PC-checkpointing store + broadcast
    ATOMIC = "atomic"          # atomic RMW: load + store + boundary forced earlier
    FENCE = "fence"
    LOCK = "lock"
    UNLOCK = "unlock"
    IO = "io"                  # irrevocable external operation
    HALT = "halt"              # thread finished

    #: kinds that place an 8 B entry on the persist path
    STORE_LIKE = frozenset({STORE, CHECKPOINT, BOUNDARY, ATOMIC})
    #: kinds that read memory through the regular (cache) path
    LOAD_LIKE = frozenset({LOAD, ATOMIC})


@dataclass
class TraceEvent:
    """One dynamic instruction."""

    kind: str
    addr: int = 0              # byte address (memory events only)
    tid: int = 0               # hardware thread
    lock_id: int = 0           # LOCK/UNLOCK only; IO: device id
    boundary_uid: int = -1     # BOUNDARY only: static boundary identity
    payload: int = 0           # IO only: the value written to the device

    def is_store_like(self) -> bool:
        return self.kind in EK.STORE_LIKE

    def is_load_like(self) -> bool:
        return self.kind in EK.LOAD_LIKE


#: kind codes of a :class:`Trace`'s ``kind`` column
(K_ALU, K_LOAD, K_STORE, K_CKPT, K_BOUNDARY, K_ATOMIC, K_FENCE, K_LOCK,
 K_UNLOCK, K_IO, K_HALT) = range(11)
#: code -> :class:`EK` name
KIND_NAMES = (
    EK.ALU, EK.LOAD, EK.STORE, EK.CHECKPOINT, EK.BOUNDARY, EK.ATOMIC,
    EK.FENCE, EK.LOCK, EK.UNLOCK, EK.IO, EK.HALT,
)
_KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
#: codes whose ``aux`` is the event's ``lock_id`` (IO: the device id)
_LOCK_ID_CODES = frozenset({K_LOCK, K_UNLOCK, K_IO})


class Trace:
    """A dynamic trace as parallel integer columns, one entry per record.

    A record is one event, except that a ``K_ALU`` record stands for a
    run of ``aux`` consecutive ALU events of one thread.  The columns:

    * ``kind`` — the record's code (``K_*``; :data:`KIND_NAMES` names it);
    * ``addr`` — the byte address (0 for ALU records);
    * ``tid`` — the hardware thread;
    * ``aux`` — an ALU record's run length, a LOCK/UNLOCK lock id, an IO
      device id, a BOUNDARY's uid, else 0;
    * ``payloads`` — IO payloads by record index (absent means 0).

    The view: ``len()`` is the event count (HALT included), and
    iteration, indexing (``[-1]`` too) and ``==`` against a list see
    exactly the :class:`TraceEvent` s the classic one-event-per-step
    list holds.  Fields an event's kind does not carry — an ALU event's
    address, a LOAD's lock id — are not stored; the timing engine never
    read them."""

    __slots__ = ("kind", "addr", "tid", "aux", "payloads", "_index")

    def __init__(self) -> None:
        self.kind: List[int] = []
        self.addr: List[int] = []
        self.tid: List[int] = []
        self.aux: List[int] = []
        self.payloads: Dict[int, int] = {}
        #: see :meth:`_starts`
        self._index: Optional[Tuple[List[int], int]] = None

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Trace":
        trace = cls()
        for event in events:
            trace.append(event)
        return trace

    def append(self, event: TraceEvent) -> None:
        """Append one event; an ALU event extends its thread's ALU run
        when that run is the last record."""
        code = _KIND_CODES.get(event.kind)
        if code is None:
            raise ValueError("unknown event kind %r" % (event.kind,))
        kind = self.kind
        if code == K_ALU:
            if kind and kind[-1] == K_ALU and self.tid[-1] == event.tid:
                self.aux[-1] += 1
                self._index = None
                return
            addr, aux = 0, 1
        elif code == K_BOUNDARY:
            addr, aux = event.addr, event.boundary_uid
        elif code in _LOCK_ID_CODES:
            addr, aux = event.addr, event.lock_id
            if code == K_IO and event.payload:
                self.payloads[len(kind)] = event.payload
        else:
            addr, aux = event.addr, 0
        kind.append(code)
        self.addr.append(addr)
        self.tid.append(event.tid)
        self.aux.append(aux)

    def recorder(self, tid: int) -> Callable[[int, int, int, int], None]:
        """The interpreter's appender for thread ``tid``:
        ``emit(run, code, addr, aux)`` appends an ALU record of ``run``
        events when ``run`` is non-zero, then the record itself."""
        kind = self.kind.append
        addr_ = self.addr.append
        tid_ = self.tid.append
        aux_ = self.aux.append

        def emit(run: int, code: int, addr: int, aux: int) -> None:
            if run:
                kind(K_ALU)
                addr_(0)
                tid_(tid)
                aux_(run)
            kind(code)
            addr_(addr)
            tid_(tid)
            aux_(aux)

        return emit

    # -- the event view ------------------------------------------------
    def _event(self, r: int) -> TraceEvent:
        """Record ``r`` as an event (an ALU record: one of its run)."""
        code = self.kind[r]
        tid = self.tid[r]
        if code == K_ALU:
            return TraceEvent(EK.ALU, tid=tid)
        aux = self.aux[r]
        if code == K_BOUNDARY:
            return TraceEvent(EK.BOUNDARY, self.addr[r], tid, boundary_uid=aux)
        if code in _LOCK_ID_CODES:
            return TraceEvent(
                KIND_NAMES[code], self.addr[r], tid, aux,
                payload=self.payloads.get(r, 0),
            )
        return TraceEvent(KIND_NAMES[code], self.addr[r], tid)

    def _starts(self) -> Tuple[List[int], int]:
        """(first event index of each record, event count), cached until
        the next append; only indexing needs it."""
        index = self._index
        if index is None or len(index[0]) != len(self.kind):
            starts = []
            total = 0
            for code, aux in zip(self.kind, self.aux):
                starts.append(total)
                total += aux if code == K_ALU else 1
            index = self._index = (starts, total)
        return index

    def __len__(self) -> int:
        alu_events = sum(compress(self.aux, map(K_ALU.__eq__, self.kind)))
        return len(self.kind) - self.kind.count(K_ALU) + alu_events

    def __iter__(self) -> Iterator[TraceEvent]:
        event = self._event
        for r, (code, run, tid) in enumerate(zip(self.kind, self.aux, self.tid)):
            if code == K_ALU:
                for _ in range(run):
                    yield TraceEvent(EK.ALU, tid=tid)
            else:
                yield event(r)

    def __getitem__(self, i: int) -> TraceEvent:
        starts, total = self._starts()
        if i < 0:
            i += total
        if not 0 <= i < total:
            raise IndexError("trace index out of range")
        return self._event(bisect_right(starts, i) - 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Trace, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return "<Trace: %d events in %d records>" % (len(self), len(self.kind))


def as_trace(events: Union[Trace, Iterable[TraceEvent]]) -> Trace:
    """``events`` itself when it is a :class:`Trace`; a hand-built event
    list converts once, through :meth:`Trace.from_events`."""
    if isinstance(events, Trace):
        return events
    return Trace.from_events(events)


@dataclass
class TraceStats:
    """Aggregate counts over a trace (feeds §V-G3)."""

    instructions: int = 0
    loads: int = 0
    data_stores: int = 0
    checkpoint_stores: int = 0
    boundaries: int = 0
    atomics: int = 0

    @property
    def persist_entries(self) -> int:
        return (
            self.data_stores
            + self.checkpoint_stores
            + self.boundaries
            + self.atomics
        )

    @property
    def instrumentation(self) -> int:
        return self.checkpoint_stores + self.boundaries

    def instructions_per_region(self) -> float:
        return self.instructions / self.boundaries if self.boundaries else 0.0

    def stores_per_region(self) -> float:
        if not self.boundaries:
            return 0.0
        return (self.data_stores + self.checkpoint_stores + self.atomics) / (
            self.boundaries
        )


def count_events(events: Union[Trace, Iterable[TraceEvent]]) -> TraceStats:
    trace = as_trace(events)
    count = trace.kind.count
    return TraceStats(
        instructions=len(trace) - count(K_HALT),
        loads=count(K_LOAD),
        data_stores=count(K_STORE),
        checkpoint_stores=count(K_CKPT),
        boundaries=count(K_BOUNDARY),
        atomics=count(K_ATOMIC),
    )


# ----------------------------------------------------------------------
# append-only JSONL run artifacts
# ----------------------------------------------------------------------

def image_hash(image: Dict[int, int]) -> str:
    """A stable fingerprint of a persisted data image."""
    digest = hashlib.sha256()
    for word in sorted(image):
        digest.update(("%d:%d;" % (word, image[word])).encode())
    return digest.hexdigest()[:16]


def image_digest(image: Dict[int, int]) -> str:
    """A store shard's image fingerprint, as store and cluster runs
    report and trace it.  Its ``w=v;`` word format differs from
    :func:`image_hash`, whose format the faults traces pin."""
    digest = hashlib.sha256()
    for word in sorted(image):
        digest.update(("%d=%d;" % (word, image[word])).encode())
    return digest.hexdigest()[:16]


def mix_int(*parts: object) -> int:
    """A seeded integer from the parts, independent of PYTHONHASHSEED."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"
    )


class TraceSchemaError(ValueError):
    """A :class:`JsonlTrace` was asked to emit a record that violates
    the trace.v1 event catalogue (:mod:`repro.obs.schema`)."""


class TraceParseError(ValueError):
    """A JSONL trace line failed to parse."""

    def __init__(self, path: str, line_no: int, message: str) -> None:
        super().__init__(
            "%s line %d: %s" % (path, line_no, message)
        )
        self.path = path
        self.line_no = line_no


class TruncatedTraceError(TraceParseError):
    """The *final* line of a JSONL trace is incomplete — the signature
    of a writer that crashed (or is still running) mid-record.  Pass
    ``lenient=True`` to :func:`read_trace` to drop the partial line
    with a warning instead."""


class TruncatedTraceWarning(UserWarning):
    """Lenient-mode notice that a truncated final line was dropped."""


class JsonlTrace:
    """Append-only JSONL writer.  One instance per recorded run.

    Every record is stamped with ``schema_version`` (trace.v1) so each
    line is self-describing, and validated against the event catalogue
    before it is written: a violating record raises
    :class:`TraceSchemaError` instead of poisoning the artifact."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a")
        self.lines_written = 0

    def emit(self, rectype: str, **fields) -> None:
        from .obs.schema import validate_record  # lazy: it imports this module

        record = {"type": rectype}
        record.update(fields)
        record.setdefault("schema_version", TRACE_SCHEMA_VERSION)
        problems = validate_record(record)
        if problems:
            raise TraceSchemaError(
                "refusing to emit a record that violates trace.v%d "
                "(%s): %s" % (
                    TRACE_SCHEMA_MAJOR, self.path, "; ".join(problems),
                )
            )
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.lines_written += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTrace:
    """Trace sink for runs that don't record (shrinking probes, tests)."""

    path: Optional[str] = None
    lines_written = 0

    def emit(self, rectype: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


def read_trace(path: str, lenient: bool = False) -> List[Dict]:
    """Parse a JSONL trace into records.

    A trace written by a crashed (or still-running) producer commonly
    ends in a half-written line: that raises a typed
    :class:`TruncatedTraceError` naming the file and line — or, with
    ``lenient=True``, drops the partial line with a
    :class:`TruncatedTraceWarning` and returns everything before it
    (every complete record of an append-only trace is still valid).  A
    malformed line *before* the end is not a crash signature but
    corruption, and always raises :class:`TraceParseError`."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    records: List[Dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            final = all(not rest.strip() for rest in lines[i + 1:])
            if not final:
                raise TraceParseError(
                    path, i + 1,
                    "malformed JSONL record (%s); the trace is corrupt "
                    "beyond a truncated tail" % exc,
                ) from None
            if lenient:
                warnings.warn(
                    "%s line %d: dropping truncated final record "
                    "(crashed writer?)" % (path, i + 1),
                    TruncatedTraceWarning,
                    stacklevel=2,
                )
                break
            raise TruncatedTraceError(
                path, i + 1,
                "truncated final record (crashed or still-running "
                "writer?); pass lenient=True to drop it",
            ) from None
    return records
