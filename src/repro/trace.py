"""The single trace-event schema shared by every layer.

Two kinds of trace live here:

* **dynamic instruction events** (:class:`TraceEvent`, :class:`EK`) — the
  interface between the compiler's execution (or a synthetic workload
  generator) and the timing simulator.  One event per retired
  instruction, at the abstraction level the timing model needs:
  instruction class, byte address for memory operations, and
  region-boundary markers.  Addresses are in *bytes* (the IR is
  word-addressed; the interpreter multiplies by the 8-byte word size) so
  the cache models can index 64 B blocks directly.

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
import os
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = [
    "EK",
    "TraceEvent",
    "TraceStats",
    "count_events",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SCHEMA_MAJOR",
    "JsonlTrace",
    "NullTrace",
    "TraceSchemaError",
    "TraceParseError",
    "TruncatedTraceError",
    "TruncatedTraceWarning",
    "set_default_strict",
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


def count_events(events: Iterable[TraceEvent]) -> TraceStats:
    stats = TraceStats()
    for ev in events:
        if ev.kind == EK.HALT:
            continue
        stats.instructions += 1
        if ev.kind == EK.LOAD:
            stats.loads += 1
        elif ev.kind == EK.STORE:
            stats.data_stores += 1
        elif ev.kind == EK.CHECKPOINT:
            stats.checkpoint_stores += 1
        elif ev.kind == EK.BOUNDARY:
            stats.boundaries += 1
        elif ev.kind == EK.ATOMIC:
            stats.atomics += 1
    return stats


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
    """A strict-mode :class:`JsonlTrace` was asked to emit a record that
    violates the trace.v1 event catalogue (:mod:`repro.obs.schema`)."""


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


#: process-wide default for JsonlTrace strict validation; None defers
#: to the REPRO_TRACE_STRICT environment variable (off when unset)
_DEFAULT_STRICT: Optional[bool] = None


def set_default_strict(value: Optional[bool]) -> Optional[bool]:
    """Set the process-wide strict default for every
    :class:`JsonlTrace` constructed without an explicit ``strict=``.
    The test suite turns this on in ``tests/conftest.py`` so every
    emitted record doubles as a schema regression test.  Returns the
    previous value; ``None`` restores the environment-variable
    default."""
    global _DEFAULT_STRICT
    previous = _DEFAULT_STRICT
    _DEFAULT_STRICT = value
    return previous


def _strict_default() -> bool:
    if _DEFAULT_STRICT is not None:
        return _DEFAULT_STRICT
    return os.environ.get("REPRO_TRACE_STRICT", "") not in ("", "0")


class JsonlTrace:
    """Append-only JSONL writer.  One instance per recorded run.

    Every record is stamped with ``schema_version`` (trace.v1) so each
    line is self-describing.  With ``strict`` (explicit, or on by
    default via :func:`set_default_strict` / ``REPRO_TRACE_STRICT``),
    every emit is validated against the event catalogue and a
    violating record raises :class:`TraceSchemaError` instead of
    poisoning the artifact."""

    def __init__(self, path: str, strict: Optional[bool] = None) -> None:
        self.path = path
        self._fh = open(path, "a")
        self.lines_written = 0
        self.strict = _strict_default() if strict is None else strict

    def emit(self, rectype: str, **fields) -> None:
        record = {"type": rectype}
        record.update(fields)
        record.setdefault("schema_version", TRACE_SCHEMA_VERSION)
        if self.strict:
            from .obs.schema import validate_record

            problems = validate_record(record)
            if problems:
                raise TraceSchemaError(
                    "refusing to emit a record that violates trace.v%d "
                    "(%s): %s" % (
                        TRACE_SCHEMA_MAJOR, self.path,
                        "; ".join(problems),
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
