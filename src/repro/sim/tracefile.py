"""Trace serialization: save and load dynamic traces as compact text.

One line per event: ``kind[,field=value...]`` with zero-valued fields
omitted, so traces diff cleanly and big ones stay small.  Useful for
caching expensive interpreter runs across experiment campaigns and for
feeding externally generated traces (e.g. converted from real
instruction traces) into the timing engine.
"""

from __future__ import annotations

import io
from typing import Iterable, List, TextIO

from ..trace import EK, TraceEvent

__all__ = ["dump_trace", "load_trace", "dumps_trace", "loads_trace"]

_KINDS = {
    EK.ALU, EK.LOAD, EK.STORE, EK.CHECKPOINT, EK.BOUNDARY, EK.ATOMIC,
    EK.FENCE, EK.LOCK, EK.UNLOCK, EK.IO, EK.HALT,
}

_FIELDS = (
    ("addr", "a"),
    ("tid", "t"),
    ("lock_id", "l"),
    ("boundary_uid", "b"),
)
_DEFAULTS = {"addr": 0, "tid": 0, "lock_id": 0, "boundary_uid": -1}
_SHORT_TO_FIELD = {short: field for field, short in _FIELDS}


def _event_line(event: TraceEvent) -> str:
    parts = [event.kind]
    for field, short in _FIELDS:
        value = getattr(event, field)
        if value != _DEFAULTS[field]:
            parts.append("%s=%d" % (short, value))
    return ",".join(parts)


def _parse_line(line: str, lineno: int) -> TraceEvent:
    parts = line.split(",")
    kind = parts[0]
    if kind not in _KINDS:
        raise ValueError("line %d: unknown event kind %r" % (lineno, kind))
    kwargs = dict(_DEFAULTS)
    for token in parts[1:]:
        short, _, value = token.partition("=")
        if short not in _SHORT_TO_FIELD or not value:
            raise ValueError("line %d: bad field %r" % (lineno, token))
        kwargs[_SHORT_TO_FIELD[short]] = int(value)
    return TraceEvent(kind=kind, **kwargs)


def dump_trace(events: Iterable[TraceEvent], fh: TextIO) -> int:
    """Write events to an open text file; returns the count."""
    n = 0
    for event in events:
        fh.write(_event_line(event))
        fh.write("\n")
        n += 1
    return n


def load_trace(fh: TextIO) -> List[TraceEvent]:
    """Read events from an open text file."""
    events: List[TraceEvent] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        events.append(_parse_line(line, lineno))
    return events


def dumps_trace(events: Iterable[TraceEvent]) -> str:
    buf = io.StringIO()
    dump_trace(events, buf)
    return buf.getvalue()


def loads_trace(text: str) -> List[TraceEvent]:
    return load_trace(io.StringIO(text))
