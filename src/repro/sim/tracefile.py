"""Trace serialization: save and load dynamic traces as compact text.

One line per event: ``kind[,field=value...]`` with zero-valued fields
omitted, so traces diff cleanly and big ones stay small.  Useful for
caching expensive interpreter runs across experiment campaigns and for
feeding externally generated traces (e.g. converted from real
instruction traces) into the timing engine.

A line may carry only the fields its kind has in a :class:`Trace`
(``t`` always; ``a`` on every kind but ``alu``; ``l`` on ``lock``,
``unlock`` and ``io``; ``b`` on ``bdry``; ``p`` on ``io``), so a loaded
trace dumps back to the same lines.  Every malformed line raises
``ValueError`` naming its line number.
"""

from __future__ import annotations

import io
from typing import Dict, FrozenSet, Iterable, TextIO, Union

from ..trace import EK, KIND_NAMES, Trace, TraceEvent, as_trace

__all__ = ["dump_trace", "load_trace", "dumps_trace", "loads_trace"]

_FIELDS = (
    ("addr", "a"),
    ("tid", "t"),
    ("lock_id", "l"),
    ("boundary_uid", "b"),
    ("payload", "p"),
)
_DEFAULTS = {
    "addr": 0, "tid": 0, "lock_id": 0, "boundary_uid": -1, "payload": 0,
}
_SHORT_TO_FIELD = {short: field for field, short in _FIELDS}

#: fields a record keeps beyond ``tid`` (every kind) and ``addr`` (every
#: kind but ALU)
_EXTRA_FIELDS = {
    EK.BOUNDARY: {"boundary_uid"},
    EK.LOCK: {"lock_id"},
    EK.UNLOCK: {"lock_id"},
    EK.IO: {"lock_id", "payload"},
}
#: kind -> the fields a trace record of that kind keeps
_KIND_FIELDS: Dict[str, FrozenSet[str]] = {
    kind: frozenset(
        ({"tid"} if kind == EK.ALU else {"tid", "addr"})
        | _EXTRA_FIELDS.get(kind, set())
    )
    for kind in KIND_NAMES
}


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
    allowed = _KIND_FIELDS.get(kind)
    if allowed is None:
        raise ValueError("line %d: unknown event kind %r" % (lineno, kind))
    kwargs = dict(_DEFAULTS)
    for token in parts[1:]:
        short, _, value = token.partition("=")
        field = _SHORT_TO_FIELD.get(short)
        if field is None or field not in allowed:
            raise ValueError("line %d: bad field %r" % (lineno, token))
        try:
            kwargs[field] = int(value)
        except ValueError:
            raise ValueError(
                "line %d: bad field %r" % (lineno, token)
            ) from None
    return TraceEvent(kind=kind, **kwargs)


def dump_trace(trace: Union[Trace, Iterable[TraceEvent]], fh: TextIO) -> int:
    """Write a trace's events to an open text file; returns the count."""
    n = 0
    for event in as_trace(trace):
        fh.write(_event_line(event))
        fh.write("\n")
        n += 1
    return n


def load_trace(fh: TextIO) -> Trace:
    """Read a trace from an open text file."""
    trace = Trace()
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        trace.append(_parse_line(line, lineno))
    return trace


def dumps_trace(trace: Union[Trace, Iterable[TraceEvent]]) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def loads_trace(text: str) -> Trace:
    return load_trace(io.StringIO(text))
