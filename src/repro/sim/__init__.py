"""The timing-simulator substrate: traces, caches, memory controllers,
queueing primitives, and the scheme-parameterized engine."""

from .cache import Cache, CacheHierarchy
from .engine import SimResult, TimingEngine, simulate
from .mc import CommitPipeline, MemoryController
from .memory import AddressMap
from .queues import SerialServer, SlotPool
from ..trace import EK, Trace, TraceEvent, TraceStats, count_events
from .tracefile import dump_trace, dumps_trace, load_trace, loads_trace

__all__ = [
    "Cache",
    "CacheHierarchy",
    "SimResult",
    "TimingEngine",
    "simulate",
    "CommitPipeline",
    "MemoryController",
    "AddressMap",
    "SerialServer",
    "SlotPool",
    "EK",
    "Trace",
    "TraceEvent",
    "TraceStats",
    "count_events",
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
]
