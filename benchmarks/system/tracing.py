"""Outside-in layer tracing for the system benchmark.

The benchmark never edits ``src/``: every span here comes from a wrapper
this module installs around a call *into* a ``repro`` layer (a module
function, a method, or a name a module imported).  Layers are named
after the ``repro`` modules they wrap.

Spans record name, layer, start, end, parent and pid; spans opened during
one cluster epoch carry that epoch's number.  Hot leaves, which run
hundreds of thousands of times per run (``ThreadVM.run_fast``, WPQ
admission, ``commit_flush``), are not spans: each is aggregated into the
enclosing span as a call count and total nanoseconds.

Spans stay in memory and are appended to the spans file when the run
ends.  Workers forked by ``repro.parallel.fan_out`` inherit the tracer;
they exit through ``os._exit`` without running atexit handlers, so each
appends its own spans to the file after every executor call.

Self time is a span's duration minus its children's and its leaves'.
Under a forked ``fan_out`` the workers run concurrently, so only the
critical-path worker (the one with the most executor time) counts as the
fan-out's child; the other workers' spans count toward call and work
totals but not toward busy time.  That keeps the layers' self times
summing to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: every per-layer metric the traced run emits, in report order
PER_LAYER = (
    "workload.gen_s",
    "compiler.busy_s", "compiler.calls", "compiler.dispatch_patches",
    "compiler.cache_hit_ratio",
    "interp.busy_s", "interp.calls", "interp.insts", "interp.ns_per_inst",
    "engine.busy_s", "engine.events", "engine.ns_per_event",
    "engine.slowdown_geomean", "engine.persist_bytes",
    "machine.busy_s", "machine.calls", "machine.steps", "machine.stores",
    "machine.boundaries", "machine.overflow_events",
    "runtime.admit_s", "runtime.admit_calls", "runtime.stores_admitted",
    "runtime.commit_s", "runtime.commits", "runtime.max_wpq_occupancy",
    "server.busy_s", "server.epochs", "server.sim_mops",
    "server.sim_p50_ns", "server.sim_p99_ns",
    "coordinator.busy_s", "coordinator.epochs", "coordinator.dispatches",
    "coordinator.retries", "coordinator.retry_ratio", "coordinator.shipped",
    "coordinator.promotions", "coordinator.migrated_keys",
    "parallel.busy_s", "parallel.calls", "parallel.fork_calls",
    "parallel.serial_calls", "parallel.result_bytes",
    "shard.busy_s", "shard.calls", "shard.image_words_in",
    "shard.image_words_out", "shard.inline_s", "shard.inline_calls",
    "oracle.busy_s", "oracle.calls",
    "trace.overhead_frac",
)

#: hot leaf -> the self-time bucket its nanoseconds go to
LEAF_BUCKET = {
    "interp.run_fast": "interp.busy_s",
    "runtime.admit": "runtime.admit_s",
    "runtime.admit_many": "runtime.admit_s",
    "runtime.commit_flush": "runtime.commit_s",
    "trace.bookkeeping": "trace.busy_s",
}

#: the root span's layer: the benchmark's own loop
ROOT_LAYER = "bench"

_MISSING = object()


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, spans_path: str) -> None:
        self.spans_path = spans_path
        self.pid = os.getpid()
        self.origin_pid = self.pid
        self.records: List[Dict[str, Any]] = []
        self.stack: List[Dict[str, Any]] = []
        #: stack depth a forked worker inherited from its parent
        self.inherited = 0
        #: the cluster epoch being stepped, stamped on every span
        self.epoch: Optional[int] = None
        self.fan_out_depth = 0
        self._seq = 0

    def open(self, layer: str, name: str) -> Dict[str, Any]:
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: the inherited records are
            # the parent's to write; keep the stack for parent ids
            self.pid = pid
            self.records = []
            self.inherited = len(self.stack)
        self._seq += 1
        rec = {
            "id": "%d:%d" % (pid, self._seq),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "layer": layer,
            "name": name,
            "pid": pid,
            "epoch": self.epoch,
            "start": time.perf_counter_ns(),
            "end": None,
            "leaves": {},
            "counts": {},
        }
        self.stack.append(rec)
        return rec

    def close(self, rec: Dict[str, Any]) -> None:
        rec["end"] = time.perf_counter_ns()
        self.stack.pop()
        self.records.append(rec)
        if self.pid != self.origin_pid and len(self.stack) == self.inherited:
            self.flush()

    def bookkeeping(self, ns: int, counts: Dict[str, int]) -> None:
        """Charge tracer-only work to the trace layer, not the caller."""
        top = self.stack[-1]
        slot = top["leaves"].setdefault("trace.bookkeeping", [0, 0])
        slot[0] += 1
        slot[1] += ns
        for key, value in counts.items():
            top["counts"][key] = top["counts"].get(key, 0) + value

    def flush(self) -> None:
        """Append the buffered spans to the spans file in one write."""
        if not self.records:
            return
        data = "".join(
            json.dumps(r, separators=(",", ":")) + "\n" for r in self.records
        ).encode()
        fd = os.open(self.spans_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        self.records = []


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _span(tracer: Tracer, layer: str, name: str, fn: Callable,
          count: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open(layer, name)
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                count(rec["counts"], args, out)
            return out
        finally:
            tracer.close(rec)
    return traced


def _leaf(tracer: Tracer, key: str, fn: Callable,
          count: Optional[Callable] = None) -> Callable:
    stack = tracer.stack
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def leaf(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        dt = clock() - t0
        top = stack[-1]
        slot = top["leaves"].get(key)
        if slot is None:
            top["leaves"][key] = [1, dt]
        else:
            slot[0] += 1
            slot[1] += dt
        if count is not None:
            count(top["counts"], args, out)
        return out
    return leaf


def _machine_run(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        st = self.stats
        before = (st.steps, st.stores, st.boundaries, st.overflow_events)
        rec = tracer.open("machine", "run")
        try:
            return fn(self, *args, **kwargs)
        finally:
            c = rec["counts"]
            c["machine.steps"] = st.steps - before[0]
            c["machine.stores"] = st.stores - before[1]
            c["machine.boundaries"] = st.boundaries - before[2]
            c["machine.overflow_events"] = st.overflow_events - before[3]
            tracer.close(rec)
    return traced


def _executor(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = "execute_shard_epoch" if tracer.fan_out_depth else "inline"
        rec = tracer.open("shard", name)
        try:
            out = fn(*args, **kwargs)
            image = args[3] if len(args) > 3 else kwargs.get("image", {})
            rec["counts"]["shard.image_words_in"] = len(image)
            rec["counts"]["shard.image_words_out"] = len(out.image)
            return out
        finally:
            tracer.close(rec)
    return traced


def _fan_out(tracer: Tracer, fn: Callable, last_stats: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open("parallel", "fan_out")
        tracer.fan_out_depth += 1
        forked = False
        try:
            out = fn(*args, **kwargs)
            forked = last_stats().mode == "fork"
            rec["counts"]["parallel.fork_calls" if forked else
                          "parallel.serial_calls"] = 1
        finally:
            tracer.fan_out_depth -= 1
            tracer.close(rec)
        if forked:
            # the results crossed the worker queue pickled; size them
            # outside the span and charge the cost to the trace layer
            t0 = time.perf_counter_ns()
            size = len(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
            tracer.bookkeeping(time.perf_counter_ns() - t0,
                               {"parallel.result_bytes": size})
        return out
    return traced


def _count_events(counts, args, out) -> None:
    counts["interp.insts"] = counts.get("interp.insts", 0) + len(out[0])


def _count_run_fast(counts, args, out) -> None:
    counts["interp.insts"] = counts.get("interp.insts", 0) + out[0]


def _count_simulate(counts, args, out) -> None:
    counts["engine.events"] = len(args[0])


def _count_admit(counts, args, out) -> None:
    counts["runtime.stores_admitted"] = counts.get("runtime.stores_admitted", 0) + 1
    if out > counts.get("runtime.max_wpq_occupancy", 0):
        counts["runtime.max_wpq_occupancy"] = out


def _count_admit_many(counts, args, out) -> None:
    counts["runtime.stores_admitted"] = (
        counts.get("runtime.stores_admitted", 0) + len(args[2])
    )
    if out > counts.get("runtime.max_wpq_occupancy", 0):
        counts["runtime.max_wpq_occupancy"] = out


def install(tracer: Tracer, oracles: Tuple[Tuple[Any, str], ...] = ()) -> Callable[[], None]:
    """Wrap every layer seam; returns the function that unwraps them.

    A seam that no longer exists raises ``LookupError`` naming it: a
    skipped seam would silently move its layer's time into its parent's.
    ``oracles`` adds (owner, attribute) pairs of the benchmark's own
    checks to the oracle layer."""
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, str):
            owner = _resolve(owner)
        current = getattr(owner, attr, _MISSING)
        if current is _MISSING:
            raise LookupError("tracing seam %s.%s no longer exists"
                              % (getattr(owner, "__name__", owner), attr))
        original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else current
        setattr(owner, attr, make(current))
        undo.append((owner, attr, original))

    def span(layer: str, name: str, count: Optional[Callable] = None):
        return lambda fn: _span(tracer, layer, name, fn, count)

    def leaf(key: str, count: Optional[Callable] = None):
        return lambda fn: _leaf(tracer, key, fn, count)

    gen = span("workload", "generate")
    patch("repro.store.workload", "generate_workload", gen)
    patch("repro.cluster.workload", "generate_workload", gen)
    patch("repro.cluster.coordinator", "generate_cluster_ops", gen)
    patch("repro.workloads.suite.Benchmark", "build", gen)

    for module in ("repro.analysis.experiments", "repro.store.server",
                   "repro.cluster.coordinator"):
        patch(module, "compile_program", span("compiler", "compile_program"))
    patch("repro.store.server", "precompile_dispatch",
          span("compiler", "precompile_dispatch"))

    patch("repro.analysis.experiments", "run_single",
          span("interp", "run_single", _count_events))
    patch("repro.analysis.experiments", "run_threads",
          span("interp", "run_threads", _count_events))
    patch("repro.compiler.interp.ThreadVM", "run_fast",
          leaf("interp.run_fast", _count_run_fast))

    patch("repro.analysis.experiments", "simulate",
          span("engine", "simulate", _count_simulate))

    patch("repro.faults.machine.FaultyMachine", "run",
          lambda fn: _machine_run(tracer, fn))

    lrpo = "repro.runtime.runtime.LrpoRuntime"
    patch(lrpo, "admit", leaf("runtime.admit", _count_admit))
    patch(lrpo, "admit_many", leaf("runtime.admit_many", _count_admit_many))
    patch(lrpo, "commit_flush", leaf("runtime.commit_flush"))

    for method in ("__init__", "submit", "serve", "finalize"):
        patch("repro.store.server.StoreServer", method, span("server", method))

    session = "repro.cluster.coordinator.ClusterSession"
    for method in ("__init__", "run", "finalize"):
        patch(session, method, span("coordinator", method))
    patch(session, "step_epoch", lambda fn: _step_epoch(tracer, fn))

    last_stats = _resolve("repro.parallel").last_stats
    patch("repro.cluster.coordinator", "fan_out",
          lambda fn: _fan_out(tracer, fn, last_stats))
    patch("repro.cluster.coordinator", "execute_shard_epoch",
          lambda fn: _executor(tracer, fn))

    for module in ("repro.store.server", "repro.cluster.shard"):
        patch(module, "check_recovery", span("oracle", "check_recovery"))
    for module in ("repro.store.server", "repro.cluster.oracle"):
        patch(module, "visible_state", span("oracle", "visible_state"))
    patch("repro.cluster.oracle", "check_cluster", span("oracle", "check_cluster"))
    patch("repro.store.oracle.StoreModel", "apply_all", span("oracle", "apply_all"))
    for owner, attr in oracles:
        patch(owner, attr, span("oracle", attr))

    def remove() -> None:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
    return remove


def _resolve(dotted: str) -> Any:
    """A module, or a class inside one."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, name = dotted.rpartition(".")
        owner = getattr(importlib.import_module(module), name, None)
        if owner is None:
            raise LookupError("tracing seam %s no longer exists" % dotted) from None
        return owner


def _step_epoch(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        tracer.epoch = self.epoch
        rec = tracer.open("coordinator", "step_epoch")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(rec)
            tracer.epoch = None
    return traced


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records: List[Dict[str, Any]], root_id: str) -> Dict[str, Any]:
    """Self time per bucket (critical path only) plus work totals.

    Returns ``self_ns`` (bucket -> ns on the critical path, where the
    root's own time is ``unattributed``), ``work_ns`` (layer -> ns in
    every process), ``calls`` ("layer:name" or leaf key -> count),
    ``counts`` (summed, or maxed for occupancy) and ``wall_ns``."""
    kids: Dict[Optional[str], List[Dict[str, Any]]] = defaultdict(list)
    by_id = {}
    for rec in records:
        by_id[rec["id"]] = rec
        kids[rec["parent"]].append(rec)
    root = by_id[root_id]
    self_ns: Counter = Counter()
    work_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    todo = [(root, True)]
    while todo:
        rec, on_path = todo.pop()
        children = kids.get(rec["id"], [])
        per_pid: Dict[int, int] = defaultdict(int)
        for child in children:
            per_pid[child["pid"]] += child["end"] - child["start"]
        critical = None
        if per_pid and rec["pid"] not in per_pid:
            # forked workers ran these children concurrently
            critical = max(per_pid, key=lambda pid: per_pid[pid])
            child_ns = per_pid[critical]
        else:
            child_ns = sum(per_pid.values())
        leaves_ns = 0
        for key, (n, ns) in rec["leaves"].items():
            calls[key] += n
            leaves_ns += ns
            bucket = LEAF_BUCKET[key]
            work_ns[bucket.split(".")[0]] += ns
            if on_path:
                self_ns[bucket] += ns
        own = max(0, rec["end"] - rec["start"] - child_ns - leaves_ns)
        bucket = _span_bucket(rec)
        work_ns[rec["layer"]] += own
        if on_path:
            self_ns[bucket] += own
        calls["%s:%s" % (rec["layer"], rec["name"])] += 1
        for key, value in rec["counts"].items():
            if key.endswith("max_wpq_occupancy"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
        for child in children:
            todo.append((child, on_path and (critical is None or child["pid"] == critical)))
    return {
        "self_ns": self_ns,
        "work_ns": work_ns,
        "calls": calls,
        "counts": counts,
        "wall_ns": root["end"] - root["start"],
        "serving_compiles": _serving_compiles(by_id, records),
    }


def _span_bucket(rec: Dict[str, Any]) -> str:
    if rec["layer"] == ROOT_LAYER:
        return "unattributed"
    if rec["layer"] == "shard" and rec["name"] == "inline":
        return "shard.inline_s"
    if rec["layer"] == "workload":
        return "workload.gen_s"
    return rec["layer"] + ".busy_s"


def _serving_compiles(by_id: Dict[str, Dict[str, Any]], records: List[Dict[str, Any]]) -> int:
    """Fresh compiles made while serving epochs (not at construction)."""
    n = 0
    for rec in records:
        if rec["layer"] != "compiler" or rec["name"] != "compile_program":
            continue
        parent = by_id.get(rec["parent"])
        while parent is not None:
            if (parent["layer"], parent["name"]) in (("server", "serve"), ("coordinator", "run")):
                n += 1
                break
            parent = by_id.get(parent["parent"])
    return n


def layer_self_seconds(summary: Dict[str, Any]) -> Dict[str, float]:
    """Critical-path self time per layer, in seconds."""
    out: Dict[str, float] = defaultdict(float)
    for bucket, ns in summary["self_ns"].items():
        out[bucket.split(".")[0]] += ns / 1e9
    return dict(sorted(out.items()))


def layer_metrics(summary: Dict[str, Any], epochs: int) -> Dict[str, float]:
    """The per-layer metrics the spans determine; ``epochs`` is the
    number of epochs served (shard epochs for the store, cluster epochs
    for the cluster, 0 for the simulator)."""
    s, w, calls, c = (summary["self_ns"], summary["work_ns"],
                      summary["calls"], summary["counts"])

    def sec(bucket: str) -> float:
        return s.get(bucket, 0) / 1e9

    def per(ns: float, n: float) -> float:
        return ns / n if n else 0.0

    interp_calls = (calls["interp:run_single"] + calls["interp:run_threads"]
                    + calls["interp.run_fast"])
    compiles = calls["compiler:compile_program"]
    return {
        "workload.gen_s": sec("workload.gen_s"),
        "compiler.busy_s": sec("compiler.busy_s"),
        "compiler.calls": compiles,
        "compiler.dispatch_patches": calls["compiler:precompile_dispatch"],
        "compiler.cache_hit_ratio": (
            max(0, epochs - summary["serving_compiles"]) / epochs if epochs else 0.0
        ),
        "interp.busy_s": sec("interp.busy_s"),
        "interp.calls": interp_calls,
        "interp.insts": c["interp.insts"],
        "interp.ns_per_inst": per(w["interp"], c["interp.insts"]),
        "engine.busy_s": sec("engine.busy_s"),
        "engine.events": c["engine.events"],
        "engine.ns_per_event": per(w["engine"], c["engine.events"]),
        "machine.busy_s": sec("machine.busy_s"),
        "machine.calls": calls["machine:run"],
        "machine.steps": c["machine.steps"],
        "machine.stores": c["machine.stores"],
        "machine.boundaries": c["machine.boundaries"],
        "machine.overflow_events": c["machine.overflow_events"],
        "runtime.admit_s": sec("runtime.admit_s"),
        "runtime.admit_calls": calls["runtime.admit"] + calls["runtime.admit_many"],
        "runtime.stores_admitted": c["runtime.stores_admitted"],
        "runtime.commit_s": sec("runtime.commit_s"),
        "runtime.commits": calls["runtime.commit_flush"],
        "runtime.max_wpq_occupancy": c["runtime.max_wpq_occupancy"],
        "server.busy_s": sec("server.busy_s"),
        "coordinator.busy_s": sec("coordinator.busy_s"),
        "parallel.busy_s": sec("parallel.busy_s"),
        "parallel.calls": calls["parallel:fan_out"],
        "parallel.fork_calls": c["parallel.fork_calls"],
        "parallel.serial_calls": c["parallel.serial_calls"],
        "parallel.result_bytes": c["parallel.result_bytes"],
        "shard.busy_s": sec("shard.busy_s"),
        "shard.calls": calls["shard:execute_shard_epoch"],
        "shard.image_words_in": c["shard.image_words_in"],
        "shard.image_words_out": c["shard.image_words_out"],
        "shard.inline_s": sec("shard.inline_s"),
        "shard.inline_calls": calls["shard:inline"],
        "oracle.busy_s": sec("oracle.busy_s"),
        "oracle.calls": sum(n for key, n in calls.items() if key.startswith("oracle:")),
    }
