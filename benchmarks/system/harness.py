"""One workload of the system benchmark, measured in this process.

``run.py`` starts this script in a fresh process per measurement, so
set-up time counts from process start.  It prints one JSON object as the
last line of standard output.  Modes:

* ``plain``: builds and serves one fixed-size run of the workload as a
  closed loop, its oracle included; reports the end-to-end metrics.
* ``setup``: builds the run and reports only its set-up time (raw, and
  in reference-host seconds; see ``HostClock``).
* ``trace``: the run untraced, traced, then untraced again; reports the
  per-layer metrics of the traced one and the tracing overhead against
  the mean of the two untraced ones.

Every input comes from ``--seed``, so a seed always serves the same
requests and its deterministic results (simulated metrics and a digest)
repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import tracing  # noqa: E402

WORKLOADS = ("sim-figures", "store-ycsb-b", "cluster-serve", "cluster-failover")

#: the Fig. 7 apps of benchmarks/conftest.py REPRESENTATIVE: two per
#: suite, memory-bound (lbm, mcf) next to compute-bound (namd) and
#: single-threaded next to multithreaded
SIM_APPS = (
    "lbm", "mcf", "namd", "xz", "vacation", "ssca2",
    "cg", "ft", "radix", "barnes", "rb", "tpcc",
)

#: (full, smoke) sizes; smoke runs take at most about 3 s.  Scale
#: shrinks op counts but not footprints, and the memory-bound apps sweep
#: their whole footprint, so the smoke size drops apps instead.
SIZES: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {
    "sim-figures": ({"scale": 0.5, "apps": SIM_APPS},
                    {"scale": 0.05, "apps": ("lbm", "namd", "ssca2", "cg")}),
    "store-ycsb-b": ({"ops": 30000, "keyspace": 4096},
                     {"ops": 3000, "keyspace": 512}),
    "cluster-serve": ({"ops": 6000, "keyspace": 512, "jobs": 2},
                      {"ops": 600, "keyspace": 128, "jobs": 2}),
    "cluster-failover": ({"ops": 5000, "keyspace": 512, "jobs": 1},
                         {"ops": 800, "keyspace": 128, "jobs": 1}),
}

STORE_SHARDS = 2
STORE_BATCH = 64
CLUSTER_SHARDS = 4
#: raised from the session default of 400, which cuts these sizes short
CLUSTER_MAX_EPOCHS = 100000


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


# ----------------------------------------------------------------------
# host time
# ----------------------------------------------------------------------

#: seconds ``probe`` takes on the reference host, the 2-core box the
#: committed baselines were recorded on, when no other tenant is busy
PROBE_REF_S = 0.0022
#: probes timed after set-up; their median scales the set-up time
SETUP_PROBES = 9
#: probes timed after a lap longer than LONG_LAP_S (5 cost under 10% of
#: it), and at the start; one probe after a shorter lap
LAP_PROBES = 5
LONG_LAP_S = 0.1


def probe() -> float:
    """Time a fixed pure-Python loop that runs no ``repro`` code."""
    table: Dict[int, int] = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(10000):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        acc += len(table) ^ k
    return time.perf_counter() - t0


def probes(n: int) -> float:
    return statistics.median(probe() for _ in range(n))


class HostClock:
    """Serving time, lap by lap, in reference-host seconds.

    Other tenants share this host's cores and slow every process on it
    by up to 2x, in bursts of a second and in drifts over minutes; the
    operating system shows no steal time, the CPU just runs slower.
    The clock times ``probe`` at the start and after each lap (one
    epoch, shard epoch or replay), outside the laps, and scales each lap
    by ``PROBE_REF_S`` / the mean probe time at its two ends: how long
    the lap would have taken on the unloaded reference host.  Over ten
    seeds this cut the spread of store and cluster throughput from 4-11%
    to 1-4% here (README.md has the numbers).  ``raw`` keeps the
    unscaled laps.  With ``probing`` off (traced runs, whose layer times
    must sum to the wall) laps are raw."""

    def __init__(self, probing: bool) -> None:
        self.probing = probing
        self.raw: List[float] = []
        self.laps: List[float] = []
        self.before = 0.0
        self.mark = 0.0

    def start(self) -> None:
        if self.probing:
            self.before = probes(LAP_PROBES)
        self.mark = time.perf_counter()

    def lap(self) -> None:
        raw = time.perf_counter() - self.mark
        self.raw.append(raw)
        if self.probing:
            after = probes(LAP_PROBES if raw > LONG_LAP_S else 1)
            self.laps.append(raw * PROBE_REF_S * 2 / (self.before + after))
            self.before = after
        else:
            self.laps.append(raw)
        self.mark = time.perf_counter()


class Run:
    """One run's inputs, then what serving it produced."""

    def __init__(self, probing: bool, **fields: Any) -> None:
        self.__dict__.update(fields)
        self.clock = HostClock(probing)
        #: per-op latencies in reference-host seconds
        self.latencies: List[float] = []
        self.ops = 0
        self.failed = 0
        self.insts = 0
        self.violations: List[str] = []


# ----------------------------------------------------------------------
# sim-figures: the Fig. 7 evaluation path
# ----------------------------------------------------------------------

class SimFigures:
    """``ExperimentContext.run`` under memory mode, then LightWSP, for
    each app.  Throughput counts replays.  Latency is the whole pass, the
    figure a user waits for: replays differ in size by app up to 20x, so
    a percentile over them is set by whichever one or two replays happen
    to sit at that rank."""

    name = "sim-figures"

    def __init__(self, size: Dict[str, Any], probing: bool) -> None:
        self.scale = size["scale"]
        self.apps = size["apps"]
        self.probing = probing

    def build(self, seed: int) -> Run:
        from repro.analysis.experiments import ExperimentContext

        # the seed only rotates the order; the suite fixes the programs
        k = seed % len(self.apps)
        apps = self.apps[k:] + self.apps[:k]
        return Run(self.probing, ctx=ExperimentContext(scale=self.scale, benchmarks=apps),
                   apps=apps, results={})

    def serve(self, rd: Run) -> None:
        from repro.runtime import LIGHTWSP, MEMORY_MODE

        for app in rd.apps:
            for policy in (MEMORY_MODE, LIGHTWSP):
                res = rd.ctx.run(app, policy)
                rd.clock.lap()
                rd.results[(app, policy.name)] = res
                rd.insts += res.instructions
        rd.latencies = [sum(rd.clock.laps)]
        rd.violations.extend(check_sim_replays(rd.ctx, rd.results))
        rd.clock.lap()
        rd.ops = len(rd.results)

    def det(self, rd: Run) -> Dict[str, Any]:
        from repro.runtime import LIGHTWSP, MEMORY_MODE

        logs = []
        persist_bytes = 0
        h = hashlib.sha256()
        for app in sorted(rd.apps):
            base = rd.results[(app, MEMORY_MODE.name)]
            res = rd.results[(app, LIGHTWSP.name)]
            logs.append(math.log(res.cycles / base.cycles))
            persist_bytes += res.persist_entries * 8 * LIGHTWSP.entry_factor
            for r in (base, res):
                h.update(("%s:%r:%d:%d;" % (app, r.cycles, r.instructions,
                                             r.persist_entries)).encode())
        return {
            "engine.slowdown_geomean": math.exp(sum(logs) / len(logs)),
            "engine.persist_bytes": persist_bytes,
            "digest": h.hexdigest()[:16],
        }

    def facts(self, rd: Run) -> Dict[str, float]:
        return {}


def check_sim_replays(ctx: Any, results: Dict[Tuple[str, str], Any]) -> List[str]:
    """The timing replay retired exactly the instructions its trace holds."""
    from repro.runtime import LIGHTWSP
    from repro.trace import count_events

    out = []
    for (app, scheme), res in sorted(results.items()):
        events = (ctx.compiled_trace(app) if scheme == LIGHTWSP.name
                  else ctx.baseline_trace(app))
        want = count_events(events).instructions
        if res.instructions != want or res.cycles <= 0:
            out.append("%s/%s: replay retired %d of %d instructions in %r cycles"
                       % (app, scheme, res.instructions, want, res.cycles))
    return out


# ----------------------------------------------------------------------
# store-ycsb-b: read-mostly serving in one process
# ----------------------------------------------------------------------

class ServeTap:
    """Trace sink for ``StoreServer``: a lap per ``server_epoch``.

    A shard's batch arrives when its epoch starts and is answered when
    the epoch ends, so each request's latency is its shard epoch's lap.
    The server runs shard epochs back to back in one process; timing
    from the start of the whole epoch instead would charge shard 1's
    requests for shard 0's work."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        #: (lap index, requests answered) per shard epoch
        self.epochs: List[Tuple[int, int]] = []

    def emit(self, rectype: str, **fields: Any) -> None:
        if rectype == "server_epoch":
            self.clock.lap()
            self.epochs.append((len(self.clock.laps) - 1, fields["ops"]))


class StoreYcsbB:
    """YCSB-B (95% reads, zipfian) on ``StoreServer``: 2 shards, 64
    requests per shard epoch, after a load phase of one PUT per key."""

    name = "store-ycsb-b"

    def __init__(self, size: Dict[str, Any], probing: bool) -> None:
        self.ops = size["ops"]
        self.keyspace = size["keyspace"]
        self.probing = probing

    def build(self, seed: int) -> Run:
        from repro.store import workload as store_workload
        from repro.store.layout import StoreLayout
        from repro.store.server import StoreServer

        requests = store_workload.generate_workload(
            "ycsb-b", self.ops, self.keyspace, seed=seed, dist="zipfian"
        )
        rd = Run(self.probing, seed=seed, requests=requests)
        rd.tap = ServeTap(rd.clock)
        layout = StoreLayout.sized(self.keyspace, max_batch=STORE_BATCH)
        rd.server = StoreServer(STORE_SHARDS, layout, seed=seed, trace=rd.tap)
        return rd

    def serve(self, rd: Run) -> None:
        rd.server.submit(rd.requests)
        rd.server.serve(STORE_BATCH)
        rd.reports = rd.server.finalize()
        rd.clock.lap()
        for i, n in rd.tap.epochs:
            rd.latencies.extend([rd.clock.laps[i]] * n)
        rd.ops = len(rd.requests)
        rd.failed = rd.ops - sum(rep.acked for rep in rd.reports)
        rd.insts = sum(rep.steps for rep in rd.reports)
        rd.violations.extend(rd.server.violations)
        if rd.failed:
            rd.violations.append("%d of %d requests never acknowledged"
                                 % (rd.failed, rd.ops))

    def det(self, rd: Run) -> Dict[str, Any]:
        from repro.store.server import ServeReport

        report = ServeReport(
            workload="ycsb-b", dist="zipfian", seed=rd.seed, ops=self.ops,
            load_ops=self.keyspace, shards=rd.reports, sim_ns=rd.server.sim_ns,
            violations=rd.server.violations, crash_epoch=None,
        )
        lat = report.latency
        return {
            "server.sim_mops": report.throughput_mops,
            "server.sim_p50_ns": lat["p50"],
            "server.sim_p99_ns": lat["p99"],
            "digest": report.digest(),
        }

    def facts(self, rd: Run) -> Dict[str, float]:
        return {"server.epochs": sum(rep.epochs for rep in rd.reports)}


# ----------------------------------------------------------------------
# cluster-serve / cluster-failover: the replicated cluster
# ----------------------------------------------------------------------

class EndTap:
    """Trace sink for ``ClusterSession``: keeps the ``cluster_end`` record."""

    def __init__(self) -> None:
        self.end: Dict[str, Any] = {}

    def emit(self, rectype: str, **fields: Any) -> None:
        if rectype == "cluster_end":
            self.end = fields


def failover_schedule(seed: int, horizon: int) -> Tuple[list, int]:
    """Two primary kills on distinct shards, each dark for longer than
    the supervisor's 4-epoch shard deadline (so each forces a promotion),
    one follower kill, and a live reshard starting after the first kill.
    ``horizon`` is the expected number of epochs."""
    from repro.cluster.chaos import ClusterFault

    rng = random.Random(seed)
    first = rng.randint(horizon // 10, horizon // 5)
    second = first + rng.randint(horizon // 8, horizon // 4)
    a, b = rng.sample(range(CLUSTER_SHARDS), 2)
    chaos = [
        ClusterFault(kind="kill", epoch=first, shard=a, down_for=8),
        ClusterFault(kind="kill", epoch=second, shard=b, down_for=8),
        ClusterFault(kind="kill", epoch=rng.randint(horizon // 20, horizon // 2),
                     shard=rng.randrange(CLUSTER_SHARDS),
                     down_for=rng.randint(2, 6), replica=1),
    ]
    return chaos, first + rng.randint(2, max(2, horizon // 20))


class Cluster:
    """``ClusterSession`` over 4 shards, mix ``crud`` with a cross-shard
    transaction every 6th PUT; at most 2 ops per shard in flight.

    ``step_epoch`` is wrapped on the session instance to end a lap per
    epoch.  An op's latency runs from the start of the lap of the epoch
    that admitted it to the end of the lap of the epoch that answered
    it.  An op is admitted in the epoch after which it is first seen in
    ``inflight``, or in its answer epoch if it never is (admitted,
    answered and settled in one epoch)."""

    def __init__(self, name: str, size: Dict[str, Any], failover: bool,
                 probing: bool, jobs: Optional[int] = None,
                 drop_shipped_batch: bool = False) -> None:
        self.name = name
        self.ops = size["ops"]
        self.keyspace = size["keyspace"]
        self.jobs = jobs if jobs is not None else size["jobs"]
        self.failover = failover
        self.probing = probing
        self.drop_shipped_batch = drop_shipped_batch

    def horizon(self) -> int:
        return (self.ops + self.keyspace) // 8

    def build(self, seed: int) -> Run:
        from repro.cluster.coordinator import ClusterSession

        chaos, reshard_at = failover_schedule(seed, self.horizon()) \
            if self.failover else ([], -1)
        tap = EndTap()
        session = ClusterSession.build(
            n_shards=CLUSTER_SHARDS, keyspace=self.keyspace, ops=self.ops,
            seed=seed, mix="crud", txn_every=6, chaos=chaos, jobs=self.jobs,
            max_epochs=CLUSTER_MAX_EPOCHS, trace=tap, replicate=self.failover,
            ship_lag=1, reshard_at=reshard_at,
        )
        rd = Run(self.probing, session=session, tap=tap, admitted={},
                 drop_at=self.horizon() // 2 if self.drop_shipped_batch else None)
        step = session.step_epoch

        def stepped() -> None:
            e = session.epoch
            step()
            rd.clock.lap()
            for token in session.inflight:
                rd.admitted.setdefault(token, e)
            if rd.drop_at is not None and e >= rd.drop_at:
                # negative test: the shipping layer silently loses a batch
                for i, rs in enumerate(session.ranges):
                    if rs.lag > 0:
                        session.drop_shipped_batch(i)
                        rd.drop_at = None
                        break

        session.step_epoch = stepped
        return rd

    def serve(self, rd: Run) -> None:
        from repro.cluster.protocol import OK

        session = rd.session
        session.run()
        rd.clock.lap()  # finalize: ship drain and check_cluster
        ends = [0.0]
        for lap in rd.clock.laps:
            ends.append(ends[-1] + lap)
        for token, resp in session.responses.items():
            if resp.status != OK:
                rd.failed += 1
                continue
            admitted = rd.admitted.get(token, resp.epoch)
            rd.latencies.append(ends[resp.epoch + 1] - ends[admitted])
        rd.ops = len(session.ops_by_token)
        rd.failed += rd.ops - len(session.responses)
        rd.insts = sum(st.steps for st in session.shards) + sum(
            (rs.follower.steps if rs.follower else 0)
            + (rs.retired.steps if rs.retired else 0)
            for rs in session.ranges
        )
        rd.violations.extend(session.violations)
        if rd.failed:
            rd.violations.append("%d of %d ops failed or went unanswered"
                                 % (rd.failed, rd.ops))
        if not self.failover:
            return
        promotions = session.counters["promotions"]
        if promotions != 2:
            rd.violations.append("expected 2 promotions, saw %d" % promotions)
        if not rd.tap.end.get("resharded", {}).get("done"):
            rd.violations.append("live reshard did not finish")

    def det(self, rd: Run) -> Dict[str, Any]:
        return {"coordinator.epochs": rd.session.epoch,
                "digest": rd.session.digest()}

    def facts(self, rd: Run) -> Dict[str, float]:
        c = rd.session.counters
        return {
            "coordinator.epochs": rd.session.epoch,
            "coordinator.dispatches": c["dispatches"],
            "coordinator.retries": c["retries"],
            "coordinator.retry_ratio": c["retries"] / c["dispatches"] if c["dispatches"] else 0.0,
            "coordinator.shipped": c["shipped"],
            "coordinator.promotions": c["promotions"],
            "coordinator.migrated_keys": c["migrated_keys"],
        }


def make_workload(name: str, smoke: bool = False, probing: bool = True,
                  jobs: Optional[int] = None, drop_shipped_batch: bool = False) -> Any:
    if name not in SIZES:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(WORKLOADS)))
    size = SIZES[name][1 if smoke else 0]
    if name == "sim-figures":
        wl: Any = SimFigures(size, probing)
    elif name == "store-ycsb-b":
        wl = StoreYcsbB(size, probing)
    else:
        wl = Cluster(name, size, failover=name == "cluster-failover", probing=probing,
                     jobs=jobs, drop_shipped_batch=drop_shipped_batch)
    return wl


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(wl: Any, rd: Run) -> float:
    """Serve the run and check its oracle; returns the wall time."""
    t0 = time.perf_counter()
    rd.clock.start()
    wl.serve(rd)
    return time.perf_counter() - t0


def timed_setup(wl: Any, seed: int, spawned_at: float) -> Tuple[Run, float, float]:
    """Build the run; returns it with the raw set-up time since process
    start and that time in reference-host seconds, scaled by the median
    of probes timed right after.  Set-up is under a second of
    single-process interpreter work, too short to average host noise out;
    scaling cut its spread from 5-23% to 3-8% here."""
    rd = wl.build(seed)
    raw = time.monotonic() - spawned_at
    return rd, raw, raw * PROBE_REF_S / probes(SETUP_PROBES)


def measure_plain(wl: Any, seed: int, spawned_at: float) -> Dict[str, Any]:
    rd, setup_raw, setup_s = timed_setup(wl, seed, spawned_at)
    run_once(wl, rd)
    serving = sum(rd.clock.laps)
    return {
        "attempted": rd.ops,
        "failed": rd.failed,
        "violations": rd.violations,
        "det": wl.det(rd),
        "raw_setup_s": setup_raw,
        "raw_serving_s": sum(rd.clock.raw),
        "metrics": {
            "setup_s": setup_s,
            "host_ops_s": rd.ops / serving,
            "host_p50_ms": percentile(rd.latencies, 50) * 1e3,
            "host_p99_ms": percentile(rd.latencies, 99) * 1e3,
            "sim_kinst_s": rd.insts / serving / 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def _untraced_run(wl: Any, seed: int) -> Tuple[float, Run]:
    t0 = time.perf_counter()
    rd = wl.build(seed)
    run_once(wl, rd)
    return time.perf_counter() - t0, rd


def measure_traced(wl: Any, seed: int, spans_dir: str) -> Dict[str, Any]:
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, wl.name + ".spans.jsonl")
    open(spans_path, "w").close()
    wall_before, rd = _untraced_run(wl, seed)
    det_plain = wl.det(rd)
    rd = None

    tracer = tracing.Tracer(spans_path)
    remove = tracing.install(tracer, oracles=((sys.modules[__name__], "check_sim_replays"),))
    try:
        root = tracer.open(tracing.ROOT_LAYER, wl.name)
        rd = wl.build(seed)
        run_once(wl, rd)
        tracer.close(root)
    finally:
        remove()
    tracer.flush()
    det = wl.det(rd)
    facts = wl.facts(rd)
    attempted, failed, violations = rd.ops, rd.failed, list(rd.violations)
    rd = None
    wall_after, _ = _untraced_run(wl, seed)

    summary = tracing.summarize(tracing.read_spans(spans_path), root["id"])
    epochs = facts.get("server.epochs", facts.get("coordinator.epochs", 0))
    layers = {name: 0 for name in tracing.PER_LAYER}
    layers.update(tracing.layer_metrics(summary, epochs))
    layers.update(facts)
    layers.update({k: v for k, v in det.items() if k in layers})
    wall = summary["wall_ns"] / 1e9
    layers["trace.overhead_frac"] = wall / ((wall_before + wall_after) / 2) - 1
    if det != det_plain:
        violations.append("tracing changed the deterministic results: %r vs %r"
                          % (det, det_plain))
    return {
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "det": det,
        "metrics": layers,
        "trace_wall_s": wall,
        "layer_self_s": tracing.layer_self_seconds(summary),
        "spans": spans_path,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "setup", "trace"), default="plain")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it "
                             "started this process")
    parser.add_argument("--spans-dir", default=os.path.join(HERE, "out", "spans"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--drop-shipped-batch", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    wl = make_workload(args.workload, smoke=args.smoke, probing=args.mode != "trace",
                       drop_shipped_batch=args.drop_shipped_batch)
    if args.mode == "setup":
        _, raw, scaled = timed_setup(wl, args.seed, spawned_at)
        out: Dict[str, Any] = {"setup_s": scaled, "raw_setup_s": raw}
    elif args.mode == "plain":
        out = measure_plain(wl, args.seed, spawned_at)
    else:
        out = measure_traced(wl, args.seed, args.spans_dir)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
