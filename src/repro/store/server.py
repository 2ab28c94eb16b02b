"""The request-serving harness: shards, epochs, crashes, and stats.

A :func:`run_serve` call generates a seeded workload, partitions it by
key hash across ``shards`` independent store nodes, and serves it in
*epochs*: each shard's next batch runs through the store-node executor
(:func:`repro.cluster.shard.execute_shard_epoch`, the one the cluster's
shards use), which boots a :class:`~repro.faults.machine.FaultyMachine`
from the shard's durable image (all defenses on, so acknowledgements
pay the real flush-ACK latency), seeds the persistent request ring, and
returns the batch's write delta; folding that delta in carries the
image into the next epoch.  One machine instruction is one simulated
step; latencies and throughput are converted to wall time via the
configured base CPI and clock.

A request is **acknowledged** when its response ``io`` survives in the
durable I/O log — i.e. the region containing the ``io`` committed.  Its
latency is the step count from epoch start (the batch arrives with the
epoch) to that region's commit, collected through the
``MachineStats.commit_steps``/``io_steps`` hooks.  Every batch's
durable results are checked against the reference model.

Kill-and-recover: with a crash scheduled, every shard's power fails at a
seeded step inside the chosen epoch (optionally with a torn battery
write).  The store-level oracle (:mod:`repro.store.oracle`) then checks
the recovered durable image — acked writes all survived, nothing
unacknowledged became visible — before the shard resumes and finishes
the batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import latency_summary
# seam only: benchmarks/system/tracing.py times store.server.precompile_dispatch
from ..compiler.interp import precompile_dispatch  # noqa: F401
from ..compiler.ir import Program
from ..compiler.pipeline import CompiledProgram, compile_program
from ..config import DEFAULT_CONFIG, SystemConfig
from ..faults.model import FaultEvent
from .layout import KNUTH, META_COMPACTIONS, META_DROPS, StoreLayout
from .oracle import StoreModel, visible_state
# seam only: benchmarks/system/tracing.py times store.server.check_recovery
from .oracle import check_recovery  # noqa: F401
from .programs import Request, build_store_program
from .workload import generate_workload
from ..trace import JsonlTrace, NullTrace, image_digest, mix_int

__all__ = [
    "ShardReport",
    "ServeReport",
    "StoreServer",
    "run_serve",
]


def shard_of(key: int, shards: int) -> int:
    """Key placement.  Uses a different slice of the Knuth hash than the
    index's home-slot computation so shard skew and probe clustering stay
    uncorrelated."""
    return ((key * KNUTH) >> 8) % shards


@dataclass
class ShardReport:
    """Per-shard serving statistics."""

    shard: int
    ops: int = 0
    epochs: int = 0
    steps: int = 0
    commits: int = 0
    crashes: int = 0
    acked: int = 0
    compactions: int = 0
    drops: int = 0
    keys_live: int = 0
    image_digest: str = ""
    latencies_ns: List[float] = field(default_factory=list)


@dataclass
class ServeReport:
    """The result of one serving run."""

    workload: str
    dist: str
    seed: int
    ops: int
    load_ops: int
    shards: List[ShardReport]
    sim_ns: float
    violations: List[str]
    crash_epoch: Optional[int]

    @property
    def total_ops(self) -> int:
        return sum(s.ops for s in self.shards)

    @property
    def throughput_mops(self) -> float:
        """Served requests per simulated microsecond... reported as
        million ops/s (requests / sim seconds / 1e6)."""
        if self.sim_ns <= 0:
            return 0.0
        return self.total_ops / self.sim_ns * 1e3

    @property
    def latencies_ns(self) -> List[float]:
        merged: List[float] = []
        for s in self.shards:
            merged.extend(s.latencies_ns)
        return merged

    @property
    def latency(self) -> Dict[str, float]:
        return latency_summary(self.latencies_ns)

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """One deterministic fingerprint of the whole run (final images +
        op counts) — two runs with the same inputs must agree."""
        h = hashlib.sha256()
        for s in self.shards:
            h.update(
                ("%d:%s:%d:%d;" % (s.shard, s.image_digest, s.ops, s.acked))
                .encode()
            )
        return h.hexdigest()[:16]


class ReplayedEpochError(RuntimeError):
    """An epoch batch was delivered to a shard that already served those
    request ids (a duplicated delivery, or a driver replaying history).
    Re-applying would silently double-execute non-idempotent ops."""


class _Shard:
    """One shard's serving state across epochs."""

    def __init__(self, shard: int, layout: StoreLayout) -> None:
        self.shard = shard
        self.requests: List[Tuple[int, Request]] = []  # (global id, request)
        #: durable data words; a word the shard cleared may stay as a 0
        self.image: Dict[int, int] = {}
        self.model = StoreModel(layout)
        self.served = 0          # requests completed in finished epochs
        self.report = ShardReport(shard=shard)


class StoreServer:
    """Drives sharded epochs of the store through the store-node executor."""

    def __init__(
        self,
        n_shards: int,
        layout: StoreLayout,
        config: SystemConfig = DEFAULT_CONFIG,
        seed: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        verify: Optional[bool] = None,
        backend=None,
        trace=None,
    ) -> None:
        from ..runtime.backend import get_backend

        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.config = config
        self.seed = seed
        self.verify = verify
        self.backend = get_backend(backend)
        # pin the absolute array addresses now; the store program places
        # the same sizing in the same order, so the bases agree
        self.layout = layout.place(Program("layout-probe"))
        self.progress = progress or (lambda msg: None)
        self.trace = trace if trace is not None else NullTrace()
        self.shards = [_Shard(i, self.layout) for i in range(n_shards)]
        #: the one program every epoch runs, compiled at the first epoch
        self.compiled: Optional[CompiledProgram] = None
        self.violations: List[str] = []
        self.sim_ns = 0.0
        self._cycles_per_step = config.base_cpi

    # ------------------------------------------------------------------
    def _steps_to_ns(self, steps: float) -> float:
        return self.config.cycles_to_ns(steps * self._cycles_per_step)

    def submit(self, requests: Sequence[Request]) -> None:
        for request in requests:
            _, key, _ = request
            shard = self.shards[shard_of(key, len(self.shards))]
            # ids are per shard: position in the shard's own sequence,
            # which is what makes the acked set a checkable prefix
            shard.requests.append((len(shard.requests), request))

    # ------------------------------------------------------------------
    def _serve_epoch(
        self,
        shard: _Shard,
        batch: List[Tuple[int, Request]],
        cut: Optional[FaultEvent] = None,
        epoch: int = 0,
    ) -> int:
        """Run one batch of ``shard`` through the executor and fold the
        result into the shard; returns the epoch's simulated steps."""
        # imported here: any repro.cluster import loads the whole package
        from ..cluster.shard import execute_shard_epoch

        if self.compiled is None:
            prog, placed = build_store_program(self.layout)
            if placed != self.layout:
                raise RuntimeError("store layout moved since the probe")
            self.compiled = compile_program(
                prog, self.config.compiler, verify=self.verify
            )
        first_id = batch[0][0]
        requests = [r for _, r in batch]
        result = execute_shard_epoch(
            shard.shard, self.compiled, self.layout, shard.image,
            shard.served, requests, first_id, shard.model,
            self.backend.name, config=self.config, cut=cut,
        )
        if result.outcome == "replay_rejected":
            # At-most-once guard: every epoch must start exactly where
            # the previous one ended.  A message-layer dup (or a buggy
            # driver) re-delivering an already-served epoch would
            # silently re-apply non-idempotent ops — the heap cursor,
            # compaction counters, and tombstones would all diverge from
            # the model while the visible values looked fine.
            raise ReplayedEpochError(
                "shard %d: epoch starting at id %d %s (shard has served "
                "%d requests); refusing to re-apply" % (
                    shard.shard, first_id, "was already applied"
                    if first_id < shard.served else "skips ahead",
                    shard.served,
                ))
        self.violations.extend(result.violations)
        report = shard.report
        crashed = result.outcome == "crashed"
        if crashed:
            # the executor checked the acked-prefix theorem at the cut
            report.crashes += 1
            self.progress("shard %d: crash at step %d, %d/%d acked, %s" % (
                shard.shard, result.crash_step, len(result.acked_local),
                len(requests),
                "oracle VIOLATION" if result.violations else "oracle ok",
            ))
            self.trace.emit(
                "server_crash", epoch=epoch, shard=shard.shard,
                step=result.crash_step, acked=len(result.acked_local),
                requests=len(requests), oracle_ok=not result.violations,
            )

        # the batch ran to completion (after any crash, on restored
        # power): the model advances by all of it and must agree with
        # every durable result
        want = shard.model.apply_all(requests)
        if result.results != want:
            self.violations.append(
                "shard %d epoch at id %d: durable results %r diverge from "
                "model %r" % (shard.shard, first_id, result.results, want)
            )
        shard.image.update(result.image)
        shard.served += len(requests)

        # client-observed latency: the batch arrives at epoch start, so a
        # request is served once its ack's region commits — queueing
        # behind earlier requests, WPQ quarantine, boundary broadcast,
        # flush-ACK wait, and after a power failure the whole recovery
        # re-execution
        epoch_lat = [self._steps_to_ns(step) for step in result.ack_steps]
        report.latencies_ns.extend(epoch_lat)
        report.acked += len(epoch_lat)
        report.ops += len(requests)
        report.epochs += 1
        report.steps += result.steps
        report.commits += result.commits
        summary = latency_summary(epoch_lat)
        self.trace.emit(
            "server_epoch", epoch=epoch, shard=shard.shard,
            ops=len(requests), acked=len(epoch_lat),
            steps=result.steps,
            sim_ns=self._steps_to_ns(result.steps),
            p50=summary["p50"], p95=summary["p95"], p99=summary["p99"],
            wpq_occupancy=result.max_wpq_occupancy,
            commits=result.commits, crashed=crashed,
        )
        if crashed:
            # the epoch's tail re-executed; its final image must agree
            # with the model (the crash was transparent to clients)
            self._check_visible(shard, "post-recovery")
        return result.steps

    def _check_visible(self, shard: _Shard, when: str) -> None:
        """The shard's durable image must walk clean and hold exactly the
        model's key-value state."""
        visible, problems = visible_state(shard.image, self.layout)
        self.violations.extend(
            "shard %d %s: %s" % (shard.shard, when, p) for p in problems
        )
        if visible != shard.model.kv:
            self.violations.append(
                "shard %d %s state diverged from model" % (shard.shard, when)
            )

    # ------------------------------------------------------------------
    def serve(
        self,
        batch: int,
        crash_epoch: Optional[int] = None,
        crash_seed: int = 0,
        crash_torn: bool = False,
        crash_step: Optional[int] = None,
    ) -> None:
        """Run every submitted request through its shard, ``batch``
        requests per epoch.  With ``crash_epoch`` set, power fails on
        every shard during that epoch, at ``crash_step`` (or a
        per-shard seeded step), optionally with a torn battery write."""
        if crash_epoch is not None:
            from ..runtime.backend import require_recovering

            require_recovering(
                self.backend, "the store's acked-prefix recovery oracle"
            )
        n_epochs = 0
        for shard in self.shards:
            n_epochs = max(
                n_epochs, -(-len(shard.requests) // batch)
            )
        for epoch in range(n_epochs):
            epoch_steps = 0
            for shard in self.shards:
                chunk = shard.requests[epoch * batch:(epoch + 1) * batch]
                if not chunk:
                    continue
                cut: Optional[FaultEvent] = None
                if crash_epoch is not None and epoch == crash_epoch:
                    if crash_step is not None:
                        step = max(1, crash_step)
                    else:
                        step = 1 + mix_int(
                            self.seed, crash_seed, shard.shard, epoch
                        ) % (60 * len(chunk))
                    cut = FaultEvent(
                        kind="cut",
                        step=step,
                        torn_index=0 if crash_torn else -1,
                    )
                epoch_steps = max(
                    epoch_steps,
                    self._serve_epoch(shard, chunk, cut, epoch=epoch),
                )
            self.sim_ns += self._steps_to_ns(epoch_steps)

    # ------------------------------------------------------------------
    def finalize(self) -> List[ShardReport]:
        for shard in self.shards:
            lay = self.layout
            shard.report.compactions = shard.image.get(
                lay.meta + META_COMPACTIONS, 0
            )
            shard.report.drops = shard.image.get(lay.meta + META_DROPS, 0)
            shard.report.keys_live = len(shard.model.kv)
            # cleared words stay in the image as zeros; absent ones read 0
            shard.report.image_digest = image_digest(
                {w: v for w, v in shard.image.items() if v}
            )
            self._check_visible(shard, "final")
        return [s.report for s in self.shards]


def run_serve(
    workload: str = "ycsb-a",
    ops: int = 2000,
    shards: int = 2,
    seed: int = 0,
    keyspace: int = 128,
    value_words: int = 4,
    batch: int = 64,
    dist: str = "zipfian",
    crash_epoch: Optional[int] = None,
    crash_seed: int = 0,
    crash_torn: bool = False,
    crash_step: Optional[int] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    progress: Optional[Callable[[str], None]] = None,
    verify: Optional[bool] = None,
    backend=None,
    trace_path: Optional[str] = None,
) -> ServeReport:
    """Generate, shard, and serve a workload; see :class:`ServeReport`.

    ``verify=True`` statically verifies every epoch's compiled program
    (see :mod:`repro.verify`) before serving from it.  ``trace_path``
    records the run as a trace.v1 JSONL artifact (serve_start,
    per-shard server_epoch/server_crash, serve_end) that ``repro trace
    timeline``/``tail`` can render."""
    requests = generate_workload(
        workload, ops, keyspace, seed=seed, dist=dist
    )
    layout = StoreLayout.sized(
        keyspace, value_words=value_words, max_batch=batch
    )
    trace = JsonlTrace(trace_path) if trace_path else NullTrace()
    server = StoreServer(
        shards, layout, config=config, seed=seed, progress=progress,
        verify=verify, backend=backend, trace=trace,
    )
    trace.emit(
        "serve_start", workload=workload, dist=dist, seed=seed, ops=ops,
        shards=shards, keyspace=keyspace, batch=batch,
        backend=server.backend.name, crash_epoch=crash_epoch,
    )
    server.submit(requests)
    server.serve(
        batch,
        crash_epoch=crash_epoch,
        crash_seed=crash_seed,
        crash_torn=crash_torn,
        crash_step=crash_step,
    )
    reports = server.finalize()
    report = ServeReport(
        workload=workload,
        dist=dist,
        seed=seed,
        ops=ops,
        load_ops=keyspace,
        shards=reports,
        sim_ns=server.sim_ns,
        violations=server.violations,
        crash_epoch=crash_epoch,
    )
    trace.emit(
        "serve_end", ops=report.total_ops, sim_ns=report.sim_ns,
        throughput_mops=report.throughput_mops,
        violations=len(report.violations), digest=report.digest(),
    )
    trace.close()
    return report
