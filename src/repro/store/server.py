"""The request-serving harness: shards, epochs, crashes, and stats.

A :func:`run_serve` call generates a seeded workload, partitions it by
key hash across ``shards`` independent machine instances, and serves it
in *epochs*: each shard's next batch is seeded into a persistent request
ring (the ``reqs``/``meta`` arrays), a fresh dispatcher program runs it
on a :class:`~repro.faults.machine.FaultyMachine` (all defenses on, so
acknowledgements pay the real flush-ACK latency), and the shard's durable
image is carried into the next epoch.  One machine instruction is one
simulated step; latencies and throughput are converted to wall time via
the configured base CPI and clock.

A request is **acknowledged** when its response ``io`` survives in the
durable I/O log — i.e. the region containing the ``io`` committed.  Its
latency is the step distance from the ``io`` issuing to that region's
commit (the WPQ quarantine + boundary broadcast + flush-ACK wait),
collected through the opt-in ``MachineStats.commit_steps``/``io_steps``
hooks so un-instrumented runs pay nothing.

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
from ..compiler.interp import precompile_dispatch
from ..compiler.ir import Instr, Op, Program
from ..compiler.pipeline import CompiledProgram, compile_program
from ..config import DEFAULT_CONFIG, SystemConfig
from ..faults.defenses import ALL_ON
from ..faults.machine import FaultyMachine
from ..faults.model import FaultEvent
from .layout import KNUTH, META_COMPACTIONS, META_DROPS, StoreLayout
from .oracle import StoreModel, check_recovery, visible_state
from .programs import Request, build_store_program, request_words
from .workload import generate_workload
from ..trace import JsonlTrace, NullTrace, image_digest, mix_int

__all__ = [
    "DATA_FLOOR",
    "ShardReport",
    "ServeReport",
    "StoreServer",
    "run_serve",
]

#: everything below this word address is the checkpoint array
DATA_FLOOR = Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS


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
    boundaries: int = 0
    max_wpq_occupancy: int = 0
    crashes: int = 0
    acked: int = 0
    recovered_ops: int = 0       # ops re-executed after a power failure
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
        self.layout = layout
        self.requests: List[Tuple[int, Request]] = []  # (global id, request)
        self.image: Dict[int, int] = {}
        self.model = StoreModel(layout)
        self.served = 0          # requests completed in finished epochs
        self.report = ShardReport(shard=shard)


class StoreServer:
    """Drives sharded epochs of the store over FaultyMachine instances."""

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
        # pin the absolute array addresses now; every epoch's program
        # places the same sizing in the same order, so the bases agree
        self.layout = layout.place(Program("layout-probe"))
        self.progress = progress or (lambda msg: None)
        self.trace = trace if trace is not None else NullTrace()
        self.shards = [_Shard(i, self.layout) for i in range(n_shards)]
        #: (template, patchable epoch_base instr) — see _compiled_for
        self._compiled_cache: Optional[
            Tuple[CompiledProgram, Optional[Instr]]
        ] = None
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
    def _fresh_compile(self, epoch_base: int) -> CompiledProgram:
        prog, placed = build_store_program(self.layout, epoch_base=epoch_base)
        if placed != self.layout:
            raise RuntimeError("store layout moved between epochs")
        return compile_program(prog, self.config.compiler, verify=self.verify)

    def _compiled_for(self, epoch_base: int) -> CompiledProgram:
        """The epoch's compiled program, one pipeline run per server.

        Epochs of one layout differ only in ``epoch_base``, which
        survives the pipeline as the immediate of the single
        ``add r11, r1, <base>`` in main's "finish" block (the io-ack
        payload offset).  Running the full Fig. 3 pipeline per epoch
        costs more than executing a smoke-scale epoch, so compile once,
        patch that immediate, and relower the dispatch tables — the
        result is instruction-for-instruction what a fresh compile
        produces.  If the pipeline ever stops leaving exactly one
        matching instruction, every epoch falls back to a fresh compile.
        """
        cached = self._compiled_cache
        if cached is None:
            compiled = self._fresh_compile(epoch_base)
            sites = [
                ins
                for block in compiled.program.functions["main"].blocks.values()
                for ins in block.instrs
                if ins.op == Op.ADD
                and ins.dst == "r11"
                and len(ins.srcs) == 2
                and ins.srcs[0] == "r1"
                and isinstance(ins.srcs[1], int)
                and ins.srcs[1] == epoch_base
            ]
            self._compiled_cache = (
                compiled, sites[0] if len(sites) == 1 else None
            )
            return compiled
        compiled, site = cached
        if site is None:
            return self._fresh_compile(epoch_base)
        if site.srcs[1] != epoch_base:
            site.srcs = (site.srcs[0], epoch_base)
            precompile_dispatch(compiled.program)
        return compiled

    # ------------------------------------------------------------------
    def _run_epoch(
        self,
        shard: _Shard,
        batch: List[Tuple[int, Request]],
        crash_step: Optional[int],
        crash_event: Optional[FaultEvent],
        epoch: int = 0,
    ) -> None:
        lay = self.layout
        first_id = batch[0][0]
        if first_id != shard.served:
            # At-most-once guard: every epoch must start exactly where
            # the previous one ended.  A message-layer dup (or a buggy
            # driver) re-delivering an already-served epoch would
            # silently re-apply non-idempotent ops — the heap cursor,
            # compaction counters, and tombstones would all diverge from
            # the model while the visible values looked fine.
            raise ReplayedEpochError(
                "shard %d: epoch starting at id %d %s (shard has served "
                "%d requests); refusing to re-apply"
                % (
                    shard.shard, first_id,
                    "was already applied" if first_id < shard.served
                    else "skips ahead",
                    shard.served,
                )
            )
        requests = [r for _, r in batch]
        compiled = self._compiled_for(first_id)
        machine = FaultyMachine(
            compiled, config=self.config, defenses=ALL_ON,
            max_steps=8_000_000, backend=self.backend,
        )
        machine.pm.update(shard.image)
        machine.volatile.words.update(shard.image)
        ring = request_words(lay, requests)
        machine.pm.update(ring)
        machine.volatile.words.update(ring)
        machine.stats.commit_steps = []
        machine.stats.io_steps = []

        crashed = False
        if crash_step is not None:
            machine.run(steps=crash_step)
            if not machine.finished:
                crashed = True
                steps_before = machine.stats.steps
                machine.crash(crash_event)
                shard.report.crashes += 1
                acked = {entry[3] for entry in machine.io_log}
                found = check_recovery(
                    machine.pm, acked, shard.model, requests, first_id
                )
                self.violations.extend(
                    "shard %d epoch at id %d: %s" % (shard.shard, first_id, v)
                    for v in found
                )
                self.progress(
                    "shard %d: crash at step %d, %d/%d acked, %s"
                    % (
                        shard.shard,
                        steps_before,
                        len(acked),
                        len(requests),
                        "oracle VIOLATION" if found else "oracle ok",
                    )
                )
                self.trace.emit(
                    "server_crash", epoch=epoch, shard=shard.shard,
                    step=steps_before, acked=len(acked),
                    requests=len(requests), oracle_ok=not found,
                )
                shard.report.recovered_ops += len(requests) - len(acked)
        machine.run()
        machine.finish_messages()
        if not machine.finished:
            self.violations.append(
                "shard %d: epoch did not finish" % shard.shard
            )
            return

        # client-observed latency: the batch arrives at epoch start, so a
        # request is served once its ack's region commits — the step count
        # from epoch start to that commit (queueing behind earlier
        # requests, WPQ quarantine, boundary broadcast, flush-ACK wait,
        # and — after a power failure — the whole recovery re-execution).
        # First committed occurrence wins; re-executed ios come later.
        commit_at = dict(machine.stats.commit_steps)
        seen: Dict[int, float] = {}
        for payload, region, step in machine.stats.io_steps:
            if payload in seen or region not in commit_at:
                continue
            seen[payload] = self._steps_to_ns(commit_at[region])
        epoch_lat = [ns for _, ns in sorted(seen.items())]
        shard.report.latencies_ns.extend(epoch_lat)
        shard.report.acked += len(seen)

        # advance the reference model and the durable image
        shard.model.apply_all(requests)
        shard.image = {
            w: v
            for w, v in machine.pm.items()
            if w >= DATA_FLOOR and v != 0
        }
        shard.served += len(requests)
        shard.report.ops += len(requests)
        shard.report.epochs += 1
        shard.report.steps += machine.stats.steps
        shard.report.commits += machine.stats.commits
        shard.report.boundaries += machine.stats.boundaries
        shard.report.max_wpq_occupancy = max(
            shard.report.max_wpq_occupancy, machine.stats.max_wpq_occupancy
        )
        summary = latency_summary(epoch_lat)
        self.trace.emit(
            "server_epoch", epoch=epoch, shard=shard.shard,
            ops=len(requests), acked=len(seen),
            steps=machine.stats.steps,
            sim_ns=self._steps_to_ns(machine.stats.steps),
            p50=summary["p50"], p95=summary["p95"], p99=summary["p99"],
            wpq_occupancy=machine.stats.max_wpq_occupancy,
            commits=machine.stats.commits, crashed=crashed,
        )
        if crashed:
            # the epoch's tail re-executed; its final image must agree
            # with the model (the crash was transparent to clients)
            visible, problems = visible_state(shard.image, lay)
            if problems:
                self.violations.extend(
                    "shard %d post-recovery: %s" % (shard.shard, p)
                    for p in problems
                )
            if visible != shard.model.kv:
                self.violations.append(
                    "shard %d post-recovery state diverged from model"
                    % shard.shard
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
                step: Optional[int] = None
                event: Optional[FaultEvent] = None
                if crash_epoch is not None and epoch == crash_epoch:
                    if crash_step is not None:
                        step = max(1, crash_step)
                    else:
                        step = 1 + mix_int(
                            self.seed, crash_seed, shard.shard, epoch
                        ) % (60 * len(chunk))
                    event = FaultEvent(
                        kind="cut",
                        step=step,
                        torn_index=0 if crash_torn else -1,
                    )
                before = shard.report.steps
                self._run_epoch(shard, chunk, step, event, epoch=epoch)
                epoch_steps = max(
                    epoch_steps, shard.report.steps - before
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
            shard.report.image_digest = image_digest(shard.image)
            visible, problems = visible_state(shard.image, lay)
            self.violations.extend(
                "shard %d final: %s" % (shard.shard, p) for p in problems
            )
            if visible != shard.model.kv:
                self.violations.append(
                    "shard %d final state diverged from model" % shard.shard
                )
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
