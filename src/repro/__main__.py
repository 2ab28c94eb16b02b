"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``       — Table I, hardware costs, CAM latency, CXL presets
* ``run``        — simulate one benchmark under one scheme
* ``figure``     — regenerate one table/figure
* ``serve``      — serve a YCSB-style workload from the persistent KV
                   store (sharded, optional kill-and-recover)
* ``compare``    — one workload across every persist backend: slowdown,
                   persist traffic, and a mid-region crash/recovery probe
* ``bench``      — run the curated perf suite (sim + store YCSB mixes),
                   emit a machine-readable ``BENCH_*.json`` and
                   optionally diff it against a ``--baseline`` artifact
                   (nonzero exit on >10% regression)
* ``crash-sweep``— exhaustively crash-test one benchmark
* ``cluster``    — the resilient sharded store cluster (``serve`` one
                   chaos session, ``reshard`` one with a live reshard)
* ``trace``      — the trace.v1 observability plane: ``timeline`` (the
                   run's ordered phases + durations), ``tail``
                   (live-follow a growing trace), ``verdicts``
                   (re-render campaign verdicts, byte-proved against
                   the recorded summary), ``validate`` (check traces
                   against the event catalogue), ``schema`` (print the
                   published JSON-Schema)

Every expensive command takes ``--jobs N`` to fan its independent work
units out over worker processes (results are bit-identical to serial;
see ``repro.parallel``).
* ``faults``     — adversarial fault-injection campaigns (``campaign``,
                   ``replay``, ``list``)
* ``compile``    — compile a textual-IR (.lir) file and print the
                   instrumented program (regions, checkpoints)
* ``verify``     — statically verify compiled programs against the five
                   recoverability rules (``--self-test`` runs the
                   mutation harness that proves each rule can fire)
* ``list``       — the 38 applications and the available backends
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import (
    ExperimentContext,
    format_figure,
    format_mapping,
    table1_config,
    table3_cxl,
    vg2_cam_latency,
    vg4_hw_cost,
)
from .analysis import experiments as E
from .cluster.chaos import KILLS, MSG_FAULTS, PARTITIONS, TRANSPORT
from .compiler import compile_program
from .compiler.textir import parse_program, print_program
from .config import DEFAULT_CONFIG
from .core.failure import crash_sweep
from .runtime import BACKENDS, compare_backends, format_compare, get_backend
from .verify import VerificationError
from .workloads import BENCHMARKS, SUITES, benchmarks_of

FIGURES = {
    "fig7": E.fig7_slowdown,
    "fig8": E.fig8_efficiency,
    "fig9": E.fig9_psp_vs_wsp,
    "fig10": E.fig10_cwsp,
    "fig11": E.fig11_wpq_size,
    "fig12": E.fig12_threshold,
    "fig13": E.fig13_victim_policy,
    "fig14": E.fig14_miss_rate,
    "fig15": E.fig15_bandwidth,
    "fig16": E.fig16_threads,
    "fig17": E.fig17_cxl,
    "fig18": E.fig18_wpq_hits,
    "table2": E.table2_conflict_rate,
    "vg3": E.vg3_region_stats,
    "ablation-lrpo": E.ablation_lrpo,
    "ablation-compiler": E.ablation_compiler,
}


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low`` (exit 2 if not)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    parse.__name__ = "int"  # keeps argparse's "invalid int value" wording
    return parse


def cmd_info(args: argparse.Namespace) -> int:
    print(format_mapping("Table I — system configuration", table1_config()))
    print()
    print(format_mapping("CAM search latency (V-G2)", vg2_cam_latency()))
    print()
    print(format_mapping("Hardware cost (V-G4)", vg4_hw_cost()))
    print()
    print(format_figure(table3_cxl()))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from .store import MIXES, STORE_BENCHMARKS

    for suite in SUITES:
        names = ", ".join(b.name for b in benchmarks_of(suite))
        print("%-8s  %s" % (suite, names))
    print("%-8s  %s (campaign targets: %s)" % (
        "STORE",
        ", ".join(MIXES),
        ", ".join(STORE_BENCHMARKS),
    ))
    print("backends:")
    for name in sorted(BACKENDS):
        b = BACKENDS[name]
        alias = "" if b.policy.name == name else " (%s)" % b.policy.name
        print("  %-25s %-12s %s" % (
            name + alias,
            "recovers" if b.recovers else "no-recovery",
            b.description,
        ))
    print("figures: %s" % ", ".join(FIGURES))
    from .perf import BENCH_SPECS

    print("bench entries: %s" % ", ".join(
        s.name + ("*" if s.smoke else "") for s in BENCH_SPECS
    ))
    print("  (* = in the --smoke subset)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.benchmark not in BENCHMARKS:
        print("unknown benchmark %r (see `list`)" % args.benchmark)
        return 2
    backend = get_backend(args.backend)
    if args.verify:
        compile_program(
            BENCHMARKS[args.benchmark].build(scale=args.scale),
            DEFAULT_CONFIG.compiler,
            verify=True,
        )
    ctx = ExperimentContext(scale=args.scale, benchmarks=[args.benchmark])
    slowdown, result = ctx.slowdown(args.benchmark, backend.policy)
    print("%s under %s:" % (args.benchmark, backend.name))
    print("  cycles       %12.0f" % result.cycles)
    print("  slowdown     %12.3f (vs memory-mode)" % slowdown)
    print("  instructions %12d" % result.instructions)
    print("  regions      %12d" % result.regions)
    print("  efficiency   %11.2f%% (Eq. 1)" % result.persistence_efficiency)
    print("  stalls: fe=%.0f boundary=%.0f lock=%.0f wpq-hit=%.0f" % (
        result.fe_stall, result.boundary_stall,
        result.lock_stall, result.wpq_hit_stall))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in FIGURES:
        print("unknown figure %r (see `list`)" % args.name)
        return 2
    try:
        ctx = ExperimentContext(
            scale=args.scale,
            benchmarks=args.benchmarks if args.benchmarks else None,
        )
    except KeyError as exc:
        print("%s (see `list`)" % exc.args[0])
        return 2
    print(format_figure(FIGURES[args.name](ctx)))
    return 0


def _read_lir(path: str) -> Optional[str]:
    """The text of a ``.lir`` file, or None after a one-line message."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        print("cannot read %s: %s" % (path, exc.strerror or exc))
        return None


def cmd_compile(args: argparse.Namespace) -> int:
    source = _read_lir(args.file)
    if source is None:
        return 2
    program = parse_program(source)
    from .config import CompilerConfig

    compiled = compile_program(
        program, CompilerConfig(store_threshold=args.threshold)
    )
    print(print_program(compiled.program), end="")
    stats = compiled.stats
    print("# boundaries=%d checkpoints=%d (pruned %d) data_stores=%d "
          "max_region_stores=%d converged=%s"
          % (stats.boundaries, stats.checkpoint_stores,
             stats.pruned_checkpoints, stats.data_stores,
             stats.max_region_stores, stats.converged))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import json as _json

    from .config import CompilerConfig
    from .store.bench import STORE_BENCHMARKS
    from .verify import self_validate, verify_compiled
    from .verify.mutate import validate_placement

    if args.self_test:
        outcomes = self_validate()
        placement = validate_placement()
        ok = True
        for rule, outcome in sorted(outcomes.items()):
            status = "caught" if outcome.ok else "MISSED"
            print("%s %-44s %s" % (rule, outcome.description, status))
            print("    seeded: %s" % outcome.seeded_at)
            if not outcome.ok:
                ok = False
                for diag in outcome.diagnostics[:5]:
                    print("    " + diag.format().splitlines()[0])
        for name, outcome in sorted(placement.items()):
            status = "caught" if outcome.ok else "MISSED"
            print("place[%s] %-30s %s" % (name, outcome.description, status))
            if not outcome.ok:
                ok = False
                for diag in outcome.diagnostics[:5]:
                    print("    " + diag.format().splitlines()[0])
        print("self-test: %s" % ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    config = CompilerConfig(store_threshold=args.threshold)
    targets = []
    if args.targets:
        for name in args.targets:
            if name.endswith(".lir"):
                source = _read_lir(name)
                if source is None:
                    return 2
                targets.append((name, parse_program(source)))
            elif name in BENCHMARKS:
                targets.append(
                    (name, BENCHMARKS[name].build(scale=args.scale))
                )
            elif name in STORE_BENCHMARKS:
                targets.append(
                    (name, STORE_BENCHMARKS[name].build(scale=args.scale))
                )
            else:
                print("unknown target %r: not a benchmark, store program, "
                      "or .lir file (see `list`)" % name)
                return 2
    else:
        for name, bench in list(BENCHMARKS.items()) + list(
            STORE_BENCHMARKS.items()
        ):
            targets.append((name, bench.build(scale=args.scale)))

    if args.synthesize or args.minimize:
        return _verify_placement_modes(args, config, targets)

    reports = []
    failed = 0
    for name, program in targets:
        compiled = compile_program(program, config, verify=False)
        report = verify_compiled(compiled)
        reports.append((name, report))
        if report.errors():
            failed += 1
        status = "FAIL" if report.errors() else (
            "pass (%d warning(s))" % len(report.warnings())
            if report.warnings() else "pass"
        )
        print("%-16s %s" % (name, status))
        if report.errors() or (args.verbose and report.warnings()):
            for line in report.format(limit=args.limit).splitlines()[1:]:
                print("  " + line)

    if args.json:
        payload = {
            "threshold": args.threshold,
            "targets": {name: report.to_json() for name, report in reports},
            "failed": failed,
        }
        with open(args.json, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json)

    print("verified %d target(s): %d failure(s)" % (len(reports), failed))
    return 1 if failed else 0


def _verify_placement_modes(args, config, targets) -> int:
    """``repro verify --synthesize/--minimize``: run the placement
    engine over each target, print the placement report, optionally emit
    the repaired ``.lir`` and the JSON report artifact."""
    import json as _json
    import os

    from .compiler.pipeline import compile_program
    from .compiler.textir import print_program
    from .verify.place import (
        PLACE_VERSION,
        minimize_compiled,
        synthesize_placement,
    )

    mode = "synthesize" if args.synthesize else "minimize"
    budget = args.budget if args.budget is not None else args.threshold
    if args.emit_dir:
        os.makedirs(args.emit_dir, exist_ok=True)

    reports = []
    failed = 0
    for name, program in targets:
        if args.synthesize:
            result = synthesize_placement(
                program, config, budget=budget, check=False
            )
            compiled, preport = result.compiled, result.report
        else:
            compiled = compile_program(program, config, verify=False)
            preport = minimize_compiled(compiled, check=False)
        reports.append((name, preport))
        if not preport.verify_ok:
            failed += 1
        print(preport.format(limit=args.limit if args.verbose else 0))
        if args.emit_dir:
            base = os.path.basename(name)
            if base.endswith(".lir"):
                base = base[:-4]
            path = os.path.join(args.emit_dir, base + ".lir")
            with open(path, "w") as fh:
                fh.write(print_program(compiled.program))
            print("  wrote %s" % path)

    if args.bench:
        if not args.minimize:
            print("--bench requires --minimize")
            return 2
        from .verify.place.bench import placement_bench

        payload = placement_bench(config=config, scale=args.scale)
        for row in payload["rows"]:
            print(
                "bench %-10s boundaries %d -> %d (%.1f%%)  slowdown "
                "%+.6f" % (
                    row["benchmark"], row["boundaries_base"],
                    row["boundaries_minimized"], row["removed_pct"],
                    row["slowdown_delta"],
                )
            )
        with open(args.bench, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.bench)

    differential = None
    if args.differential:
        from .verify.place import placement_differential

        differential = placement_differential(
            mode=mode, config=config, seed=args.seed
        )
        print(differential.format())
        if not differential.ok:
            failed += differential.violations

    if args.report:
        payload = {
            "kind": "repro-placement-set",
            "version": PLACE_VERSION,
            "mode": mode,
            "threshold": args.threshold,
            "budget": budget,
            "failed": failed,
            "targets": {name: rep.to_json() for name, rep in reports},
        }
        if differential is not None:
            payload["differential"] = differential.to_json()
        with open(args.report, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
        print("wrote %s" % args.report)

    print("%s: %d target(s), %d failure(s)" % (mode, len(reports), failed))
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        report = compare_backends(
            benchmark=args.benchmark,
            scale=args.scale,
            backends=args.backends,
            smoke=args.smoke,
            jobs=args.jobs,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0])
        return 2
    print(format_compare(report))
    print("compare: %s" % ("PASS" if report.ok else
                           "FAIL (a crash-consistent backend diverged)"))
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from .perf import diff_reports, format_diff, format_report, load_report
    from .perf import run_bench

    try:
        report = run_bench(
            entries=args.entries or None,
            smoke=args.smoke,
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            trace_path=args.trace,
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(format_report(report))
    report.write(args.out)
    print("wrote %s" % args.out)
    if not args.baseline:
        return 0
    try:
        baseline = load_report(args.baseline)
    except (OSError, ValueError) as exc:
        print("cannot load baseline: %s" % exc)
        return 2
    diff = diff_reports(baseline, report.to_json(),
                        threshold=args.threshold)
    print(format_diff(diff))
    return 0 if diff.ok else 1


def cmd_crash_sweep(args: argparse.Namespace) -> int:
    if args.benchmark not in BENCHMARKS:
        print("unknown benchmark %r (see `list`)" % args.benchmark)
        return 2
    bench = BENCHMARKS[args.benchmark]
    prog = bench.build(scale=args.scale, threads=min(bench.threads, 2))
    compiled = compile_program(prog, DEFAULT_CONFIG.compiler)
    entries = bench.entries(threads=min(bench.threads, 2))
    divergent = crash_sweep(
        compiled, entries=entries, stride=args.stride,
        max_points=args.max_points, backend=args.backend,
        jobs=args.jobs,
    )
    if divergent:
        print("DIVERGED at crash points: %s" % divergent[:20])
        return 1
    where = ("stride %d" % args.stride) if args.stride else "boundary+-1"
    print("%s: crash-consistent at every probed point (%s)"
          % (args.benchmark, where))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .store import MIXES, run_serve

    if args.smoke:
        args.ops = min(args.ops, 200)
        args.keys = min(args.keys, 32)
        args.crash_epoch = 1 if args.crash_epoch is None else args.crash_epoch
    if args.workload not in MIXES:
        print("unknown workload %r (choose from: %s)"
              % (args.workload, ", ".join(MIXES)))
        return 2
    report = run_serve(
        workload=args.workload,
        ops=args.ops,
        shards=args.shards,
        seed=args.seed,
        keyspace=args.keys,
        value_words=args.value_words,
        batch=args.batch,
        dist=args.dist,
        crash_epoch=args.crash_epoch,
        crash_seed=args.crash_seed,
        crash_torn=args.crash_torn,
        crash_step=args.crash_step,
        progress=print,
        verify=True if args.verify else None,
        backend=args.backend,
        trace_path=args.trace,
    )
    print("%s/%s seed=%d: %d requests (%d load + %d mixed) over %d shard(s)"
          % (report.workload, report.dist, report.seed, report.total_ops,
             report.load_ops, report.ops, len(report.shards)))
    print("  sim time     %12.1f ns" % report.sim_ns)
    print("  throughput   %12.2f Mops/s" % report.throughput_mops)
    lat = report.latency
    print("  latency (ns) p50=%.0f p95=%.0f p99=%.0f mean=%.0f max=%.0f"
          % (lat["p50"], lat["p95"], lat["p99"], lat["mean"], lat["max"]))
    for s in report.shards:
        print("  shard %d: %d ops / %d epochs, %d commits, "
              "%d compaction(s), %d drop(s), %d crash(es), "
              "%d keys live, image %s"
              % (s.shard, s.ops, s.epochs, s.commits, s.compactions,
                 s.drops, s.crashes, s.keys_live, s.image_digest))
    print("  digest: %s" % report.digest())
    if args.trace:
        print("  trace: %s" % args.trace)
    if report.crash_epoch is not None:
        print("  acked-write oracle: %s"
              % ("PASS" if report.ok else "FAIL"))
    for v in report.violations[:10]:
        print("  VIOLATION %s" % v)
    return 0 if report.ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import (
        DEFAULT_CAMPAIGN_BENCHMARKS,
        DEFENSE_OFF_MODES,
        FAULT_CLASSES,
        NESTED_POINTS,
        STORE_CAMPAIGN_BENCHMARKS,
        replay_campaign,
        run_campaign,
    )

    if args.faults_command == "list":
        print("fault classes:  %s" % ", ".join(FAULT_CLASSES))
        print("nested points:  %s" % ", ".join(NESTED_POINTS))
        print("defense-off:    %s" % ", ".join(sorted(DEFENSE_OFF_MODES)))
        print("benchmarks:     %s" % ", ".join(DEFAULT_CAMPAIGN_BENCHMARKS))
        print("store targets:  %s" % ", ".join(STORE_CAMPAIGN_BENCHMARKS))
        return 0

    if args.faults_command == "replay":
        try:
            report = replay_campaign(
                args.trace, progress=print, jobs=args.jobs
            )
        except (OSError, ValueError) as exc:
            print(exc)
            return 2
        print("replayed %d scenarios, %d mismatch(es)"
              % (report["checked"], len(report["mismatches"])))
        for mm in report["mismatches"][:10]:
            print("  MISMATCH %s" % mm)
        return 1 if report["mismatches"] else 0

    # campaign
    if args.workload == "cluster":
        from .cluster import run_cluster_campaign

        trace_path = args.trace or (
            ("cluster-failover-seed%d.jsonl" if args.replicate
             else "cluster-chaos-seed%d.jsonl") % args.seed
        )
        backends = (
            (args.backend,) if args.backend
            else ("lightwsp-lrpo", "cwsp-eager")
        )
        try:
            report = run_cluster_campaign(
                backends=backends,
                seeds=tuple(range(args.seed, args.seed + 3)),
                jobs=args.jobs,
                trace_path=trace_path,
                replicate=args.replicate,
                ship_lag=args.lag,
                reshard_at=args.reshard_at,
                follower_kills=args.follower_kills,
                progress=print,
            )
        except (KeyError, ValueError) as exc:
            print(exc.args[0] if exc.args else str(exc))
            return 2
        print()
        acked = sum(
            s.responses.get("ok", 0) for s in report.scenarios
        )
        print("cluster campaign: %d scenarios, %d acked ops, "
              "%d violation scenario(s)"
              % (len(report.scenarios), acked, len(report.failures)))
        for s in report.failures[:5]:
            print("  FAIL %s seed=%d: %s"
                  % (s.backend, s.seed, s.violations[:3]))
            if s.shrunk is not None:
                print("    minimal schedule (%d events): %s"
                      % (len(s.shrunk), [f.to_json() for f in s.shrunk]))
        print("trace: %s" % trace_path)
        print("PASS" if report.ok else "FAIL")
        return 0 if report.ok else 1
    benchmarks = args.benchmarks or None
    if args.workload == "store" and benchmarks is None:
        benchmarks = list(STORE_CAMPAIGN_BENCHMARKS)
    trace_path = args.trace or ("faults-campaign-seed%d.jsonl" % args.seed)
    try:
        result = run_campaign(
            seed=args.seed,
            benchmarks=benchmarks,
            scale=args.scale,
            trace_path=trace_path,
            validate_defenses=not args.no_validate,
            progress=print,
            verify=True if args.verify else None,
            backend=args.backend,
            jobs=args.jobs,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc))
        return 2
    print()
    print("campaign: %d scenarios over %d benchmarks x %d fault classes"
          " (backend: %s)"
          % (result.scenarios_run, len(result.benchmarks),
             len(result.fault_classes), result.backend))
    print("oracle violations (defended protocol): %d"
          % len(result.violations))
    for v in result.violations[:10]:
        print("  VIOLATION %s/%s %s" % (
            v["benchmark"], v["fault_class"], v["schedule"]))
    if result.defense_results:
        print("defense-off modes caught: %d/%d"
              % (result.defenses_caught, len(result.defense_results)))
        for mode, entry in sorted(result.defense_results.items()):
            if entry["caught"]:
                print("  %-24s caught on %s, %d-event minimal reproducer: %s"
                      % (mode, entry["benchmark"], entry["minimal_events"],
                         entry["minimal"]))
            else:
                print("  %-24s NOT CAUGHT (%d candidates tried)"
                      % (mode, entry["candidates_tried"]))
    print("trace: %s" % trace_path)
    print("PASS" if result.ok else "FAIL")
    return 0 if result.ok else 1


def cmd_trace(args) -> int:
    from .obs import (
        build_timeline,
        format_timeline,
        format_verdicts,
        render_verdicts,
        schema_json_text,
        tail_trace,
        validate_records,
    )
    from .trace import read_trace

    if args.trace_command == "schema":
        print(schema_json_text(), end="")
        return 0

    if args.trace_command == "timeline":
        try:
            timeline = build_timeline(read_trace(args.trace), args.trace)
        except (OSError, ValueError) as exc:
            print(exc.args[0] if exc.args else str(exc))
            return 2
        print(format_timeline(timeline))
        return 0

    if args.trace_command == "tail":
        try:
            tail = tail_trace(
                args.trace, out=print, poll=args.poll,
                idle_timeout=args.idle_timeout,
                follow=not args.no_follow,
            )
        except (OSError, ValueError) as exc:
            print(exc.args[0] if exc.args else str(exc))
            return 2
        return 1 if tail.violations else 0

    if args.trace_command == "verdicts":
        try:
            report = render_verdicts(args.trace)
        except (OSError, ValueError) as exc:
            print(exc.args[0] if exc.args else str(exc))
            return 2
        print(format_verdicts(report))
        return 0 if report.ok else 1

    # validate
    failures = 0
    for path in args.traces:
        try:
            records = read_trace(path)
            problems = validate_records(records)
        except (OSError, ValueError) as exc:
            records = []
            problems = [exc.args[0] if exc.args else str(exc)]
        if problems:
            failures += 1
            print("%s: INVALID" % path)
            for problem in problems[:20]:
                print("  " + problem)
        else:
            print("%s: ok (%d record(s))" % (path, len(records)))
    print("validated %d trace(s): %d invalid"
          % (len(args.traces), failures))
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    from .cluster import ClusterSession, generate_cluster_chaos
    from .trace import JsonlTrace, NullTrace

    if args.cluster_command == "reshard" and args.reshard_at < 0:
        print("reshard needs --reshard-at >= 0")
        return 2
    if args.smoke:
        args.shards = min(args.shards, 2)
        args.ops = min(args.ops, 20)
        args.kills = min(args.kills, 1)
    chaos = [] if args.no_chaos else generate_cluster_chaos(
        args.seed, args.shards, horizon=args.horizon,
        kills=args.kills, transport=args.transport,
        partitions=args.partitions, msg_faults=args.msg_faults,
        reshard_at=args.reshard_at,
        follower_kills=args.follower_kills if args.replicate else 0,
    )

    # one chaos session, optionally traced
    trace = JsonlTrace(args.trace) if args.trace else NullTrace()
    try:
        session = ClusterSession.build(
            n_shards=args.shards, keyspace=args.keyspace, ops=args.ops,
            seed=args.seed, backend=args.backend, mix=args.mix,
            txn_every=args.txn_every, chaos=chaos, jobs=args.jobs,
            trace=trace, replicate=args.replicate, ship_lag=args.lag,
            reshard_at=args.reshard_at,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc))
        return 2
    session.run()
    trace.close()

    by_status: dict = {}
    for r in session.responses.values():
        by_status[r.status] = by_status.get(r.status, 0) + 1
    print("cluster: %d shards (backend: %s), %d ops, %d epochs"
          % (session.n_shards, session.backend.name,
             len(session.responses), session.epoch))
    print("responses: %s" % " ".join(
        "%s=%d" % (s, by_status[s]) for s in sorted(by_status)))
    interesting = (
        "kills", "retries", "replays_rejected", "acks_dropped",
        "acks_delayed", "reqs_dropped", "partition_drops",
        "promotions", "shipped", "fenced_rejected", "follower_kills",
        "migrated_keys",
    )
    print("chaos:     %s" % " ".join(
        "%s=%d" % (c, session.counters[c]) for c in interesting
        if session.counters.get(c)))
    for state in session.shards:
        print("  shard %d: served=%d epochs=%d crashes=%d image=%s"
              % (state.shard, state.served, state.epochs,
                 state.crashes, state.image_digest()))
    if args.replicate:
        for rs in session.ranges:
            print("  range %d: fence=%d promotions=%d follower_served=%d"
                  % (rs.range_id, rs.fence, rs.promotions,
                     rs.follower.served if rs.follower else 0))
    mig = session._mig
    if mig is not None:
        print("reshard:   new shard %d, %d/%d keys migrated, state=%s"
              % (mig["target"], mig["copied"], len(mig["moved"]),
                 mig["state"]))
    if args.trace:
        print("trace: %s" % args.trace)
    if session.violations:
        print("oracle violations: %d" % len(session.violations))
        for v in session.violations[:10]:
            print("  VIOLATION %s" % v)
        print("FAIL")
        return 1
    print("oracle: zero acked-write loss, no half-commits  PASS")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options several commands share, declared once
    jobs_opt = argparse.ArgumentParser(add_help=False)
    jobs_opt.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (independent work units fan out; results "
             "are bit-identical to --jobs 1)",
    )
    verify_opt = argparse.ArgumentParser(add_help=False)
    verify_opt.add_argument(
        "--verify", action="store_true",
        help="statically verify every compiled program first and refuse "
             "to go on if any fails",
    )
    backend_opt = argparse.ArgumentParser(add_help=False)
    backend_opt.add_argument(
        "--backend", default=None,
        help="persist backend, or its legacy scheme name (see `list`); "
             "commands that cut power need a crash-consistent one",
    )
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument(
        "--seed", type=int, default=0,
        help="seed of everything the run generates: workload, chaos, "
             "fault schedules (verify: the --differential schedules)",
    )
    trace_opt = argparse.ArgumentParser(add_help=False)
    trace_opt.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the run as a trace.v1 JSONL artifact, which "
             "`repro trace` renders (faults campaign always records, by "
             "default to faults-campaign-seed<N>.jsonl, or "
             "cluster-chaos-/cluster-failover-seed<N>.jsonl)",
    )

    def replication_opts(reshard_at: int) -> argparse.ArgumentParser:
        """The replicated-cluster options, one parser per --reshard-at
        default: set_defaults on a child parser would rewrite a shared
        parent's action, and with it every other command's default."""
        opts = argparse.ArgumentParser(add_help=False)
        opts.add_argument(
            "--replicate", action="store_true",
            help="(cluster) per-range primary+follower replication: log "
                 "shipping, promote-on-DEAD failover behind a fencing "
                 "token",
        )
        opts.add_argument(
            "--lag", type=int, default=1,
            help="bounded log-shipping lag window (with --replicate)",
        )
        opts.add_argument(
            "--follower-kills", type=int, default=0,
            help="follower power-cuts in the chaos schedule "
                 "(with --replicate)",
        )
        opts.add_argument(
            "--reshard-at", type=int, default=reshard_at,
            help="(cluster) epoch a new shard joins and its arcs migrate "
                 "live (-1: no reshard)",
        )
        return opts

    sub.add_parser("info", help="configuration + cost tables")
    sub.add_parser("list", help="benchmarks, backends, figures")

    p_run = sub.add_parser(
        "run", parents=[verify_opt, backend_opt],
        help="simulate one benchmark",
    )
    p_run.add_argument("benchmark")
    p_run.add_argument("--scale", type=float, default=0.1)

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("name")
    p_fig.add_argument("--scale", type=float, default=0.1)
    p_fig.add_argument("--benchmarks", nargs="*", default=None)

    p_serve = sub.add_parser(
        "serve", parents=[verify_opt, backend_opt, seed_opt, trace_opt],
        help="serve a KV workload on the persistent store",
    )
    p_serve.add_argument(
        "--workload", default="ycsb-a",
        help="mix name (ycsb-a/b/c/e, crud; see `list`)",
    )
    p_serve.add_argument("--ops", type=_int_at_least(0), default=2000)
    p_serve.add_argument("--shards", type=_int_at_least(1), default=2)
    p_serve.add_argument("--keys", type=_int_at_least(1), default=128)
    p_serve.add_argument("--value-words", type=_int_at_least(1), default=4)
    p_serve.add_argument("--batch", type=_int_at_least(1), default=64)
    p_serve.add_argument(
        "--dist", default="zipfian", choices=("zipfian", "uniform")
    )
    p_serve.add_argument(
        "--crash-epoch", type=_int_at_least(0), default=None,
        help="cut power on every shard during this epoch (0-based)",
    )
    p_serve.add_argument(
        "--crash-step", type=int, default=None,
        help="crash at this step in the epoch (default: seeded per shard)",
    )
    p_serve.add_argument("--crash-seed", type=int, default=0)
    p_serve.add_argument(
        "--crash-torn", action="store_true",
        help="tear one battery-backed WPQ write at the crash",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="small fixed-cost run with a crash (CI smoke test)",
    )

    p_compile = sub.add_parser("compile", help="compile a .lir file")
    p_compile.add_argument("file")
    p_compile.add_argument("--threshold", type=int, default=32)

    p_verify = sub.add_parser(
        "verify", parents=[seed_opt],
        help="statically verify compiled programs (5 recoverability rules)",
    )
    p_verify.add_argument(
        "targets", nargs="*",
        help="benchmark names, store programs, or .lir files "
             "(default: the full suite + store benchmarks)",
    )
    p_verify.add_argument("--threshold", type=int, default=32)
    p_verify.add_argument("--scale", type=float, default=1.0)
    p_verify.add_argument(
        "--self-test", action="store_true",
        help="run the mutation harness: seed one violation per rule and "
             "check each is caught with a witness (plus the seeded "
             "placement-engine defects)",
    )
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument(
        "--synthesize", action="store_true",
        help="strip all instrumentation and synthesize a fresh "
             "rule-satisfying boundary placement from the verifier's "
             "own CFG/liveness analyses",
    )
    mode.add_argument(
        "--minimize", action="store_true",
        help="compile normally, then delete every boundary whose "
             "removal the verifier proves safe",
    )
    p_verify.add_argument(
        "--budget", type=int, default=None,
        help="store budget for --synthesize (default: --threshold)",
    )
    p_verify.add_argument(
        "--emit-dir", default=None, metavar="DIR",
        help="write the repaired/synthesized program of each target as "
             "DIR/<name>.lir",
    )
    p_verify.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON placement report (--synthesize/--minimize)",
    )
    p_verify.add_argument(
        "--differential", action="store_true",
        help="with --synthesize/--minimize: also run the fixed-seed "
             "differential crash campaign over the deterministic "
             "workload subset (image, crash-sweep, and trace oracles)",
    )
    p_verify.add_argument(
        "--bench", default=None, metavar="PATH",
        help="with --minimize: measure the slowdown delta of "
             "minimization through the timing model and write the "
             "placement-bench JSON artifact",
    )
    p_verify.add_argument(
        "--json", default=None, metavar="PATH",
        help="write all diagnostics to a JSON file",
    )
    p_verify.add_argument(
        "--limit", type=int, default=10,
        help="max diagnostics printed per target",
    )
    p_verify.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print warnings for passing targets",
    )

    p_cmp = sub.add_parser(
        "compare", parents=[jobs_opt],
        help="one workload across every persist backend",
    )
    p_cmp.add_argument("benchmark", nargs="?", default="bzip2")
    p_cmp.add_argument("--scale", type=float, default=0.05)
    p_cmp.add_argument(
        "--backends", nargs="*", default=None,
        help="subset of backends (default: all registered)",
    )
    p_cmp.add_argument(
        "--smoke", action="store_true",
        help="small fixed-cost run over all backends (CI smoke test)",
    )

    p_bench = sub.add_parser(
        "bench", parents=[jobs_opt, seed_opt, trace_opt],
        help="run the curated perf suite, emit BENCH_*.json, and "
             "optionally gate against a baseline",
    )
    p_bench.add_argument(
        "entries", nargs="*",
        help="bench entries to run (default: all, or the smoke subset "
             "with --smoke; see `list`)",
    )
    p_bench.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run over the smoke subset",
    )
    p_bench.add_argument("--scale", type=float, default=0.25)
    p_bench.add_argument(
        "--out", default="BENCH_pr9.json", metavar="PATH",
        help="where to write the machine-readable report",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="diff against this earlier BENCH_*.json; exit nonzero on "
             "any gated metric regressing past the threshold",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=0.10,
        help="regression threshold as a fraction (default 0.10)",
    )

    p_sweep = sub.add_parser(
        "crash-sweep", parents=[jobs_opt, backend_opt],
        help="crash-test a benchmark",
    )
    p_sweep.add_argument("benchmark")
    p_sweep.add_argument("--scale", type=float, default=0.02)
    p_sweep.add_argument(
        "--stride", type=int, default=None,
        help="probe every Nth instruction (default: boundary+-1 sampling)",
    )
    p_sweep.add_argument(
        "--max-points", type=int, default=None,
        help="cap the probe count by even subsampling",
    )

    p_faults = sub.add_parser(
        "faults", help="adversarial fault-injection campaigns"
    )
    fsub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_camp = fsub.add_parser(
        "campaign",
        parents=[jobs_opt, verify_opt, backend_opt, seed_opt, trace_opt,
                 replication_opts(-1)],
        help="seeded fault-schedule sweep + defense-off self-validation",
    )
    p_camp.add_argument("--scale", type=float, default=0.01)
    p_camp.add_argument("--benchmarks", nargs="*", default=None)
    p_camp.add_argument(
        "--workload", default="suite", choices=("suite", "store", "cluster"),
        help="benchmark set: the CPU suite subset, the KV-store "
             "request-serving programs, or the sharded cluster chaos "
             "campaign (kills + partitions + message faults)",
    )
    p_camp.add_argument(
        "--no-validate", action="store_true",
        help="skip the defense-off self-validation pass",
    )
    p_replay = fsub.add_parser(
        "replay", parents=[jobs_opt],
        help="re-run every scenario of a recorded trace",
    )
    p_replay.add_argument("trace")
    fsub.add_parser("list", help="fault classes, nested points, modes")

    p_cluster = sub.add_parser(
        "cluster", help="the resilient sharded store cluster"
    )
    csub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    # serve and reshard run one session: shared session options
    session_opts = argparse.ArgumentParser(
        add_help=False, parents=[jobs_opt, seed_opt, backend_opt, trace_opt]
    )
    session_opts.add_argument("--shards", type=_int_at_least(1), default=3)
    session_opts.add_argument("--keyspace", type=_int_at_least(1),
                              default=16)
    session_opts.add_argument("--ops", type=int, default=36)
    session_opts.add_argument("--mix", default="crud",
                              choices=("crud", "ycsb-a", "ycsb-b", "ycsb-c",
                                       "ycsb-e"))
    session_opts.add_argument(
        "--kills", type=int, default=KILLS,
        help="shard power-cuts in the generated chaos schedule",
    )
    session_opts.add_argument("--transport", type=int, default=TRANSPORT,
                              help="message-layer faults (drop/dup/delay)")
    session_opts.add_argument("--partitions", type=int, default=PARTITIONS)
    session_opts.add_argument("--msg-faults", type=int, default=MSG_FAULTS,
                              help="machine-level message-path faults")
    session_opts.add_argument("--horizon", type=int, default=24,
                              help="last epoch chaos may land on")
    session_opts.add_argument("--txn-every", type=int, default=6,
                              help="every Nth mixed-phase PUT becomes a "
                                   "cross-shard transaction")
    session_opts.add_argument("--no-chaos", action="store_true",
                              help="fault-free run (sanity baseline)")
    session_opts.add_argument("--smoke", action="store_true",
                              help="small fixed shape for CI smoke tests")

    csub.add_parser(
        "serve", parents=[session_opts, replication_opts(-1)],
        help="run one chaos session: routed ops, kills, recovery, "
             "typed degradation, oracle check",
    )
    csub.add_parser(
        "reshard", parents=[session_opts, replication_opts(3)],
        help="live resharding: a new shard joins mid-run and its key "
             "arcs migrate while clients keep being served",
    )

    p_trace = sub.add_parser(
        "trace",
        help="the trace.v1 observability plane: render, follow, "
             "validate JSONL run traces",
    )
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tl = tsub.add_parser(
        "timeline",
        help="reconstruct the run's ordered phases and durations "
             "(deterministic units: steps/epochs/sim-ns) from a trace",
    )
    p_tl.add_argument("trace")
    p_tail = tsub.add_parser(
        "tail",
        help="live-follow a growing trace: throughput, p50/p95/p99, "
             "WPQ occupancy, crash/recovery events as they land",
    )
    p_tail.add_argument("trace")
    p_tail.add_argument(
        "--poll", type=float, default=0.2,
        help="seconds between polls while waiting for growth",
    )
    p_tail.add_argument(
        "--idle-timeout", type=float, default=None,
        help="stop after this many seconds without growth "
             "(default: wait until the terminal record)",
    )
    p_tail.add_argument(
        "--no-follow", action="store_true",
        help="render what is on disk now and stop (no waiting)",
    )
    p_verd = tsub.add_parser(
        "verdicts",
        help="re-render campaign verdicts and summary stats from the "
             "trace alone, byte-compared against the recorded summary",
    )
    p_verd.add_argument("trace")
    p_val = tsub.add_parser(
        "validate",
        help="check traces against the trace.v1 event catalogue "
             "(nonzero exit on any violation)",
    )
    p_val.add_argument("traces", nargs="+")
    tsub.add_parser(
        "schema", help="print the published trace.v1 JSON-Schema"
    )

    args = parser.parse_args(argv)
    if getattr(args, "backend", None) is not None:
        try:
            args.backend = get_backend(args.backend).name
        except KeyError as exc:
            print(exc.args[0])
            return 2
    handler = {
        "info": cmd_info,
        "list": cmd_list,
        "run": cmd_run,
        "figure": cmd_figure,
        "serve": cmd_serve,
        "compare": cmd_compare,
        "bench": cmd_bench,
        "compile": cmd_compile,
        "verify": cmd_verify,
        "crash-sweep": cmd_crash_sweep,
        "faults": cmd_faults,
        "cluster": cmd_cluster,
        "trace": cmd_trace,
    }[args.command]
    try:
        return handler(args)
    except VerificationError as exc:
        print("static verification FAILED, refusing `repro %s`:"
              % args.command)
        print(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
