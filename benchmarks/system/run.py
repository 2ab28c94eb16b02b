"""The system benchmark: the sim, store and cluster paths from one command.

    python3 benchmarks/system/run.py [--workload NAME ...] [--seed N]
        [--trace 0|1|DIR] [--runs N] [--out PATH] [--smoke]

Each workload runs in a fresh process (``harness.py``) as a closed loop:
one client issues the next request when the previous answer is in.  A
run serves one fixed-size set of requests.  The command prints every
metric by name and unit, checks each workload's oracle, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 when an oracle fails, and 2 when it cannot run at all (for
example without ``src/repro`` next to it).

``--trace 0`` (default) measures the end-to-end metrics; set-up time is
the median of five fresh processes.  ``--trace 1`` measures the
per-layer metrics instead, from a traced run; ``--trace DIR`` does
both and writes the spans to ``DIR/<workload>.spans.jsonl``.  Metric
names, units, directions and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HARNESS = os.path.join(HERE, "harness.py")
DEFAULT_SPANS = os.path.join(HERE, "out", "spans")

#: fresh processes whose set-up time is measured per run (the measuring
#: one included); the median is reported
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (not an oracle failure)."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc)) from exc


def run_child(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``harness.py`` in a fresh process; return its JSON result.

    The child leads its own process group so a timeout also reaches the
    workers it forked."""
    cmd = [sys.executable, HARNESS] + args + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s timed out after %.0f s" % (" ".join(args), timeout))
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def measure(workload: str, seed: int, opts: argparse.Namespace,
            traced: bool) -> Dict[str, Any]:
    common = ["--workload", workload, "--seed", str(seed)]
    if opts.smoke:
        common.append("--smoke")
    if opts.drop_shipped_batch:
        common.append("--drop-shipped-batch")
    if traced:
        return run_child(common + ["--mode", "trace", "--spans-dir", opts.spans_dir],
                         CHILD_TIMEOUT_S)
    setups = [run_child(common + ["--mode", "setup"], CHILD_TIMEOUT_S)
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_child(common + ["--mode", "plain"], CHILD_TIMEOUT_S)
    setups.append({"setup_s": result["metrics"]["setup_s"],
                   "raw_setup_s": result["raw_setup_s"]})
    result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    return result


def check_names(kind: str, emitted: Dict[str, Any], declared: Dict[str, Dict]) -> None:
    """Every emitted metric is declared, and every declared one emitted."""
    extra = sorted(set(emitted) - set(declared))
    missing = sorted(set(declared) - set(emitted))
    if extra or missing:
        raise BenchError("%s metrics disagree with BENCHMARK.json: undeclared %s, "
                         "not emitted %s" % (kind, extra, missing))


def print_metrics(metrics: Dict[str, float], declared: Dict[str, Dict]) -> None:
    for name, spec in declared.items():
        print("  %-26s %16.6g %s" % (name, metrics[name], spec["unit"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        action="extend", metavar="NAME",
                        help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; run i of --runs uses seed+i")
    parser.add_argument("--seconds", type=float,
                        help="ignored: a run serves a fixed number of requests; "
                             "BENCHMARK.json run_seconds states about how long")
    parser.add_argument("--trace", default="0", metavar="0|1|DIR")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="write every run's results as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: each workload takes a few seconds")
    parser.add_argument("--drop-shipped-batch", action="store_true",
                        help="negative test: lose one replication batch "
                             "mid-run; the cluster oracle must fail the run")
    opts = parser.parse_args(argv)

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError("no src/repro under %s: run from a full checkout" % ROOT)
        spec = load_spec()
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        per_layer = {m["name"]: m for m in spec["per_layer"]}
        known = [w["name"] for w in spec["workloads"]]
        workloads = opts.workloads or known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            raise BenchError("unknown workloads %s (choose from %s)" % (unknown, known))
        if opts.runs < 1:
            raise BenchError("--runs must be at least 1")
        plain = opts.trace != "1"
        traced = opts.trace != "0"
        opts.spans_dir = DEFAULT_SPANS if opts.trace in ("0", "1") else opts.trace

        runs: List[Dict[str, Any]] = []
        for workload in workloads:
            for i in range(opts.runs):
                seed = opts.seed + i
                run: Dict[str, Any] = {"workload": workload, "seed": seed,
                                       "smoke": opts.smoke}
                parts = []
                if plain:
                    res = measure(workload, seed, opts, traced=False)
                    check_names("end-to-end", res["metrics"], e2e)
                    run.update(metrics=res["metrics"], det=res["det"],
                               raw_setup_s=res["raw_setup_s"],
                               raw_serving_s=res["raw_serving_s"])
                    parts.append(res)
                if traced:
                    res = measure(workload, seed, opts, traced=True)
                    check_names("per-layer", res["metrics"], per_layer)
                    run.update(layers=res["metrics"], layer_self_s=res["layer_self_s"],
                               trace_wall_s=res["trace_wall_s"],
                               det_traced=res["det"])
                    parts.append(res)
                run["attempted"] = parts[0]["attempted"]
                run["failed"] = max(p["failed"] for p in parts)
                run["violations"] = [v for p in parts for v in p["violations"]]
                run["correct"] = not run["violations"]
                runs.append(run)
                report(run, e2e, per_layer)
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2

    if opts.out:
        os.makedirs(os.path.dirname(os.path.abspath(opts.out)), exist_ok=True)
        with open(opts.out, "w") as fh:
            json.dump({"format": "system-bench/1", "runs": runs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    units = {name: m["unit"] for name, m in {**e2e, **per_layer}.items()}
    print(json.dumps(final_line(runs, workloads, units)))
    return 0 if all(r["correct"] for r in runs) else 1


def report(run: Dict[str, Any], e2e: Dict[str, Dict], per_layer: Dict[str, Dict]) -> None:
    verdict = "correct" if run["correct"] else "ORACLE FAILED"
    print("%s seed=%d: %d ops attempted, %d failed, %s"
          % (run["workload"], run["seed"], run["attempted"], run["failed"], verdict))
    for violation in run["violations"]:
        print("  violation: %s" % violation)
    if "metrics" in run:
        print_metrics(run["metrics"], e2e)
    if "layers" in run:
        print_metrics(run["layers"], per_layer)
    sys.stdout.flush()


def final_line(runs: List[Dict[str, Any]], workloads: List[str],
               units: Dict[str, str]) -> Dict[str, Any]:
    """The result object; metrics are medians over the runs, keyed by
    name for one workload and by ``workload/name`` for several."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        merged: Dict[str, List[float]] = {}
        for r in mine:
            for name, value in {**r.get("metrics", {}), **r.get("layers", {})}.items():
                merged.setdefault(name, []).append(value)
        for name, values in merged.items():
            key = name if len(workloads) == 1 else "%s/%s" % (workload, name)
            metrics[key] = {"value": statistics.median(values), "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
