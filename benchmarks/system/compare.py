"""Compare two sets of system-benchmark runs.

    python3 benchmarks/system/compare.py A.json B.json

``A`` and ``B`` are ``run.py --runs N --out`` files: the parent's runs
and the change's, ideally with the same seeds.  One row per workload and
metric gives each side's median and quartiles and a verdict:

* end-to-end metrics, against the bound in ``BENCHMARK.json``:
  ``unresolved`` when either side's spread (quartile distance over
  median) exceeds the bound, unless every B run beats every A run;
  otherwise ``worse`` or ``better`` when the medians differ by more than
  the bound, else ``unchanged``;
* deterministic metrics, seed by seed: ``unchanged`` when every shared
  seed reads the same (relative difference at most 1e-9), ``worse`` when
  any shared seed is worse, ``better`` when every differing seed is
  better, and ``unresolved`` when the sets share no seed;
* each run's ``digest`` of its deterministic results: ``worse`` when
  any shared seed's digest differs, since the change then altered what
  the system computes.

A workload with runs on one side only gets one ``unresolved`` row.
Exits 1 when any row is ``worse`` or any run failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: relative difference below which a deterministic metric is unchanged
DET_TOLERANCE = 1e-9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a:
        change = (b - a) / abs(a)
    else:
        change = 0.0 if b == 0 else math.copysign(math.inf, b)
    return change if better == "lower" else -change


def host_verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    beats = all(worse_by(x, y, better) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return "better" if beats else "unresolved"
    delta = worse_by(statistics.median(a), statistics.median(b), better)
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "unchanged"


def det_verdict(a: Dict[int, float], b: Dict[int, float], better: str) -> str:
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "unresolved"
    deltas = [worse_by(a[s], b[s], better) for s in seeds]
    if any(d > DET_TOLERANCE for d in deltas):
        return "worse"
    if all(d >= -DET_TOLERANCE for d in deltas):
        return "unchanged"
    return "better"


def digest_verdict(a: Dict[int, str], b: Dict[int, str]) -> str:
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "unresolved"
    return "unchanged" if all(a[s] == b[s] for s in seeds) else "worse"


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    workloads = list(dict.fromkeys(r["workload"] for r in a_runs + b_runs))
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload and "metrics" in r]
        b = [r for r in b_runs if r["workload"] == workload and "metrics" in r]
        if not a or not b:
            rows.append({"workload": workload, "metric": "(no runs in %s)" % ("B" if a else "A"),
                         "a": [], "b": [], "verdict": "unresolved"})
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            av = [r["metrics"][name] for r in a]
            bv = [r["metrics"][name] for r in b]
            rows.append({"workload": workload, "metric": name, "a": av, "b": bv,
                         "verdict": host_verdict(av, bv, m["better"], m["bound"])})
        for m in spec["per_layer"]:
            name = m["name"]
            ad = {r["seed"]: r["det"][name] for r in a if name in r["det"]}
            bd = {r["seed"]: r["det"][name] for r in b if name in r["det"]}
            if not ad or not bd:
                continue
            rows.append({"workload": workload, "metric": name,
                         "a": list(ad.values()), "b": list(bd.values()),
                         "verdict": det_verdict(ad, bd, m["better"])})
        ad = {r["seed"]: r["det"]["digest"] for r in a}
        bd = {r["seed"]: r["det"]["digest"] for r in b}
        rows.append({"workload": workload, "metric": "digest", "a": [], "b": [],
                     "verdict": digest_verdict(ad, bd)})
    return rows


def fmt(values: List[float]) -> str:
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return "%12.6g [%.6g, %.6g]" % (med, q1, q3)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline runs (run.py --out)")
    parser.add_argument("b", help="candidate runs (run.py --out)")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    rows = compare(a_runs, b_runs, spec)
    print("%-17s %-24s %-36s %-36s %s" % ("workload", "metric", "A median [q1, q3]",
                                         "B median [q1, q3]", "verdict"))
    for row in rows:
        print("%-17s %-24s %-36s %-36s %s" % (row["workload"], row["metric"],
                                             fmt(row["a"]), fmt(row["b"]), row["verdict"]))
    failed = [(side, r["workload"], r["seed"]) for side, runs in (("A", a_runs), ("B", b_runs))
              for r in runs if not r["correct"]]
    for side, workload, seed in failed:
        print("%s: %s seed %d failed its oracle" % (side, workload, seed))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "worse", "unchanged", "unresolved")}
    print(", ".join("%d %s" % (n, v) for v, n in counts.items()))
    return 1 if counts["worse"] or failed else 0


if __name__ == "__main__":
    sys.exit(main())
