"""Tests of the system benchmark harness, at smoke size.

Run from the repository root:

    python3 -m pytest benchmarks/system/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

SYSTEM = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(SYSTEM))
RUN = os.path.join(SYSTEM, "run.py")
sys.path.insert(0, SYSTEM)

import compare  # noqa: E402
import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def run_bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload once at smoke size, untraced and traced."""
    tmp = tmp_path_factory.mktemp("smoke")
    out = tmp / "runs.json"
    proc = run_bench("--smoke", "--trace", str(tmp / "spans"), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        runs = json.load(fh)["runs"]
    return {"runs": runs, "stdout": proc.stdout, "spans": tmp / "spans"}


def test_workloads_match_the_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_metrics_are_declared_and_emitted(smoke):
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")
    assert set(PER_LAYER) == set(harness.tracing.PER_LAYER)
    assert {r["workload"] for r in smoke["runs"]} == set(harness.WORKLOADS)
    for run in smoke["runs"]:
        assert run["correct"], run["violations"]
        assert set(run["metrics"]) == set(E2E)
        assert set(run["layers"]) == set(PER_LAYER)
        assert all(v > 0 for v in run["metrics"].values()), run["metrics"]
    final = json.loads(smoke["stdout"].strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}


def test_bounds_cover_the_committed_baselines():
    """Each bound is at least max(5%, 2 x spread) over both baseline sets,
    and set-up time has the largest."""
    for m in SPEC["end_to_end"]:
        spreads = []
        for name in ("baseline-a.json", "baseline-b.json"):
            runs = compare.load_runs(os.path.join(SYSTEM, "results", name))
            for workload in harness.WORKLOADS:
                values = [r["metrics"][m["name"]] for r in runs if r["workload"] == workload]
                assert len(values) >= 5, (name, workload)
                spreads.append(compare.spread(values))
        assert m["bound"] >= max(0.05, 2 * max(spreads)), (m["name"], max(spreads))
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_self_times_sum_to_the_traced_wall(smoke):
    for run in smoke["runs"]:
        layers = {k: v for k, v in run["layer_self_s"].items() if k != "unattributed"}
        total = sum(layers.values())
        assert abs(total - run["trace_wall_s"]) <= 0.05 * run["trace_wall_s"], \
            (run["workload"], total, run["trace_wall_s"], layers)


def test_spans_carry_the_recorded_fields(smoke):
    for workload in harness.WORKLOADS:
        path = smoke["spans"] / (workload + ".spans.jsonl")
        spans = harness.tracing.read_spans(str(path))
        assert spans
        for span in spans:
            assert {"name", "layer", "start", "end", "parent", "pid"} <= set(span)
    serve = harness.tracing.read_spans(str(smoke["spans"] / "cluster-serve.spans.jsonl"))
    executors = [s for s in serve if s["layer"] == "shard"]
    assert len({s["pid"] for s in executors}) > 1, "forked workers wrote no spans"
    assert all(s["epoch"] is not None for s in executors)


def test_tracing_keeps_deterministic_metrics(smoke):
    for run in smoke["runs"]:
        assert run["det"] == run["det_traced"], run["workload"]
        for name, value in run["det"].items():
            if name in PER_LAYER:
                assert run["layers"][name] == value


def test_cluster_digest_is_the_same_at_jobs_1_and_2():
    digests = []
    for jobs in (1, 2):
        wl = harness.make_workload("cluster-serve", smoke=True, probing=False, jobs=jobs)
        rd = wl.build(0)
        harness.run_once(wl, rd)
        assert not rd.violations
        digests.append(wl.det(rd))
    assert digests[0] == digests[1]


def test_dropped_replication_batch_fails_the_run():
    proc = run_bench("--workload", "cluster-failover", "--smoke", "--drop-shipped-batch")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "violation:" in proc.stdout and "replica divergence" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(SYSTEM, tmp_path / "benchmarks" / "system",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "store-ycsb-b", "--smoke", cwd=tmp_path,
                     run=str(tmp_path / "benchmarks" / "system" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _runs(workload, values, det=None):
    return [{"workload": workload, "seed": s, "correct": True,
             "metrics": {name: v for name in E2E},
             "det": {"digest": "d%d" % s, **(det[s] if det else {})}}
            for s, v in enumerate(values)]


def _verdicts(a, b):
    return {r["metric"]: r["verdict"] for r in compare.compare(a, b, SPEC)}


def test_compare_verdicts():
    steady = _runs("w", [100.0, 101.0, 99.0, 100.5, 99.5])
    rows = compare.compare(steady, steady, SPEC)
    assert {r["verdict"] for r in rows} == {"unchanged"}

    slower = _runs("w", [150.0, 151.0, 149.0, 150.5, 149.5])
    verdicts = _verdicts(steady, slower)
    assert verdicts["setup_s"] == "worse" and verdicts["host_ops_s"] == "better"

    noisy = _runs("w", [60.0, 140.0, 100.0, 70.0, 130.0])
    verdicts = _verdicts(steady, noisy)
    assert {verdicts[name] for name in E2E} == {"unresolved"}


def test_compare_deterministic_metrics_seed_by_seed():
    def epochs(*values):
        return _runs("w", [100.0] * len(values),
                     det=[{"coordinator.epochs": v} for v in values])

    a = epochs(866, 821, 815)
    assert _verdicts(a, a)["coordinator.epochs"] == "unchanged"
    assert _verdicts(a, epochs(870, 821, 815))["coordinator.epochs"] == "worse"
    assert _verdicts(a, epochs(860, 821, 810))["coordinator.epochs"] == "better"
    # one seed worse outweighs the others being better or equal
    assert _verdicts(a, epochs(866, 821, 816))["coordinator.epochs"] == "worse"
    assert _verdicts(a, epochs(800, 800, 816))["coordinator.epochs"] == "worse"


def test_compare_fails_on_a_digest_mismatch(tmp_path):
    a = _runs("w", [100.0] * 3)
    b = _runs("w", [100.0] * 3)
    assert _verdicts(a, b)["digest"] == "unchanged"
    b[1]["det"]["digest"] = "other"
    assert _verdicts(a, b)["digest"] == "worse"
    for name, runs in (("a", a), ("b", b)):
        with open(tmp_path / (name + ".json"), "w") as fh:
            json.dump({"runs": runs}, fh)
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1


def test_compare_reports_a_workload_on_one_side_only():
    rows = compare.compare(_runs("w", [100.0] * 3) + _runs("v", [1.0] * 3),
                           _runs("w", [100.0] * 3), SPEC)
    only = [r for r in rows if r["workload"] == "v"]
    assert len(only) == 1 and only[0]["verdict"] == "unresolved"
    assert "B" in only[0]["metric"]


def test_compare_exits_1_on_worse(tmp_path):
    for name, values in (("a", [100.0, 101.0, 99.0]), ("b", [150.0, 151.0, 149.0])):
        with open(tmp_path / (name + ".json"), "w") as fh:
            json.dump({"runs": _runs("w", values)}, fh)
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
