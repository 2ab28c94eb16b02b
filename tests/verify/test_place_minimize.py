"""repro.verify.place.minimize: verifier-backed boundary deletion with
witness-path justifications for every kept boundary."""

import pytest

from repro.compiler.interp import run_single
from repro.compiler.ir import Op
from repro.compiler.pipeline import compile_program
from repro.config import CompilerConfig
from repro.faults.campaign import resolve_benchmark
from repro.trace import EK
from repro.verify import verify_compiled
from repro.verify.mutate import SELF_TEST_THRESHOLD, _target_program
from repro.verify.place import minimize_compiled
from repro.verify.place.minimize import _ANCHORED
from repro.workloads.randprog import random_program
from repro.workloads.suite import BENCHMARKS


def _compiled(name, scale=0.05, threshold=32):
    program = BENCHMARKS[name].build(scale=scale)
    return compile_program(
        program, CompilerConfig(store_threshold=threshold), verify=False
    )


def test_minimize_removes_redundant_loop_boundary():
    # lbm's nested storing loops: the inner boundary cuts every storing
    # cycle, so the outer header boundary is provably redundant.
    compiled = _compiled("lbm")
    before = compiled.stats.boundaries
    report = minimize_compiled(compiled)
    assert report.removed >= 1
    assert compiled.stats.boundaries == before - report.removed
    assert compiled.stats.minimized_boundaries == report.removed
    assert report.verify_ok
    assert verify_compiled(compiled).ok


@pytest.mark.parametrize("name", ["lbm", "ssca2", "mg"])
def test_minimize_hits_ten_percent_on_suite_programs(name):
    compiled = _compiled(name)
    report = minimize_compiled(compiled)
    assert report.removed_pct >= 10.0, report.format()
    assert report.verify_ok


def test_minimize_never_touches_anchored_kinds():
    compiled = _compiled("ssca2")
    report = minimize_compiled(compiled)
    assert all(a.kind not in _ANCHORED for a in report.actions)
    assert all(a.action == "removed" for a in report.actions)


def test_minimize_is_fixpoint():
    compiled = _compiled("lbm")
    minimize_compiled(compiled)
    again = minimize_compiled(compiled)
    assert again.removed == 0


def test_kept_boundaries_carry_witness_diagnostics():
    # mcf keeps all boundaries: its loop candidates are genuinely
    # load-bearing, so each veto carries the verifier's diagnostics.
    compiled = _compiled("mcf")
    report = minimize_compiled(compiled)
    vetoed = [k for k in report.kept if k.diagnostics]
    assert vetoed, "expected at least one vetoed candidate with evidence"
    for kept in vetoed:
        assert kept.reason.startswith("removal vetoed by")
        assert all(d.rule in ("R1", "R2", "R3", "R4", "R5")
                   for d in kept.diagnostics)
    anchored = [k for k in report.kept if not k.diagnostics]
    assert all(k.kind in _ANCHORED for k in anchored)


def test_minimize_drops_checkpoints_with_the_boundary():
    compiled = _compiled("lbm")
    ck_before = compiled.stats.checkpoint_stores
    report = minimize_compiled(compiled)
    freed = sum(a.checkpoints for a in report.actions)
    assert compiled.stats.checkpoint_stores == ck_before - freed
    # no orphaned plans for removed boundaries
    live_uids = {
        instr.uid
        for func in compiled.program.functions.values()
        for block in func.blocks.values()
        for instr in block.instrs
        if instr.op == Op.BOUNDARY
    }
    assert set(compiled.plans) <= live_uids


def test_minimize_report_json_shape():
    report = minimize_compiled(_compiled("lbm"))
    payload = report.to_json()
    assert payload["kind"] == "repro-placement"
    assert payload["mode"] == "minimize"
    assert payload["removed"] == report.removed
    assert payload["boundaries_before"] - payload["removed"] \
        == payload["boundaries_after"]
    for kept in payload["kept"]:
        assert {"kind", "function", "block", "index", "reason",
                "diagnostics"} <= set(kept)


def test_unsafe_merge_bug_is_caught_by_verifier():
    compiled = compile_program(
        _target_program(),
        CompilerConfig(store_threshold=SELF_TEST_THRESHOLD),
        verify=False,
    )
    report = minimize_compiled(compiled, _bug="unsafe-merge")
    assert not report.verify_ok
    assert not verify_compiled(compiled).ok


def test_unknown_bug_rejected():
    with pytest.raises(ValueError):
        minimize_compiled(_compiled("lbm"), _bug="nope")


def _boundary_uids(program):
    return {
        instr.uid
        for func in program.functions.values()
        for instr in func.instructions()
        if instr.op == Op.BOUNDARY
    }


def _boundaries_run(program):
    trace, _ = run_single(program)
    return {e.boundary_uid for e in trace if e.kind == EK.BOUNDARY}


@pytest.mark.parametrize("build, config", [
    (lambda: random_program(11), CompilerConfig(store_threshold=8)),
    (lambda: random_program(23), CompilerConfig(store_threshold=8)),
    (lambda: resolve_benchmark("store-ycsb-a").build(scale=0.01),
     CompilerConfig()),
], ids=["randprog-11", "randprog-23", "store-ycsb-a"])
def test_minimized_program_runs_its_minimized_code(build, config):
    # The compile lowers the program for the interpreter and the run
    # below uses that lowering; minimization then edits the program in
    # place, and the next run must execute the edited blocks.
    compiled = compile_program(build(), config, verify=False)
    ran_before = _boundaries_run(compiled.program)
    minimize_compiled(compiled)
    kept = _boundary_uids(compiled.program)
    assert ran_before - kept, "minimization removed no boundary that runs"
    assert _boundaries_run(compiled.program) <= kept
