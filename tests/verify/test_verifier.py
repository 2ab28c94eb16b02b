"""End-to-end verifier tests: compiled programs, the pipeline gate, the
randprog property sweep (satellite of the compiler fuzz tests), and the
mutation self-validation harness.
"""

import pytest

from helpers import saxpy_program

from repro.compiler.pipeline import compile_program, set_default_verify
from repro.config import CompilerConfig
from repro.verify import (
    RULES,
    VerificationError,
    mutation_catalog,
    self_validate,
    verify_compiled,
)
from repro.workloads.randprog import random_program

#: the property sweep's seed range; on failure the test shrinks the
#: first failing seed and reports it
PROPERTY_SEEDS = range(50)


class TestVerifyCompiled:
    def test_saxpy_verifies_clean(self):
        compiled = compile_program(saxpy_program(n=16), CompilerConfig())
        report = verify_compiled(compiled)
        assert report.ok, report.format()
        assert report.boundaries == compiled.stats.boundaries

    def test_nonconverged_compile_warns_not_errors(self):
        # threshold 2 cannot fit bzip2's checkpoint groups; the compiler
        # declares converged=False and the verifier downgrades overshoot.
        from repro.workloads import BENCHMARKS

        compiled = compile_program(
            BENCHMARKS["bzip2"].build(scale=1),
            CompilerConfig(store_threshold=2),
        )
        assert not compiled.stats.converged
        report = verify_compiled(compiled)
        assert report.ok, report.format()
        assert report.warnings()

    def test_report_json_roundtrip(self):
        compiled = compile_program(saxpy_program(n=16), CompilerConfig())
        payload = verify_compiled(compiled).to_json()
        assert payload["ok"] is True
        assert payload["program"] == "saxpy"
        assert payload["boundaries"] > 0


class TestPipelineGate:
    def test_verify_true_passes_on_clean_program(self):
        compiled = compile_program(
            saxpy_program(n=16), CompilerConfig(), verify=True
        )
        assert compiled.stats.boundaries > 0

    def test_default_follows_set_default_verify(self, monkeypatch):
        calls = []

        def fake_verify(compiled):
            calls.append(compiled)
            return verify_compiled(compiled)

        monkeypatch.setattr(
            "repro.verify.verifier.verify_compiled", fake_verify
        )
        monkeypatch.setattr("repro.verify.verify_compiled", fake_verify)
        try:
            set_default_verify(False)
            compile_program(saxpy_program(n=8), CompilerConfig())
            assert calls == []
            set_default_verify(True)
            compile_program(saxpy_program(n=8), CompilerConfig())
            assert len(calls) == 1
        finally:
            set_default_verify(True)  # conftest default for the suite

    def test_gate_raises_on_violation(self):
        # Feed the verifier a program the pipeline never instrumented by
        # bypassing compilation: the gate must raise, with the report
        # attached for the caller to print.
        from repro.verify import verify_program, VerifyConfig

        report = verify_program(
            saxpy_program(n=8), plans=None, cfg=VerifyConfig(threshold=4)
        )
        assert not report.ok
        exc = VerificationError(report)
        assert exc.report is report
        assert "R3" in str(exc) or "R4" in str(exc)


class TestRandprogProperty:
    def test_randprog_seeds_compile_verifier_clean(self):
        """Every randprog seed must compile to a verifier-clean program.

        On failure, shrink the first failing seed to its smallest
        segment count and fail with that minimal reproducer.
        """
        first_failure = None
        for seed in PROPERTY_SEEDS:
            compiled = compile_program(
                random_program(seed=seed), CompilerConfig(), verify=False
            )
            report = verify_compiled(compiled)
            if report.errors():
                first_failure = (seed, report)
                break
        if first_failure is None:
            return
        seed, report = first_failure
        shrunk = "no smaller reproducer"
        for segments in range(1, 6):
            small = compile_program(
                random_program(seed=seed, segments=segments),
                CompilerConfig(),
                verify=False,
            )
            small_report = verify_compiled(small)
            if small_report.errors():
                shrunk = "segments=%d reproduces:\n%s" % (
                    segments, small_report.format(limit=5)
                )
                report = small_report
                break
        pytest.fail(
            "randprog seed %d fails verification (%s)\n%s"
            % (seed, shrunk, report.format(limit=5))
        )


class TestMutationSelfValidation:
    def test_every_rule_catches_its_seeded_violation(self):
        outcomes = self_validate()
        assert set(outcomes) == set(RULES)
        for rule, outcome in sorted(outcomes.items()):
            assert outcome.caught, (
                "%s went blind: seeded %r, fired %r"
                % (rule, outcome.seeded_at, outcome.fired_rules)
            )
            assert outcome.with_witness, (
                "%s fired without a concrete witness path (seeded %r)"
                % (rule, outcome.seeded_at)
            )

    def test_catalog_covers_all_rules(self):
        assert set(mutation_catalog()) == set(RULES)

    def test_single_rule_selection(self):
        outcomes = self_validate(rules=("R2",))
        assert list(outcomes) == ["R2"]
        assert outcomes["R2"].ok
