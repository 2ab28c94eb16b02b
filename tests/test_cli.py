"""Tests for the `python -m repro` CLI."""

import os

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "LightWSP" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "WHISPER" in out
        assert "fig7" in out

    def test_list_includes_store_mixes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "STORE" in out
        assert "ycsb-a" in out
        assert "store-crud" in out

    def test_run_benchmark(self, capsys):
        assert main(["run", "namd", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_run_unknown_benchmark(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_run_unknown_backend(self, capsys):
        assert main(["run", "namd", "--backend", "nope"]) == 2
        assert "unknown backend 'nope'" in capsys.readouterr().out

    def test_run_accepts_legacy_scheme_name(self, capsys):
        assert main(["run", "namd", "--backend", "capri", "--scale",
                     "0.02"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "namd", "--backend", "Capri", "--scale",
                     "0.02"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("namd under capri:")

    def test_list_shows_legacy_aliases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lightwsp-lrpo (LightWSP)" in out
        assert "schemes:" not in out

    def test_figure(self, capsys):
        assert main(
            ["figure", "fig9", "--scale", "0.02", "--benchmarks", "lbm"]
        ) == 0
        out = capsys.readouterr().out
        assert "PSP-Ideal" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_figure_unknown_benchmark(self, capsys):
        assert main(["figure", "fig7", "--benchmarks", "nope"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "unknown benchmarks: nope" in out

    def test_compile_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.lir")
        assert main(["compile", missing]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "cannot read %s" % missing in out

    def test_compile_lir(self, capsys):
        assert main(["compile", "examples/counter.lir", "--threshold", "8"]) == 0
        out = capsys.readouterr().out
        assert "boundary" in out
        assert "boundaries=" in out

    def test_crash_sweep(self, capsys):
        assert main(
            ["crash-sweep", "hmmer", "--scale", "0.005", "--stride", "37"]
        ) == 0
        out = capsys.readouterr().out
        assert "crash-consistent" in out

    def test_crash_sweep_unknown(self, capsys):
        assert main(["crash-sweep", "nope"]) == 2

    def test_crash_sweep_unknown_backend(self, capsys):
        assert main(["crash-sweep", "bzip2", "--backend", "nope"]) == 2
        assert "unknown backend 'nope'" in capsys.readouterr().out


class TestServeCLI:
    def test_serve_smoke(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "p50=" in out
        assert "acked-write oracle: PASS" in out

    def test_serve_smoke_deterministic(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_smoke_capri_matches_the_pin(self, capsys):
        # an eager-undo backend through the store-node executor: every
        # first-touch pre-image is read through PM, and the smoke's cut
        # rolls uncommitted regions back
        assert main(
            ["serve", "--smoke", "--seed", "7", "--backend", "capri"]
        ) == 0
        pin = os.path.join(
            os.path.dirname(__file__), "data", "serve-smoke-seed7-capri.txt"
        )
        with open(pin) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "nope"]) == 2

    def test_serve_unknown_backend(self, capsys):
        assert main(["serve", "--smoke", "--backend", "nope"]) == 2
        assert "unknown backend 'nope'" in capsys.readouterr().out

    def test_serve_crash_options(self, capsys):
        assert main([
            "serve", "--workload", "crud", "--ops", "60",
            "--keys", "16", "--batch", "16", "--shards", "2",
            "--seed", "3", "--crash-epoch", "1", "--crash-torn",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash" in out
        assert "acked-write oracle: PASS" in out

    @pytest.mark.parametrize("argv", [
        ["serve", "--shards", "0"],
        ["serve", "--batch", "0"],
        ["serve", "--keys", "0"],
        ["serve", "--ops", "-5"],
        ["serve", "--value-words", "0"],
        ["serve", "--smoke", "--crash-epoch", "-1"],
        ["cluster", "serve", "--shards", "0"],
        ["cluster", "serve", "--keyspace", "0"],
    ], ids=" ".join)
    def test_out_of_range_size_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument %s: must be at least" % argv[-2] in err
        assert "Traceback" not in err

    def test_faults_list_mentions_store_targets(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "store-ycsb-a" in out


class TestClusterCLI:
    def test_cluster_serve_smoke(self, capsys):
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "responses:" in out
        assert "zero acked-write loss" in out

    def test_cluster_serve_smoke_deterministic(self, capsys):
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_cluster_serve_rejects_lossy_backend(self, capsys):
        assert main([
            "cluster", "serve", "--smoke", "--backend", "psp",
        ]) == 2
        assert "not crash-consistent" in capsys.readouterr().out

    def test_cluster_campaign_and_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "cluster.jsonl")
        assert main([
            "faults", "campaign", "--workload", "cluster",
            "--backend", "lightwsp-lrpo", "--seed", "1",
            "--trace", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster campaign" in out
        assert "PASS" in out
        assert main(["faults", "replay", trace]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out


class TestVerifyCLI:
    def test_verify_single_benchmark(self, capsys):
        assert main(["verify", "bzip2"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out
        assert "0 failure(s)" in out

    def test_verify_store_program(self, capsys):
        assert main(["verify", "store-crud"]) == 0
        out = capsys.readouterr().out
        assert "store-crud" in out

    def test_verify_unknown_target(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_verify_missing_lir(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.lir")
        assert main(["verify", missing]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "cannot read %s" % missing in out

    def test_verify_self_test(self, capsys):
        assert main(["verify", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "self-test: PASS" in out
        for rule in ("R1", "R2", "R3", "R4", "R5"):
            assert rule in out

    def test_verify_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        assert main(["verify", "hmmer", "--json", str(path)]) == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["failed"] == 0
        assert payload["targets"]["hmmer"]["ok"] is True

    def test_verify_nonconverged_threshold_warns(self, capsys):
        assert main(["verify", "bzip2", "--threshold", "2"]) == 0
        out = capsys.readouterr().out
        assert "warning" in out

    def test_run_with_verify_gate(self, capsys):
        assert main(["run", "namd", "--scale", "0.02", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_failed_verification_refuses(self, capsys, monkeypatch):
        from repro import __main__ as cli
        from repro.verify import VerificationError, verify_compiled
        from repro.workloads import BENCHMARKS

        report = verify_compiled(cli.compile_program(
            BENCHMARKS["namd"].build(scale=0.02), verify=False
        ))

        def refuse(*args, **kwargs):
            raise VerificationError(report)

        monkeypatch.setattr(cli, "compile_program", refuse)
        assert main(["run", "namd", "--scale", "0.02", "--verify"]) == 1
        out = capsys.readouterr().out
        assert "static verification FAILED, refusing `repro run`" in out

    def test_serve_smoke_with_verify_gate(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "acked-write oracle: PASS" in out
