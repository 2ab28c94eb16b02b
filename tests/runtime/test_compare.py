"""``repro compare``: the cross-backend table is complete and sound."""

import pytest

from repro.__main__ import main
from repro.analysis import ExperimentContext
from repro.runtime import BACKENDS, compare_backends, format_compare
from repro.trace import count_events


@pytest.fixture(scope="module")
def report():
    return compare_backends(smoke=True)


def test_smoke_covers_every_backend(report):
    assert [r.backend for r in report.rows] == sorted(BACKENDS)
    assert report.ok


def test_recovering_backends_recover_at_probe(report):
    for row in report.rows:
        if BACKENDS[row.backend].recovers:
            assert row.recovered, row.recovery


def test_timing_plane_is_scheme_sensitive(report):
    rows = {r.backend: r for r in report.rows}
    # memory-mode is the normalization baseline
    assert rows["memory-mode"].slowdown == pytest.approx(1.0)
    # persist traffic honors the policy's entry granularity (Capri
    # writes a 64 B line per 8 B store)
    assert rows["capri"].persist_bytes == 8 * rows["cwsp-eager"].persist_bytes
    # schemes that bypass the persist path generate no traffic
    assert rows["psp"].persist_entries == 0
    assert rows["memory-mode"].persist_entries == 0


def test_timing_plane_agrees_with_repro_run(report):
    # Fig. 7's rule: the baselines replay the uninstrumented binary and
    # only LightWSP the compiled one, so the compiler's stores are never
    # counted as another scheme's persist traffic
    ctx = ExperimentContext(scale=0.01, benchmarks=["bzip2"])
    for row in report.rows:
        slowdown, res = ctx.slowdown("bzip2", BACKENDS[row.backend].policy)
        assert (row.cycles, row.slowdown) == (res.cycles, slowdown), row.backend
    uninstrumented = count_events(ctx.baseline_trace("bzip2")).persist_entries
    assert uninstrumented == 90
    rows = {r.backend: r for r in report.rows}
    for name in ("capri", "ppa", "cwsp-eager"):
        assert rows[name].persist_entries == uninstrumented, name


def test_format_is_one_line_per_backend(report):
    text = format_compare(report)
    for name in BACKENDS:
        assert any(line.startswith(name) for line in text.splitlines())


def test_rejects_multithreaded_benchmarks():
    with pytest.raises(ValueError, match="single-threaded"):
        compare_backends(benchmark="intruder", smoke=True)


@pytest.mark.parametrize("name", ["nope", "intruder"])
def test_cli_bad_benchmark_exits_two(name, capsys):
    assert main(["compare", name, "--smoke"]) == 2
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and name in out
