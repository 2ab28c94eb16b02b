"""The load-bearing invariant of the parallel layer: for every wired-in
hot path, ``jobs=N`` produces *exactly* what ``jobs=1`` produces — the
faults campaign down to the trace bytes, crash-sweep down to the point
list, compare down to the row dataclasses, replay down to the report."""

import pytest

from helpers import saxpy_program

from repro.compiler import compile_program
from repro.config import CompilerConfig
from repro.core.failure import crash_sweep
from repro.faults import replay_campaign, run_campaign
from repro.runtime import compare_backends
from repro.trace import read_trace

BENCH = ["bzip2"]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """One full campaign (defenses included) per jobs value."""
    root = tmp_path_factory.mktemp("parity")
    out = {}
    for jobs in (1, 2, 4):
        path = str(root / ("trace-j%d.jsonl" % jobs))
        result = run_campaign(
            seed=0, benchmarks=BENCH, trace_path=path, jobs=jobs
        )
        out[jobs] = (result, path)
    return out


class TestCampaignParity:
    def test_traces_byte_identical_across_jobs(self, traces):
        _, serial_path = traces[1]
        with open(serial_path, "rb") as fh:
            serial_bytes = fh.read()
        for jobs in (2, 4):
            _, path = traces[jobs]
            with open(path, "rb") as fh:
                assert fh.read() == serial_bytes, (
                    "campaign trace differs at jobs=%d" % jobs
                )

    def test_results_equal_across_jobs(self, traces):
        serial, _ = traces[1]
        for jobs in (2, 4):
            result, _ = traces[jobs]
            assert result.scenarios_run == serial.scenarios_run
            assert result.violations == serial.violations
            assert result.defense_results == serial.defense_results
            assert result.ok == serial.ok

    def test_campaign_actually_ran(self, traces):
        serial, _ = traces[1]
        assert serial.ok
        assert serial.scenarios_run >= 10

    def test_replay_parity(self, traces):
        _, path = traces[1]
        serial = replay_campaign(path, jobs=1)
        parallel = replay_campaign(path, jobs=3)
        assert parallel == serial
        assert serial["mismatches"] == []
        assert serial["checked"] >= 10

    def test_trace_records_the_sharding_contract(self, traces):
        from repro.faults.campaign import CAMPAIGN_SHARDING

        for jobs in (1, 2, 4):
            _, path = traces[jobs]
            start = read_trace(path)[0]
            assert start["sharding"] == CAMPAIGN_SHARDING


class TestCrashSweepParity:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_program(
            saxpy_program(n=8), CompilerConfig(store_threshold=4)
        )

    def test_default_probe_points(self, compiled):
        serial = crash_sweep(compiled, jobs=1)
        for jobs in (2, 4):
            assert crash_sweep(compiled, jobs=jobs) == serial

    def test_stride_probe_points(self, compiled):
        serial = crash_sweep(compiled, stride=3, jobs=1)
        for jobs in (2, 4):
            assert crash_sweep(compiled, stride=3, jobs=jobs) == serial


class TestCompareParity:
    def test_reports_equal(self):
        serial = compare_backends(smoke=True, jobs=1)
        parallel = compare_backends(smoke=True, jobs=3)
        assert parallel == serial
        assert serial.ok
