"""Tests for irrevocable I/O operations (§IV-A "I/O Functions")."""

import pytest

from helpers import io_program

from repro.compiler import Op, compile_program, run_single
from repro.config import CompilerConfig
from repro.core.machine import PersistentMachine


class TestCompilerIO:
    def test_io_bracketed_by_boundaries(self):
        compiled = compile_program(io_program())
        for func in compiled.program.functions.values():
            for block in func.blocks.values():
                for i, instr in enumerate(block.instrs):
                    if instr.op == Op.IO:
                        # the IO's region ends immediately: only its
                        # checkpoint stores may sit between the IO and
                        # the trailing boundary
                        rest = block.instrs[i + 1 :]
                        for follower in rest:
                            if follower.op == Op.CHECKPOINT:
                                continue
                            assert follower.op == Op.BOUNDARY
                            break
                        else:
                            pytest.fail("no boundary after IO")

    def test_io_events_in_trace(self):
        compiled = compile_program(io_program())
        events, _ = run_single(compiled.program)
        io_events = [e for e in events if e.kind == "io"]
        assert len(io_events) == 2
        assert io_events[0].lock_id == 1

    def test_vm_io_log_records_payload(self):
        events, _ = run_single(io_program())
        ios = [(e.lock_id, e.payload) for e in events if e.kind == "io"]
        assert ios == [(1, 7), (2, 0)]


class TestMachineIO:
    def test_durable_log_on_clean_run(self):
        compiled = compile_program(io_program())
        machine = PersistentMachine(compiled)
        machine.run()
        devices = [entry[1] for entry in machine.io_log]
        assert devices == [1, 2]

    def test_interrupted_io_region_replays(self):
        compiled = compile_program(io_program())
        machine = PersistentMachine(compiled)
        # run until the first IO happened, crash before its region commits
        while not machine.io_log:
            machine.step()
        report = machine.crash()
        # the IO's region had not committed: dropped from the durable log
        assert report["io_replayed"] >= 0
        machine.run()
        devices = [entry[1] for entry in machine.io_log]
        # at-least-once: device 1 completes (possibly after a replay)
        assert devices.count(1) >= 1
        assert devices.count(2) >= 1

    def test_crash_consistency_with_io(self):
        compiled = compile_program(io_program(), CompilerConfig(store_threshold=4))
        from repro.core.failure import crash_sweep

        assert crash_sweep(compiled, stride=1) == []

    def test_engine_charges_io_latency(self):
        from repro.analysis.experiments import trace_of
        from repro.runtime import LIGHTWSP
        from repro.sim.engine import IO_OP_CYCLES, simulate
        from repro.config import SystemConfig

        compiled = compile_program(io_program())
        events = trace_of(compiled.program)
        res = simulate(events, SystemConfig(), LIGHTWSP)
        assert res.cycles > 2 * IO_OP_CYCLES
