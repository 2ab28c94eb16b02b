"""Determinism: identical inputs must give bit-identical results — the
property that makes regression debugging and the trace cache sound."""

import pytest

from helpers import locking_program, saxpy_program

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program, run_single, run_threads
from repro.config import SystemConfig
from repro.core.machine import PersistentMachine
from repro.runtime import CAPRI, LIGHTWSP, MEMORY_MODE, PPA
from repro.sim.engine import simulate


class TestEngineDeterminism:
    def test_same_trace_same_cycles(self):
        config = SystemConfig()
        events, _ = run_single(saxpy_program(n=256))
        a = simulate(events, config, MEMORY_MODE)
        b = simulate(events, config, MEMORY_MODE)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions

    @pytest.mark.parametrize("policy", [LIGHTWSP, PPA, CAPRI])
    def test_deterministic_per_policy(self, policy):
        config = SystemConfig()
        compiled = compile_program(saxpy_program(n=256), config.compiler)
        events = trace_of(compiled.program)
        runs = [simulate(events, config, policy) for _ in range(2)]
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].fe_stall == runs[1].fe_stall
        assert runs[0].persist_entries == runs[1].persist_entries

    def test_multithreaded_deterministic(self):
        config = SystemConfig()
        prog = locking_program(n_threads=4, increments=20)
        compiled = compile_program(prog, config.compiler)
        events, _ = run_threads(
            compiled.program, [("worker", (t,)) for t in range(4)]
        )
        a = simulate(events, config, LIGHTWSP)
        b = simulate(events, config, LIGHTWSP)
        assert a.cycles == b.cycles
        assert a.lock_stall == b.lock_stall


class TestTraceDeterminism:
    def test_interpreter_is_deterministic(self):
        prog = saxpy_program(n=64)
        a, _ = run_single(prog)
        b, _ = run_single(prog)
        assert a == b

    def test_scheduler_is_deterministic(self):
        prog = locking_program(n_threads=3, increments=5)
        entries = [("worker", (t,)) for t in range(3)]
        a, _ = run_threads(prog, entries, schedule_seed=2)
        b, _ = run_threads(prog, entries, schedule_seed=2)
        assert a == b

    def test_compile_is_deterministic_modulo_uids(self):
        from repro.compiler.textir import print_program
        from repro.config import CompilerConfig

        prog = saxpy_program(n=64)
        a = compile_program(prog, CompilerConfig(store_threshold=8))
        b = compile_program(prog, CompilerConfig(store_threshold=8))
        assert print_program(a.program) == print_program(b.program)


class TestMachineDeterminism:
    def test_machine_replays_identically(self):
        from repro.config import CompilerConfig

        compiled = compile_program(
            saxpy_program(n=32), CompilerConfig(store_threshold=8)
        )
        a = PersistentMachine(compiled)
        a.run(steps=100)
        a.crash()
        a.run()
        b = PersistentMachine(compiled)
        b.run(steps=100)
        b.crash()
        b.run()
        assert a.pm_data() == b.pm_data()
        assert a.stats.steps == b.stats.steps
