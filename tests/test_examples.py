"""Smoke tests for the example programs' building blocks (the full
example mains run minutes of crash sweeps; CI checks their kernels)."""

import glob
import importlib.util
import os

import pytest


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")


def load(name):
    path = os.path.join(EXAMPLES, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(
    os.path.basename(path)[:-3]
    for path in glob.glob(os.path.join(EXAMPLES, "*.py"))
))
def test_example_imports(name):
    """Every example imports against the current API (its guarded
    ``main()`` does not run)."""
    assert callable(load(name).main)


class TestExampleKernels:
    def test_quickstart_program_runs(self):
        from repro.compiler import run_single

        qs = load("quickstart")
        prog = qs.build_program()
        events, mem = run_single(prog, max_steps=10_000_000)
        y = prog.base_of("y")
        assert mem.read(y + 2) == 30  # 3 * (5*2)

    def test_ledger_conserves_money(self):
        from repro.compiler import run_single

        cr = load("crash_recovery")
        prog = cr.build_ledger()
        _, mem = run_single(prog)
        accounts = prog.base_of("accounts")
        total = sum(mem.read(accounts + i) for i in range(cr.N_ACCOUNTS))
        assert total == cr.N_ACCOUNTS * cr.INITIAL_BALANCE

    def test_kvstore_lookup_roundtrip(self):
        from repro.compiler import run_single

        kv = load("persistent_kvstore")
        prog = kv.build_kvstore()
        _, mem = run_single(prog)
        image = {a: v for a, v in mem.words.items() if v != 0}
        for op in range(kv.N_OPS):
            key = op % (kv.CAPACITY // 2) + 1
        # last write wins for the final key
        assert kv.lookup(image, prog, key) == (kv.N_OPS - 1) * 3 + 1

    def test_fuzz_one_program(self):
        import random

        fz = load("fuzz_crash_consistency")
        assert fz.fuzz_one(12345, random.Random(0))

    def test_counter_lir_parses(self):
        from repro.compiler.textir import parse_program
        from repro.compiler import run_single

        with open(os.path.join(EXAMPLES, "counter.lir")) as fh:
            prog = parse_program(fh.read())
        _, mem = run_single(prog)
        counters = prog.base_of("counters")
        assert sum(mem.read(counters + i) for i in range(16)) == 48
