"""The engine's numpy trace precompute and its pure-Python fallback are
value-identical: the path only changes how fast the replay starts."""

import pytest

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program
from repro.config import DEFAULT_CONFIG
from repro.runtime import LIGHTWSP, MEMORY_MODE
from repro.sim import engine
from repro.workloads import BENCHMARKS

pytest.importorskip("numpy")


@pytest.fixture(scope="module", params=[("bzip2", 0.1), ("cg", 0.05)],
                ids=lambda p: p[0])
def events(request):
    name, scale = request.param
    bench = BENCHMARKS[name]
    compiled = compile_program(
        bench.build(scale=scale), DEFAULT_CONFIG.compiler
    )
    trace = trace_of(compiled.program, bench.entries())
    assert len(trace) >= 4096
    return trace


def _both_paths(monkeypatch, fn):
    """``fn()`` on the vector path, then on the pure-Python path."""
    monkeypatch.setattr(engine, "_VECTOR_MIN_EVENTS", 0)
    vector = fn()
    monkeypatch.setattr(engine, "_VECTOR_MIN_EVENTS", float("inf"))
    python = fn()
    return vector, python


def test_next_nontrivial_identical(events, monkeypatch):
    vector, python = _both_paths(
        monkeypatch, lambda: engine._next_nontrivial(events)
    )
    assert vector == python
    assert len(vector) == len(events) + 1


@pytest.mark.parametrize("policy", [LIGHTWSP, MEMORY_MODE],
                         ids=lambda p: p.name)
def test_sim_result_identical(events, policy, monkeypatch):
    vector, python = _both_paths(
        monkeypatch,
        lambda: engine.simulate(events, DEFAULT_CONFIG, policy),
    )
    assert vector == python
