"""The backend registry, aliases, and single-definition invariants."""

import pytest

from repro import sim
from repro.analysis import experiments
from repro.faults.model import FAULT_CLASSES
from repro.runtime import (
    BACKENDS,
    LIGHTWSP,
    PersistBackend,
    SchemePolicy,
    get_backend,
)
from repro.runtime import backends as B
from repro.sim import engine as sim_engine

EXPECTED = {
    "lightwsp-lrpo", "cwsp-eager", "capri", "ppa", "psp", "memory-mode",
}


def test_registry_contents():
    assert set(BACKENDS) == EXPECTED
    for name, backend in BACKENDS.items():
        assert backend.name == name
        assert isinstance(backend, PersistBackend)
        assert isinstance(backend.policy, SchemePolicy)


def test_get_backend_resolution():
    assert get_backend(None) is BACKENDS["lightwsp-lrpo"]
    assert get_backend("lightwsp-lrpo") is BACKENDS["lightwsp-lrpo"]
    # legacy scheme-policy names resolve through the alias table
    assert get_backend("LightWSP") is BACKENDS["lightwsp-lrpo"]
    assert get_backend("cWSP") is BACKENDS["cwsp-eager"]
    assert get_backend("Capri") is BACKENDS["capri"]
    assert get_backend("PSP-Ideal") is BACKENDS["psp"]
    # case-insensitive fallback
    assert get_backend("CWSP-EAGER") is BACKENDS["cwsp-eager"]
    # instances pass through untouched
    assert get_backend(BACKENDS["ppa"]) is BACKENDS["ppa"]
    with pytest.raises(KeyError):
        get_backend("no-such-scheme")


def test_exactly_one_lrpo_policy_definition():
    """The experiment drivers and the timing engine both consume the
    runtime layer's definitions — no parallel copies survive."""
    assert experiments.LIGHTWSP is LIGHTWSP
    assert sim_engine.SchemePolicy is SchemePolicy
    assert BACKENDS["lightwsp-lrpo"].policy is LIGHTWSP


def test_schemes_have_one_import_path():
    """The sim plane no longer re-exports the policy type, and the
    experiment drivers replay the registered policies themselves."""
    assert "SchemePolicy" not in sim_engine.__all__
    assert "SchemePolicy" not in sim.__all__
    for name in ("CWSP", "CAPRI", "PPA", "PSP_IDEAL", "MEMORY_MODE"):
        assert getattr(experiments, name) is getattr(B, name)


def test_fault_classes_are_known_and_consistent():
    for backend in BACKENDS.values():
        assert set(backend.fault_classes) <= set(FAULT_CLASSES)
        if not backend.recovers:
            # a backend that loses data by design has nothing for the
            # differential campaign to check
            assert backend.fault_classes == ()
    # only the full gated protocol exposes the message-layer surfaces
    assert set(BACKENDS["lightwsp-lrpo"].fault_classes) == set(FAULT_CLASSES)
    assert BACKENDS["lightwsp-lrpo"].validates_defenses
    assert not BACKENDS["cwsp-eager"].validates_defenses


def test_gating_matches_runtime_class():
    assert BACKENDS["lightwsp-lrpo"].gated
    for name in EXPECTED - {"lightwsp-lrpo"}:
        assert not BACKENDS[name].gated


def test_engine_accepts_backend_objects():
    """simulate()/TimingEngine unwrap a PersistBackend to its policy."""
    from repro.compiler import compile_program
    from repro.config import DEFAULT_CONFIG
    from repro.sim.engine import simulate
    from repro.workloads import BENCHMARKS

    compiled = compile_program(
        BENCHMARKS["bzip2"].build(scale=0.01), DEFAULT_CONFIG.compiler
    )
    events = experiments.trace_of(compiled.program)
    backend = BACKENDS["cwsp-eager"]
    via_backend = simulate(events, DEFAULT_CONFIG, backend)
    via_policy = simulate(events, DEFAULT_CONFIG, backend.policy)
    assert via_backend.cycles == via_policy.cycles
    assert via_backend.persist_entries == via_policy.persist_entries
