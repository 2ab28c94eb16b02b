"""Tests for the baseline scheme policies: the knob settings ARE the
model, so they are pinned here against the paper's descriptions."""

from repro.runtime import (
    BACKENDS,
    CAPRI,
    CWSP,
    LIGHTWSP,
    MEMORY_MODE,
    PPA,
    PSP_IDEAL,
)


class TestPolicyKnobs:
    def test_registry_complete(self):
        assert {b.policy.name for b in BACKENDS.values()} == {
            "LightWSP",
            "memory-mode",
            "Capri",
            "PPA",
            "cWSP",
            "PSP-Ideal",
        }

    def test_memory_mode_is_plain(self):
        assert not MEMORY_MODE.persists
        assert MEMORY_MODE.uses_dram_cache

    def test_psp_ideal_loses_dram_cache_only(self):
        assert not PSP_IDEAL.persists
        assert not PSP_IDEAL.uses_dram_cache

    def test_capri_is_cacheline_granular(self):
        assert CAPRI.entry_factor == 8
        assert CAPRI.boundary_wait
        assert CAPRI.wait_for == "flush"
        assert CAPRI.implicit_region_stores is not None

    def test_ppa_waits_for_durability_not_flush(self):
        assert PPA.boundary_wait
        assert PPA.wait_for == "arrival"
        assert not PPA.gated
        assert PPA.entry_factor == 1

    def test_cwsp_speculates_with_undo_cost(self):
        assert not CWSP.boundary_wait
        assert not CWSP.gated
        assert CWSP.drain_factor > 1.0
        assert CWSP.region_comm_cycles > 0.0

    def test_lightwsp_is_gated_and_waitless(self):
        assert LIGHTWSP.gated
        assert not LIGHTWSP.boundary_wait
        assert LIGHTWSP.entry_factor == 1
        assert LIGHTWSP.drain_factor == 1.0
        assert LIGHTWSP.implicit_region_stores is None  # compiler regions

    def test_only_lightwsp_uses_compiler_regions(self):
        for policy in (CAPRI, PPA, CWSP):
            assert policy.implicit_region_stores is not None
