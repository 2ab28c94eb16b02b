"""Machine scheduling behaviour: quanta, seeds, and the §IV-C region-ID
ordering across synchronization."""


from helpers import locking_program

from repro.compiler import compile_program
from repro.config import CompilerConfig
from repro.core.machine import PersistentMachine


def machine_for(n_threads=2, increments=4, **kwargs):
    prog = locking_program(n_threads=n_threads, increments=increments)
    compiled = compile_program(prog, CompilerConfig(store_threshold=8))
    entries = [("worker", (t,)) for t in range(n_threads)]
    return prog, PersistentMachine(compiled, entries=entries, **kwargs)


class TestScheduling:
    def test_quantum_changes_interleaving_not_result(self):
        results = set()
        for quantum in (1, 4, 16, 64):
            prog, machine = machine_for(quantum=quantum)
            machine.run()
            results.add(machine.pm_data()[prog.base_of("shared")])
        assert results == {8}

    def test_schedule_seed_changes_interleaving_not_result(self):
        results = set()
        for seed in range(5):
            prog, machine = machine_for(schedule_seed=seed)
            machine.run()
            results.add(machine.pm_data()[prog.base_of("shared")])
        assert results == {8}

    def test_steps_counted_across_threads(self):
        prog, machine = machine_for()
        machine.run()
        assert machine.stats.steps == sum(vm.steps for vm in machine.vms)


class TestRegionIdOrdering:
    def test_critical_section_ids_respect_lock_order(self):
        """Record (tid, region) at every store inside the critical
        section; for the shared counter's address, region IDs must be
        strictly increasing in commit order across ALL threads — the
        §IV-C happens-before property."""
        prog, machine = machine_for(n_threads=3, increments=3)
        shared_word = prog.base_of("shared")

        cs_regions = []
        persist = machine.persist
        admit, admit_many = persist.admit, persist.admit_many

        # every store reaches the runtime through exactly one of these,
        # tagged with its region (admit_many never calls admit)
        def spy_admit(region, word, value):
            if word == shared_word:
                cs_regions.append(region)
            return admit(region, word, value)

        def spy_admit_many(region, stores):
            cs_regions.extend(
                region for word, _ in stores if word == shared_word
            )
            return admit_many(region, stores)

        persist.admit = spy_admit
        persist.admit_many = spy_admit_many
        machine.run()
        assert cs_regions == sorted(cs_regions)
        assert len(cs_regions) == 9

    def test_sync_refresh_allocates_fresh_ids(self):
        prog, machine = machine_for(n_threads=2, increments=2)
        machine.run()
        # every lock acquire + atomic + fence burned an extra ID beyond the
        # compiler boundaries
        assert machine.allocator.allocated > machine.stats.boundaries
