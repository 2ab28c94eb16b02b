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
        """Record the storing thread's region at every store inside the
        critical section; for the shared counter's address, region IDs
        must be strictly increasing in commit order across ALL threads —
        the §IV-C happens-before property.  Under ``run()`` and under
        ``step()`` alike."""
        recorded = []
        for drive in ("run", "step"):
            prog, machine = machine_for(n_threads=3, increments=3)
            shared_word = prog.base_of("shared")
            cs_regions = []
            write = machine.volatile.write

            # every store writes volatile memory while its thread's
            # current region is the one it persists under, whichever
            # path (per-event admission or a bulk-settled batch) later
            # moves it to PM
            def spy_write(addr, value):
                if addr == shared_word:
                    cs_regions.append(
                        machine.allocator.region_of(machine._stepping_tid)
                    )
                write(addr, value)

            machine.volatile.write = spy_write
            if drive == "run":
                machine.run()
            else:
                while machine.step() is not None:
                    pass
            assert cs_regions == sorted(cs_regions)
            assert len(cs_regions) == 9
            recorded.append(cs_regions)
        assert recorded[0] == recorded[1]

    def test_sync_refresh_allocates_fresh_ids(self):
        prog, machine = machine_for(n_threads=2, increments=2)
        machine.run()
        # every lock acquire + atomic + fence burned an extra ID beyond the
        # compiler boundaries
        assert machine.allocator.allocated > machine.stats.boundaries
