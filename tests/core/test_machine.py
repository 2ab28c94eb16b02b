"""Tests for the functional persistence machine: WPQ gating semantics,
commit ordering, and basic crash/recovery behaviour."""


import pytest

from helpers import (
    DATA_BASE, call_program, locking_program, saxpy_program, data_words,
)

from repro.compiler import FunctionBuilder, Program, compile_program, run_single
from repro.config import CompilerConfig, SystemConfig
from repro.core.machine import PMLayer, PersistentMachine
from repro.faults.defenses import ALL_ON, DEFENSE_OFF_MODES
from repro.faults.machine import FaultyMachine


def compiled_saxpy(n=32, threshold=8):
    return compile_program(saxpy_program(n=n), CompilerConfig(store_threshold=threshold))


class TestExecution:
    def test_runs_to_completion_and_matches_reference(self):
        compiled = compiled_saxpy()
        reference = data_words(run_single(compiled.program)[1])
        machine = PersistentMachine(compiled)
        assert machine.run()
        assert machine.pm_data() == reference

    def test_volatile_image_leads_pm_image(self):
        compiled = compiled_saxpy()
        machine = PersistentMachine(compiled)
        machine.run(steps=40)
        # Volatile memory sees every store; PM only committed regions.
        volatile_data = {
            w: v for w, v in machine.volatile.words.items() if v != 0
        }
        for word, value in machine.pm_data().items():
            assert volatile_data.get(word) == value

    def test_uncommitted_stores_quarantined(self):
        compiled = compiled_saxpy()
        machine = PersistentMachine(compiled)
        # step until at least one store happened but the region is open
        while machine.stats.stores == 0:
            machine.step()
        occupancy = sum(machine.wpq_occupancy())
        assert occupancy + len(machine.pm) >= machine.stats.stores

    def test_commits_follow_boundaries(self):
        compiled = compiled_saxpy()
        machine = PersistentMachine(compiled)
        machine.run()
        assert machine.stats.commits >= machine.stats.boundaries

    def test_multithreaded_result_correct(self):
        prog = locking_program(n_threads=2, increments=8)
        compiled = compile_program(prog, CompilerConfig(store_threshold=8))
        machine = PersistentMachine(
            compiled, entries=[("worker", (t,)) for t in range(2)]
        )
        assert machine.run()
        shared = prog.base_of("shared")
        assert machine.pm_data()[shared] == 16


class TestCrashRecovery:
    def test_crash_at_every_point_recovers_saxpy(self):
        compiled = compiled_saxpy(n=8, threshold=4)
        reference = data_words(run_single(compiled.program)[1])
        probe = PersistentMachine(compiled)
        probe.run()
        total = probe.stats.steps
        for point in range(1, total + 1, 7):
            machine = PersistentMachine(compiled)
            finished = machine.run(steps=point)
            if not finished:
                machine.crash()
                machine.run()
            assert machine.pm_data() == reference, "diverged at crash %d" % point

    def test_crash_with_calls_recovers(self):
        compiled = compile_program(call_program(), CompilerConfig(store_threshold=4))
        reference = data_words(run_single(compiled.program)[1])
        probe = PersistentMachine(compiled)
        probe.run()
        for point in range(1, probe.stats.steps + 1, 3):
            machine = PersistentMachine(compiled)
            if not machine.run(steps=point):
                machine.crash()
                machine.run()
            assert machine.pm_data() == reference, point

    def test_double_crash_recovers(self):
        compiled = compiled_saxpy(n=8, threshold=4)
        reference = data_words(run_single(compiled.program)[1])
        machine = PersistentMachine(compiled)
        if not machine.run(steps=30):
            machine.crash()
        if not machine.run(steps=50):
            machine.crash()
        machine.run()
        assert machine.pm_data() == reference

    def test_crash_report_fields(self):
        compiled = compiled_saxpy()
        machine = PersistentMachine(compiled)
        machine.run(steps=60)
        report = machine.crash()
        assert set(report) == {"flushed", "discarded", "undone", "io_replayed"}
        assert machine.stats.crashes == 1

    def test_pm_consistent_immediately_after_crash(self):
        """After recovery, PM must be a prefix-consistent image: every
        value in PM must equal the reference run's value at some region
        boundary — we check the weaker invariant that PM never holds a
        value the failure-free volatile execution never produced."""
        compiled = compiled_saxpy(n=8, threshold=4)
        machine = PersistentMachine(compiled)
        machine.run(steps=45)
        machine.crash()
        # all WPQs must be empty after recovery
        assert sum(machine.wpq_occupancy()) == 0

    def test_multithreaded_crash_recovers(self):
        prog = locking_program(n_threads=2, increments=5)
        compiled = compile_program(prog, CompilerConfig(store_threshold=8))

        def run_with_crash(point):
            machine = PersistentMachine(
                compiled, entries=[("worker", (t,)) for t in range(2)]
            )
            if not machine.run(steps=point):
                machine.crash()
            machine.run()
            return machine

        reference = PersistentMachine(
            compiled, entries=[("worker", (t,)) for t in range(2)]
        )
        reference.run()
        shared = prog.base_of("shared")
        assert reference.pm_data()[shared] == 10
        for point in range(5, reference.stats.steps, 11):
            machine = run_with_crash(point)
            assert machine.pm_data()[shared] == 10, point


class TestWPQOverflowFallback:
    def test_overflow_resolved_with_undo_log(self):
        # Tiny WPQ forces the §IV-D fallback.
        from dataclasses import replace

        config = SystemConfig()
        config = replace(config, mc=replace(config.mc, wpq_entries=4))
        compiled = compile_program(
            saxpy_program(n=16), CompilerConfig(store_threshold=8)
        )
        reference = data_words(run_single(compiled.program)[1])
        machine = PersistentMachine(compiled, config=config)
        assert machine.run()
        assert machine.stats.overflow_events > 0
        assert machine.pm_data() == reference

    def test_crash_after_overflow_rolls_back(self):
        from dataclasses import replace

        config = SystemConfig()
        config = replace(config, mc=replace(config.mc, wpq_entries=4))
        compiled = compile_program(
            saxpy_program(n=16), CompilerConfig(store_threshold=8)
        )
        reference = data_words(run_single(compiled.program)[1])
        probe = PersistentMachine(compiled, config=config)
        probe.run()
        for point in range(1, probe.stats.steps, 13):
            machine = PersistentMachine(compiled, config=config)
            if not machine.run(steps=point):
                machine.crash()
                machine.run()
            assert machine.pm_data() == reference, point


def double_store_program():
    """``main`` stores 1 and then 2 to one word, in one region."""
    prog = Program("double_store")
    a = prog.array("a", 8)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 1)
    fb.store("r1", 0, base=a)
    fb.const("r1", 2)
    fb.store("r1", 0, base=a)
    fb.ret()
    fb.build()
    return compile_program(prog), a


def split_store_program():
    """``main`` stores 1 and then 2 to one word in one region, calls an
    empty leaf (whose boundaries end that region) and runs eight ALU
    instructions before it returns."""
    prog = Program("split_store")
    a = prog.array("a", 8)
    leaf = FunctionBuilder(prog, "leaf")
    leaf.block("entry")
    leaf.ret()
    leaf.build()
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 1)
    fb.store("r1", 0, base=a)
    fb.const("r1", 2)
    fb.store("r1", 0, base=a)
    fb.call("leaf")
    for _ in range(8):
        fb.add("r2", "r2", 1)
    fb.ret()
    fb.build()
    return compile_program(prog), a


class TestPMLayer:
    """A machine whose PM is a layer over a base image (the store-node
    executor's set-up) runs exactly like one whose PM is a copy of that
    image, and never writes the base."""

    def test_reads_through_and_writes_over(self):
        base = {1: 10, 2: 20}
        pm = PMLayer(base)
        pm[2] = 21
        pm.update([(3, 30)])
        assert [pm.get(w, 0) for w in (1, 2, 3, 4)] == [10, 21, 30, 0]
        assert dict(pm) == {2: 21, 3: 30}
        assert base == {1: 10, 2: 20}

    def saxpy_over(self, n=32):
        """saxpy, whose ``y`` comes only from the base image."""
        compiled = compiled_saxpy(n=n)
        y = compiled.program.base_of("y")
        return compiled, y, {y + i: 100 + i for i in range(n)}

    @pytest.mark.parametrize("cls", [PersistentMachine, FaultyMachine])
    @pytest.mark.parametrize("crash_at", [None, 150, 300])
    def test_runs_like_a_copy_of_its_base(self, cls, crash_at):
        compiled, y, base = self.saxpy_over()
        layered = cls(compiled)
        layered.pm = PMLayer(base)
        copied = cls(compiled)
        copied.pm = dict(base)
        for machine in (layered, copied):
            if crash_at is not None:
                machine.run(steps=crash_at)
                machine.crash()
            assert machine.run()
            if cls is FaultyMachine:
                machine.finish_messages()  # the last flush-ACK lands
        merged = dict(base)
        merged.update(layered.pm)
        assert merged == copied.pm
        assert [copied.pm[y + i] for i in range(32)] == [
            3 * 7 * i + 100 + i for i in range(32)
        ]
        assert base == self.saxpy_over()[2]

    def test_clone_keeps_the_base(self):
        compiled, _, base = self.saxpy_over()
        machine = PersistentMachine(compiled)
        machine.pm = PMLayer(base)
        machine.run(steps=200)
        fork = machine.clone()
        assert type(fork.pm) is PMLayer and fork.pm.base is base
        assert fork.pm == machine.pm and fork.pm is not machine.pm
        assert machine.run() and fork.run()
        assert fork.pm == machine.pm


class TestLastStoreWins:
    """A region's stores reach PM in arrival order, so a word it stores
    twice ends at the later value, whichever path moves the region."""

    def test_step(self):
        compiled, word = double_store_program()
        machine = PersistentMachine(compiled)
        while machine.step() is not None:
            pass
        assert machine.pm[word] == 2

    def test_run(self):
        compiled, word = double_store_program()
        machine = PersistentMachine(compiled)
        assert machine.run()
        assert machine.pm[word] == 2

    def test_battery_drain(self):
        compiled, word = double_store_program()
        machine = FaultyMachine(compiled)
        assert machine.run()
        # the exit boundary's flush-ACK is still in flight at the halt
        assert word not in machine.pm
        report = machine.crash()
        assert report["flushed"] >= 1
        assert machine.pm[word] == 2

    @pytest.mark.parametrize("cls", [PersistentMachine, FaultyMachine])
    def test_split_batch(self, cls):
        # the first store's batch ends mid-region, so it waits in a WPQ;
        # the second store's batch ends the region and commits it (a
        # dozen steps pass after the boundary, past the flush-ACK), so
        # the queued run and the batch's own slice reach PM together
        compiled, word = split_store_program()
        probe = cls(compiled)
        while probe.volatile.words.get(word) != 1:
            probe.step()
        machine = cls(compiled)
        machine.stats.commit_steps = []
        machine.run(steps=probe.stats.steps)
        region = machine.allocator.region_of(0)
        assert sum(machine.wpq_occupancy()) > 0
        assert word not in machine.pm
        assert machine.run()
        # committed before the halt, so inside the second batch
        assert dict(machine.stats.commit_steps)[region] < machine.stats.steps
        assert machine.pm[word] == 2


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (PersistentMachine, {}),
        (FaultyMachine, {"defenses": ALL_ON}),
        (FaultyMachine, {"defenses": DEFENSE_OFF_MODES["no_undo"]}),
    ],
    ids=["base", "faulty", "no_undo"],
)
class TestOverflowVictim:
    """§IV-D: a store that finds its WPQ full flushes one region present
    there to PM (the flush-ID region if present, else the oldest), logs
    the pre-images unless the undo-logging defense is off, and is then
    admitted."""

    def overflow(self, cls, kwargs, flush_id, stores):
        """Fill MC 0's 4-entry WPQ with ``stores`` (region, word index,
        value) over durable 5s, then admit one more store, region 9's."""
        compiled, _ = double_store_program()
        machine = cls(
            compiled, config=SystemConfig().with_wpq_entries(4), **kwargs
        )
        machine.persist.committed_upto = flush_id
        words = [
            w for w in range(DATA_BASE, DATA_BASE + 64)
            if machine._mc_of_word(w) == 0
        ]
        for word in words:
            machine.pm[word] = 5
        for region, i, value in stores:
            machine.persist.admit(region, words[i], value)
        machine.persist.admit(9, words[4], 90)
        assert machine.stats.overflow_events == 1
        return machine, words

    def check_victim(self, machine, kwargs, victim, flushed):
        """The victim's two stores, and only they, left ``flushed``
        (word -> value) in PM; region 9's store took their place."""
        assert {w: v for w, v in machine.pm.items() if v != 5} == flushed
        assert machine.wpq_occupancy() == [3, 0]
        if kwargs.get("defenses", ALL_ON).undo_logging:
            assert machine.persist.undo_log == {
                victim: dict.fromkeys(flushed, 5)
            }
            assert machine.stats.undo_writes == 2
        else:
            assert machine.persist.undo_log == {}
            assert machine.stats.undo_writes == 0

    def test_oldest_present_when_the_flush_id_region_is_absent(
        self, cls, kwargs
    ):
        # region 5 holds the flush ID but has no entries in this WPQ;
        # region 6 stores one word twice, so the later value must win
        machine, words = self.overflow(
            cls, kwargs, 5, [(7, 0, 70), (6, 1, 60), (8, 2, 80), (6, 1, 61)]
        )
        self.check_victim(machine, kwargs, 6, {words[1]: 61})

    def test_the_flush_id_region_when_present(self, cls, kwargs):
        # region 4 is older, but the flush ID has passed it (a straggler
        # that an MC never saw end)
        machine, words = self.overflow(
            cls, kwargs, 6, [(7, 0, 70), (6, 1, 60), (4, 2, 40), (6, 3, 61)]
        )
        self.check_victim(machine, kwargs, 6, {words[1]: 60, words[3]: 61})
