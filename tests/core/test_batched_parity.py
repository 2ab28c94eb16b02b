"""Byte-for-bit parity of the batched execution core.

The batching loop (``PersistentMachine.run`` driving ``ThreadVM.run_fast``
for any thread count) keeps a batch open across BOUNDARY and IO and
settles it once: stores, boundary broadcasts and flush-ACK commits in
step order.  It must be observationally identical to the classic
per-instruction ``step()`` loop, the reference it is checked against —
same final PM and volatile images, I/O log, stats
(including the high-water WPQ occupancy and the opt-in commit/IO step
hooks), each WPQ's contents, the undo log and broadcast set, the eager
runtimes' pending and committed regions and memory-mode's dirty set,
thread positions, register files and boundary histories, region
allocator, and on the fault machine the ACK schedule, per-MC seen sets,
queued redeliveries, broadcast count and fault counters.  The sweeps pin
this across ≥50 random programs, quanta {1, 3, default}, gated and eager
backends, the tiny-WPQ overflow path, armed message faults and a downed
MC, every defense-off mode, torn and nested cuts, and every two-run split
of short programs, with one thread and with several; a long
single-thread loop pins the batch cap.  A clean batch settles in bulk
and every other batch event by event; ``TestSettlePath`` pins which
path each case takes.  A bounded differential fuzz runs random
configurations through both paths, and ``TestSeenSets`` checks that the
per-MC seen sets drop each region at its commit.
"""

import random
from dataclasses import replace
from functools import partial

import pytest

from helpers import resume_points
from repro.compiler import FunctionBuilder, Program
from repro.compiler.pipeline import compile_program
from repro.config import DEFAULT_CONFIG
from repro.core.machine import BATCH_STEPS, PersistentMachine
from repro.errors import DeadlockError, MachineLimitError
from repro.faults.defenses import DEFENSE_OFF_MODES
from repro.faults.machine import FaultyMachine
from repro.faults.model import MSG_OPS, NESTED_POINTS, FaultEvent
from repro.workloads.randprog import random_mt_program, random_program

TINY_WPQ = replace(
    DEFAULT_CONFIG, mc=replace(DEFAULT_CONFIG.mc, wpq_entries=4)
)


def run_classic(machine, steps=None):
    """The pre-batching run loop, verbatim: one ``step()`` per retired
    instruction.  The reference semantics the batched path must match."""
    budget = steps if steps is not None else machine.max_steps
    for _ in range(budget):
        if machine.step() is None:
            return True
        if machine.stats.steps >= machine.max_steps:
            raise MachineLimitError(
                "machine exceeded max_steps",
                steps=machine.stats.steps,
                limit=machine.max_steps,
            )
    return all(vm.halted for vm in machine.vms)


def make_machine(compiled, cls=PersistentMachine, **kwargs):
    machine = cls(compiled, **kwargs)
    machine.stats.commit_steps = []
    machine.stats.io_steps = []
    return machine


def assert_same_state(batched, classic):
    assert batched.pm == classic.pm
    assert batched.volatile.words == classic.volatile.words
    assert batched.io_log == classic.io_log
    bs, cs = batched.stats, classic.stats
    assert bs.steps == cs.steps
    assert bs.stores == cs.stores
    assert bs.boundaries == cs.boundaries
    assert bs.commits == cs.commits
    assert bs.overflow_events == cs.overflow_events
    assert bs.undo_writes == cs.undo_writes
    assert bs.max_wpq_occupancy == cs.max_wpq_occupancy
    assert bs.commit_steps == cs.commit_steps
    assert bs.io_steps == cs.io_steps
    assert batched._turn == classic._turn
    assert batched.wpq_occupancy() == classic.wpq_occupancy()
    bp, cp = batched.persist, classic.persist
    assert bp.committed_upto == cp.committed_upto
    assert [w.runs for w in bp.wpqs] == [w.runs for w in cp.wpqs]
    assert bp.undo_log == cp.undo_log
    assert bp.boundary_issued == cp.boundary_issued
    for name in ("committed", "pending", "dirty"):
        assert getattr(bp, name, None) == getattr(cp, name, None), name
    for bvm, cvm in zip(batched.vms, classic.vms):
        assert bvm.halted == cvm.halted
        assert bvm.steps == cvm.steps
        assert bvm.position() == cvm.position()
        assert bvm.regs == cvm.regs
        assert len(bvm.frames) == len(cvm.frames)
    assert resume_points(batched) == resume_points(classic)
    assert batched.allocator.allocated == classic.allocator.allocated
    if isinstance(batched, FaultyMachine):
        assert batched._ack_due == classic._ack_due
        assert batched.mc_seen == classic.mc_seen
        assert batched._pending_msgs == classic._pending_msgs
        assert batched._boundary_seq == classic._boundary_seq
        assert batched.fault_counters == classic.fault_counters


def io_after_call_program(k):
    """``main`` calls an empty leaf, runs ``k`` ALU instructions, then
    performs one IO.  The call's boundaries leave a flush-ACK maturing a
    few steps later, so sweeping ``k`` lands the IO on the ACK deadline
    (``k`` = 1), where only the ACK check of the IO's own step commits
    the region on time.  (After a BOUNDARY, the commit attempt every
    boundary makes would hide a missing check; after an IO nothing
    does.)"""
    prog = Program("io_after_call")
    leaf = FunctionBuilder(prog, "leaf")
    leaf.block("entry")
    leaf.ret()
    leaf.build()
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.call("leaf")
    for _ in range(k):
        fb.add("r1", "r1", 1)
    fb.io(1, "r1")
    fb.ret()
    fb.build()
    return prog


def store_loop_program(n):
    """``main`` loops ``n`` times storing two words of a 64-word array:
    one thread, no sync instruction, so ``run()`` batches it whole but
    for the batch cap."""
    prog = Program("store_loop")
    a = prog.array("a", 64)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.and_("r2", "r1", 31)
    fb.store("r1", "r2", base=a)
    fb.store("r2", "r2", base=a + 32)
    fb.add("r1", "r1", 1)
    fb.lt("r3", "r1", n)
    fb.cbr("r3", "loop", "exit")
    fb.block("exit")
    fb.ret()
    fb.build()
    return prog


def check_faulty_parity(compiled, crash_at=None, **kwargs):
    """Batched vs classic on :class:`FaultyMachine`, optionally with a
    power failure after ``crash_at`` steps and a resumed run."""
    batched = make_machine(compiled, cls=FaultyMachine, **kwargs)
    classic = make_machine(compiled, cls=FaultyMachine, **kwargs)
    if crash_at is not None:
        batched.run(steps=crash_at)
        run_classic(classic, steps=crash_at)
        assert_same_state(batched, classic)
        if batched.finished:
            return
        batched.crash()
        classic.crash()
    assert batched.run() == run_classic(classic)
    assert_same_state(batched, classic)


def run_both(batched, classic, steps=None):
    """One ``run(steps=)`` on the batched machine and the classic loop on
    the other; both must finish alike and end in the same state."""
    assert batched.run(steps=steps) == run_classic(classic, steps=steps)
    assert_same_state(batched, classic)


def check_message_faults(compiled, seed, horizon, cut=None, **kwargs):
    """Batched vs classic on :class:`FaultyMachine` through a seeded
    schedule: two armed message faults, a run, one MC down, another run,
    a power cut (with ``cut``'s modifiers, if given), and the run to the
    end.  ``horizon`` bounds each run's length (the programs' step counts
    differ by thread count)."""
    rng = random.Random(seed)
    faults = [
        FaultEvent(
            "msg", 1, op=rng.choice(MSG_OPS),
            mc=rng.randrange(DEFAULT_CONFIG.mc.n_mcs),
            delay=rng.randint(1, 3),
        )
        for _ in range(2)
    ]
    first = rng.randint(1, horizon)
    down = rng.randrange(DEFAULT_CONFIG.mc.n_mcs)
    second = rng.randint(1, horizon)
    batched = make_machine(compiled, cls=FaultyMachine, **kwargs)
    classic = make_machine(compiled, cls=FaultyMachine, **kwargs)
    for machine in (batched, classic):
        for event in faults:
            machine.arm_msg(event)
    run_both(batched, classic, first)
    for machine in (batched, classic):
        machine.mc_down(down)
    run_both(batched, classic, second)
    if not batched.finished:
        batched.crash(cut)
        classic.crash(cut)
        assert_same_state(batched, classic)
    run_both(batched, classic)


def check_two_phase(compiled, k1, k2):
    """``run(steps=k1)``, ``run(steps=k2)``, a power cut, and the run to
    the end: the second run starts and ends at arbitrary steps, so a
    flush-ACK can fall due inside a run that retires no store."""
    batched = make_machine(compiled, cls=FaultyMachine)
    classic = make_machine(compiled, cls=FaultyMachine)
    run_both(batched, classic, k1)
    run_both(batched, classic, k2)
    if not batched.finished:
        batched.crash()
        classic.crash()
    run_both(batched, classic)


def check_parity(compiled, entries=None, quantum=16, config=DEFAULT_CONFIG,
                 backend=None):
    kwargs = {"quantum": quantum, "config": config, "backend": backend}
    if entries is not None:
        kwargs["entries"] = entries
    batched = make_machine(compiled, **kwargs)
    classic = make_machine(compiled, **kwargs)
    finished_b = batched.run()
    finished_c = run_classic(classic)
    assert finished_b == finished_c
    assert_same_state(batched, classic)


class TestSingleThreadParity:
    @pytest.mark.parametrize("seed", range(50))
    def test_randprog_sweep(self, seed):
        compiled = compile_program(random_program(seed))
        check_parity(compiled)

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_quantum_sizes(self, seed, quantum):
        compiled = compile_program(random_program(seed))
        check_parity(compiled, quantum=quantum)

    @pytest.mark.parametrize("seed", [1, 11, 23])
    def test_tiny_wpq_overflow_path(self, seed):
        # 4-entry WPQs: bulk admission must hit the §IV-D overflow
        # fallback exactly like per-store admission does
        compiled = compile_program(random_program(seed))
        check_parity(compiled, config=TINY_WPQ)

    @pytest.mark.parametrize(
        "backend", ["lightwsp-lrpo", "cwsp-eager", "psp", "memory-mode"]
    )
    def test_backends(self, backend):
        compiled = compile_program(random_program(7))
        check_parity(compiled, backend=backend)


class TestBatchCap:
    def test_settle_sees_at_most_a_capped_batch(self):
        compiled = compile_program(store_loop_program(BATCH_STEPS // 2 + 1))
        batched = make_machine(compiled)
        classic = make_machine(compiled)
        settle = batched._settle
        sizes = []

        def counting_settle(tid, stores, *rest):
            sizes.append(len(stores))
            settle(tid, stores, *rest)

        batched._settle = counting_settle
        run_both(batched, classic)
        assert batched.stats.stores > BATCH_STEPS
        assert len(sizes) > 1
        assert max(sizes) <= BATCH_STEPS


def settle_paths(machine):
    """Spy on ``machine``'s batch settles: one entry per settled batch,
    ``"bulk"`` when ``_settle_clean`` settled it, else ``"event"``."""
    paths = []
    settle, bulk = machine._settle, machine._settle_clean

    def spy_settle(*args):
        paths.append("event")
        settle(*args)

    def spy_bulk(*args):
        took = bulk(*args)
        if took:
            paths[-1] = "bulk"
        return took

    machine._settle = spy_settle
    machine._settle_clean = spy_bulk
    return paths


def forbid_per_event(machine):
    """Make the per-event settle's admission and ACK maturity raise."""

    def per_event(*args):
        raise AssertionError("a clean batch took the per-event settle")

    machine._admit_stores = per_event
    machine._mature = per_event


MACHINES = pytest.mark.parametrize(
    "cls", [PersistentMachine, FaultyMachine], ids=["base", "faulty"]
)


class TestSettlePath:
    """Which settle a batch takes.  On a clean machine every batch
    settles in bulk, so the per-event admission and ACK maturity never
    run; an armed message fault, a queued redelivery, a downed MC,
    ``ack_wait`` off, the battery and settling overrides, a WPQ that
    would overflow and a non-gated backend each send a batch through the
    per-event settle.  Every case still matches the classic loop, so
    the sweeps above cannot pass on one path alone."""

    @MACHINES
    @pytest.mark.parametrize("seed", [2, 9, 21])
    def test_clean_batches_settle_in_bulk(self, cls, seed):
        compiled = compile_program(random_program(seed))
        batched = make_machine(compiled, cls=cls)
        classic = make_machine(compiled, cls=cls)
        paths = settle_paths(batched)
        forbid_per_event(batched)
        run_both(batched, classic, 30)
        if not batched.finished:
            batched.crash()
            classic.crash()
        run_both(batched, classic)
        assert paths and set(paths) == {"bulk"}

    @MACHINES
    @pytest.mark.parametrize("quantum", [3, 16])
    def test_clean_threads_settle_in_bulk(self, cls, quantum):
        prog, entries = random_mt_program(5, n_threads=3)
        compiled = compile_program(prog)
        batched = make_machine(compiled, cls=cls, entries=entries,
                               quantum=quantum)
        classic = make_machine(compiled, cls=cls, entries=entries,
                               quantum=quantum)
        paths = settle_paths(batched)
        forbid_per_event(batched)
        run_both(batched, classic)
        assert paths and set(paths) == {"bulk"}

    def faulty_pair(self, seed=9, **kwargs):
        compiled = compile_program(random_program(seed))
        return (
            make_machine(compiled, cls=FaultyMachine, **kwargs),
            make_machine(compiled, cls=FaultyMachine, **kwargs),
        )

    @pytest.mark.parametrize("op", MSG_OPS)
    def test_armed_message_fault(self, op):
        batched, classic = self.faulty_pair()
        for machine in (batched, classic):
            machine.arm_msg(FaultEvent("msg", 1, op=op, mc=0, delay=2))
        paths = settle_paths(batched)
        run_both(batched, classic)
        assert paths[0] == "event"

    def test_queued_redelivery(self):
        batched, classic = self.faulty_pair()
        for machine in (batched, classic):
            machine.arm_msg(FaultEvent("msg", 1, op="delay", mc=1, delay=50))
        run_both(batched, classic, 20)
        assert not batched._armed_msgs and batched._pending_msgs
        paths = settle_paths(batched)
        run_both(batched, classic, 20)
        assert paths and set(paths) == {"event"}
        run_both(batched, classic)

    def test_downed_mc(self):
        batched, classic = self.faulty_pair()
        for machine in (batched, classic):
            machine.mc_down(0)
        paths = settle_paths(batched)
        run_both(batched, classic)
        assert paths and set(paths) == {"event"}

    def test_ack_wait_off(self):
        batched, classic = self.faulty_pair(
            defenses=DEFENSE_OFF_MODES["no_ack_wait"]
        )
        paths = settle_paths(batched)
        run_both(batched, classic)
        assert paths and set(paths) == {"event"}

    @pytest.mark.parametrize("state", ["_battery_powered", "_settling"])
    def test_commit_override(self, state):
        # both only hold inside crash() and finish_messages(), which run
        # no batch; set here, every in-flight ACK counts as matured
        batched, classic = self.faulty_pair()
        for machine in (batched, classic):
            setattr(machine, state, True)
        paths = settle_paths(batched)
        run_both(batched, classic)
        assert paths and set(paths) == {"event"}

    @MACHINES
    @pytest.mark.parametrize("n_mcs", [1, 2, 3])
    @pytest.mark.parametrize("seed", [2, 9, 25])
    def test_overflowing_batch(self, cls, seed, n_mcs):
        # the bulk check is exact: a batch takes the per-event settle
        # exactly when a store there finds its WPQ full.  Seven-step
        # runs make many batches, some that overflow and some that fit;
        # one MC makes the settle's count bound exact, three spread a
        # program's words over other queues than two do
        compiled = compile_program(random_program(seed))
        config = TINY_WPQ.with_mcs(n_mcs)
        batched = make_machine(compiled, cls=cls, config=config)
        classic = make_machine(compiled, cls=cls, config=config)
        paths = settle_paths(batched)
        overflowed = []
        settle = batched._settle

        def spy_overflow(*args):
            before = batched.stats.overflow_events
            settle(*args)
            overflowed.append(batched.stats.overflow_events > before)

        batched._settle = spy_overflow
        while not batched.finished:
            run_both(batched, classic, 7)
        assert any(overflowed) and not all(overflowed)
        assert paths == ["event" if o else "bulk" for o in overflowed]

    @MACHINES
    def test_non_gated_backend(self, cls):
        compiled = compile_program(random_program(9))
        batched = make_machine(compiled, cls=cls, backend="cwsp-eager")
        classic = make_machine(compiled, cls=cls, backend="cwsp-eager")
        paths = settle_paths(batched)
        run_both(batched, classic)
        assert paths and set(paths) == {"event"}


class TestMultiThreadParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_randmt_sweep(self, seed):
        prog, entries = random_mt_program(seed, n_threads=3)
        compiled = compile_program(prog)
        check_parity(compiled, entries=entries)

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    def test_quantum_sizes(self, quantum):
        prog, entries = random_mt_program(5, n_threads=2)
        compiled = compile_program(prog)
        check_parity(compiled, entries=entries, quantum=quantum)


class TestFaultyMachineParity:
    @pytest.mark.parametrize("seed", [2, 9, 21])
    def test_no_fault_run(self, seed):
        check_faulty_parity(compile_program(random_program(seed)))

    @pytest.mark.parametrize("seed", [4, 13])
    @pytest.mark.parametrize("crash_at", [25, 90])
    def test_mid_run_crash(self, seed, crash_at):
        check_faulty_parity(
            compile_program(random_program(seed)), crash_at=crash_at
        )

    @pytest.mark.parametrize("k", range(6))
    def test_io_on_an_ack_deadline(self, k):
        check_faulty_parity(compile_program(io_after_call_program(k)))

    @pytest.mark.parametrize("seed", [6, 15])
    def test_tiny_wpq_crash(self, seed):
        check_faulty_parity(
            compile_program(random_program(seed)), crash_at=40,
            config=TINY_WPQ,
        )


class TestMultiThreadFaultyParity:
    """Flush-ACKs maturing inside batches under round-robin rotation."""

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_no_fault_run(self, seed, quantum):
        prog, entries = random_mt_program(seed, n_threads=3)
        check_faulty_parity(
            compile_program(prog), entries=entries, quantum=quantum
        )

    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("crash_at", [30, 120])
    def test_mid_run_crash(self, crash_at, quantum):
        prog, entries = random_mt_program(8, n_threads=2)
        check_faulty_parity(
            compile_program(prog), crash_at=crash_at, entries=entries,
            quantum=quantum,
        )

    def test_tiny_wpq_crash(self):
        prog, entries = random_mt_program(3, n_threads=3)
        check_faulty_parity(
            compile_program(prog), crash_at=60, entries=entries,
            config=TINY_WPQ,
        )


class TestMessageFaultParity:
    """Armed message faults, a downed MC and a power cut between runs:
    every broadcast, retry, lost store and ACK-matured commit must land
    at the step the classic loop puts it."""

    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, TINY_WPQ],
                             ids=["default", "wpq4"])
    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", range(50))
    def test_single_thread(self, seed, quantum, config):
        check_message_faults(
            compile_program(random_program(seed)), seed, horizon=40,
            quantum=quantum, config=config,
        )

    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, TINY_WPQ],
                             ids=["default", "wpq4"])
    @pytest.mark.parametrize("quantum", [1, 3, 16])
    @pytest.mark.parametrize("seed", range(12))
    def test_three_threads(self, seed, quantum, config):
        prog, entries = random_mt_program(seed, n_threads=3)
        check_message_faults(
            compile_program(prog), seed, horizon=150, entries=entries,
            quantum=quantum, config=config,
        )


class TestDefenseOffParity:
    """The message-fault schedule under each defense-off mode the
    campaign self-validates with, cut by a torn and (single-threaded)
    nested power failure.  Without ``ack_wait`` a region commits once
    any MC has seen its boundary, so a queued redelivery can find its
    region already committed (a straggler flush): the settle must run a
    boundary's broadcast after the commits that matured before it."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mode", sorted(DEFENSE_OFF_MODES))
    def test_single_thread(self, mode, seed):
        cut = FaultEvent(
            "cut", 1, torn_index=0,
            nested_after=NESTED_POINTS[seed % len(NESTED_POINTS)],
        )
        check_message_faults(
            compile_program(random_program(seed)), seed, horizon=40,
            cut=cut, quantum=3, defenses=DEFENSE_OFF_MODES[mode],
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", sorted(DEFENSE_OFF_MODES))
    def test_three_threads(self, mode, seed):
        prog, entries = random_mt_program(seed, n_threads=3)
        check_message_faults(
            compile_program(prog), seed, horizon=150,
            cut=FaultEvent("cut", 1, torn_index=0), entries=entries,
            quantum=3, defenses=DEFENSE_OFF_MODES[mode],
        )


class TestRecoveringBackendParity:
    """Every backend that recovers (gated LRPO and the eager undo
    schemes) through cuts at several steps, each with a torn drain entry,
    then the persist tail settled by ``finish_messages``."""

    @pytest.mark.parametrize("cuts", [(7,), (19, 23), (33, 12, 40)],
                             ids=["1cut", "2cuts", "3cuts"])
    @pytest.mark.parametrize(
        "backend", ["lightwsp-lrpo", "cwsp-eager", "capri", "ppa"]
    )
    @pytest.mark.parametrize("seed", [2, 9, 21])
    def test_cuts_with_torn_drain(self, seed, backend, cuts):
        compiled = compile_program(random_program(seed))
        batched = make_machine(compiled, cls=FaultyMachine, backend=backend)
        classic = make_machine(compiled, cls=FaultyMachine, backend=backend)
        for gap in cuts:
            run_both(batched, classic, gap)
            if batched.finished:
                break
            event = FaultEvent("cut", batched.stats.steps, torn_index=0)
            batched.crash(event)
            classic.crash(event)
            assert_same_state(batched, classic)
        run_both(batched, classic)
        batched.finish_messages()
        classic.finish_messages()
        assert_same_state(batched, classic)


class TestTwoPhaseParity:
    """Two consecutive ``run(steps=)`` calls, then a cut: every split of
    the program's first 40 steps.  A run that ends on or just past a
    flush-ACK deadline without buffering a store must still commit the
    matured region before it returns."""

    @pytest.mark.parametrize("k", range(6))
    def test_io_after_call(self, k):
        compiled = compile_program(io_after_call_program(k))
        for k1 in range(30):
            for k2 in range(12):
                check_two_phase(compiled, k1, k2)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_program_stride(self, seed):
        compiled = compile_program(random_program(seed))
        for k1 in range(0, 30, 3):
            for k2 in range(12):
                check_two_phase(compiled, k1, k2)


class TestTypedEscapes:
    def test_max_steps_raises_machine_limit(self):
        compiled = compile_program(random_program(0))
        machine = PersistentMachine(compiled, max_steps=10)
        with pytest.raises(MachineLimitError, match="max_steps") as info:
            machine.run()
        assert info.value.steps == 10
        assert info.value.limit == 10
        # RuntimeError compatibility is part of the contract
        assert isinstance(info.value, RuntimeError)

    # (20, 100): the second run asks for more steps than max_steps
    # leaves, and its batches must still stop at max_steps
    @pytest.mark.parametrize("first, then", [(0, None), (20, 100)])
    def test_machine_limit_matches_classic_loop(self, first, then):
        compiled = compile_program(random_program(0))
        batched = PersistentMachine(compiled, max_steps=37)
        classic = PersistentMachine(compiled, max_steps=37)
        if first:
            batched.run(steps=first)
            run_classic(classic, steps=first)
        with pytest.raises(MachineLimitError):
            batched.run(steps=then)
        with pytest.raises(MachineLimitError):
            run_classic(classic, steps=then)
        assert_same_state(batched, classic)

    def test_deadlock_error_is_runtime_error(self):
        assert issubclass(DeadlockError, RuntimeError)
        assert issubclass(MachineLimitError, RuntimeError)


def fuzz_one(seed):
    """One seeded differential case: a random program and configuration
    (1-4 MCs, 2-64 WPQ entries, 1-3 threads, either machine), random
    ``run(steps=)`` splits, crashes (torn ones on FaultyMachine) and
    armed message faults, the two paths compared after every run and
    every crash."""
    rng = random.Random(seed)
    config = DEFAULT_CONFIG.with_mcs(rng.randint(1, 4))
    config = replace(
        config, mc=replace(config.mc, wpq_entries=rng.randint(2, 64))
    )
    n_mcs = config.mc.n_mcs
    threads = rng.randint(1, 3)
    kwargs = {"config": config, "quantum": rng.choice([1, 3, 16])}
    if threads == 1:
        compiled = compile_program(random_program(seed))
    else:
        prog, kwargs["entries"] = random_mt_program(seed, n_threads=threads)
        compiled = compile_program(prog)
    cls = rng.choice([PersistentMachine, FaultyMachine])
    faulty = cls is FaultyMachine
    batched = make_machine(compiled, cls=cls, **kwargs)
    classic = make_machine(compiled, cls=cls, **kwargs)

    def arm(count):
        for _ in range(count):
            event = FaultEvent(
                "msg", 1, op=rng.choice(MSG_OPS), mc=rng.randrange(n_mcs),
                delay=rng.randint(1, 3),
            )
            batched.arm_msg(event)
            classic.arm_msg(event)

    if faulty:
        arm(rng.randint(0, 2))
    for _ in range(rng.randint(1, 6)):
        run_both(batched, classic, rng.randint(1, 60 * threads))
        if batched.finished:
            break
        if rng.random() < 0.5:
            if faulty:
                cut = FaultEvent(
                    "cut", batched.stats.steps,
                    torn_index=rng.choice([-1, 0, 1]),
                )
                batched.crash(cut)
                classic.crash(cut)
            else:
                batched.crash()
                classic.crash()
            assert_same_state(batched, classic)
        if faulty and rng.random() < 0.3:
            arm(1)
    run_both(batched, classic)
    if faulty:
        batched.finish_messages()
        classic.finish_messages()
        assert_same_state(batched, classic)


class TestDifferentialFuzz:
    """A bounded differential fuzz of ``run()`` against the single-step
    loop over random programs and configurations (see :func:`fuzz_one`).
    A crash empties volatile memory, so every run after one also checks
    the reads that fall through to PM."""

    @pytest.mark.parametrize("seed", range(300))
    def test_random_configuration(self, seed):
        fuzz_one(seed)


class TestSeenSets:
    """FaultyMachine's per-MC seen sets hold only uncommitted regions: a
    region leaves every set when it commits, by either settle.  On a
    failure-free run every MC sees each boundary at its broadcast, so
    each set is exactly the regions whose ACK is in flight."""

    @pytest.mark.parametrize("drive", ["run", "classic"])
    @pytest.mark.parametrize("seed", [2, 9, 21])
    def test_hold_only_uncommitted_regions(self, seed, drive):
        compiled = compile_program(random_program(seed))
        machine = make_machine(compiled, cls=FaultyMachine)
        go = machine.run if drive == "run" else partial(run_classic, machine)
        while not go(steps=25):
            upto = machine.persist.committed_upto
            for seen in machine.mc_seen:
                assert all(region >= upto for region in seen)
                assert seen == set(machine._ack_due)
        assert machine.stats.commits > 1
        machine.finish_messages()
        assert machine.mc_seen == [set(), set()]

    @pytest.mark.parametrize("drive", ["run", "classic"])
    @pytest.mark.parametrize("seed", range(8))
    def test_a_partly_seen_region_still_commits(self, seed, drive):
        # a delivery to MC 1 delayed by two boundaries leaves a region
        # seen by MC 0 only while older regions commit: it must stay in
        # MC 0's set, or MC 1's late delivery would never complete its
        # ACK and no later region would commit
        compiled = compile_program(random_program(seed))
        reference = make_machine(compiled, cls=FaultyMachine)
        assert reference.run()
        reference.finish_messages()
        for at in (10, 25, 40):
            machine = make_machine(compiled, cls=FaultyMachine)
            go = machine.run if drive == "run" else partial(
                run_classic, machine
            )
            go(steps=at)
            machine.arm_msg(FaultEvent("msg", 1, op="delay", mc=1, delay=2))
            assert go()
            machine.finish_messages()
            assert machine.mc_seen == [set(), set()], at
            assert machine.stats.commits == reference.stats.commits, at
            assert machine.pm == reference.pm, at

    def test_a_long_run_keeps_them_small(self):
        compiled = compile_program(store_loop_program(3000))
        machine = make_machine(compiled, cls=FaultyMachine)
        while not machine.run(steps=1000):
            assert max(map(len, machine.mc_seen)) <= 2
        assert machine.stats.commits > 300
