#!/usr/bin/env python
"""Multi-core whole-system persistence: lazy region-level persist
ordering (LRPO), happens-before across threads, and the WPQ-overflow
deadlock fallback.

    python examples/multicore_persistence.py

Demonstrates the pieces §III-D/§IV-B..D add on top of the single-core
design:

* eight threads hammer a lock-striped shared table; the compiler's
  boundaries at every lock/unlock make the global region-ID order encode
  the happens-before order, so conflicting stores persist in order even
  though the two memory controllers see them at NUMA-skewed times;
* the timing engine shows LRPO's effect: zero boundary stalls while the
  commit pipeline trails execution in the background;
* shrinking the WPQ provokes the §IV-D deadlock, resolved by undo-logged
  overflow — and a power failure right after it still recovers.
"""

from dataclasses import replace

from repro.analysis.experiments import trace_of
from repro.compiler import compile_program
from repro.config import SystemConfig
from repro.core import PersistentMachine
from repro.runtime import LIGHTWSP, MEMORY_MODE
from repro.sim import simulate
from repro.workloads.archetypes import transactional

N_THREADS = 8


def main() -> None:
    config = SystemConfig()
    prog = transactional(
        n_threads=N_THREADS, txns_per_thread=60, table_words=4096,
        writes_per_txn=4, n_locks=4,
    )
    entries = [("worker", (t,)) for t in range(N_THREADS)]
    compiled = compile_program(prog, config.compiler)

    # -- timing: LRPO on 8 cores / 2 MCs -------------------------------
    base_events = trace_of(prog, entries, max_steps=12_000_000)
    lw_events = trace_of(compiled.program, entries, max_steps=12_000_000)
    base = simulate(base_events, config, MEMORY_MODE)
    lw = simulate(lw_events, config, LIGHTWSP)
    print("8-thread transactional workload on 2 memory controllers")
    print("  baseline : %10.0f cycles" % base.cycles)
    print("  LightWSP : %10.0f cycles (%.1f%% overhead)"
          % (lw.cycles, (lw.cycles / base.cycles - 1) * 100))
    print("  regions: %d, boundary stalls: %.0f (LRPO), "
          "front-end stalls: %.0f cycles"
          % (lw.regions, lw.boundary_stall, lw.fe_stall))
    print("  WPQ deadlock fallbacks: %d\n" % lw.deadlock_events)

    # -- functional: happens-before persist order ----------------------
    machine = PersistentMachine(compiled, entries=entries, config=config)
    machine.run()
    table = prog.base_of("table")
    total = sum(v for w, v in machine.pm_data().items() if w >= table)
    expected = N_THREADS * 60 * 4
    print("functional machine: %d lock-ordered increments persisted "
          "(expected %d): %s" % (total, expected,
                                 "OK" if total == expected else "CORRUPT"))
    print("  global region IDs allocated: %d, commits: %d, "
          "max WPQ occupancy: %d/%d"
          % (machine.allocator.allocated, machine.stats.commits,
             machine.stats.max_wpq_occupancy, config.mc.wpq_entries))

    # -- tiny WPQ: force the §IV-D overflow, then crash -----------------
    tiny = replace(config, mc=replace(config.mc, wpq_entries=8))
    machine = PersistentMachine(compiled, entries=entries, config=tiny)
    machine.run(steps=4000)
    print("\n8-entry WPQ stress: %d overflow events, %d undo-logged writes"
          % (machine.stats.overflow_events, machine.stats.undo_writes))
    machine.crash()
    machine.run()
    total = sum(v for w, v in machine.pm_data().items() if w >= table)
    print("power failure after overflow: recovered total %d (%s)"
          % (total, "OK" if total == expected else "CORRUPT"))
    assert total == expected


if __name__ == "__main__":
    main()
