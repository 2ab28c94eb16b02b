#!/usr/bin/env python
"""Quickstart: compile a kernel for whole-system persistence, run it on
the timing simulator, and survive a power failure.

    python examples/quickstart.py

Walks the full LightWSP pipeline:

1. write a small program against the IR builder,
2. compile it — the LightWSP compiler partitions it into recoverable
   regions and checkpoints live-out registers,
3. replay it on the timing engine under the memory-mode baseline and
   under LightWSP to see the run-time overhead,
4. cut the power mid-execution on the functional machine and verify the
   recovered persistent image matches the failure-free run.
"""

from repro.analysis.experiments import trace_of
from repro.compiler import FunctionBuilder, Program, compile_program
from repro.config import SystemConfig
from repro.core import PersistentMachine, reference_pm
from repro.runtime import LIGHTWSP, MEMORY_MODE
from repro.sim import simulate


def build_program() -> Program:
    """y[i] = 3*x[i] + y[i] over 4096 elements, x prefilled."""
    prog = Program("quickstart")
    x = prog.array("x", 4096)
    y = prog.array("y", 4096)
    fb = FunctionBuilder(prog, "main")
    fb.block("entry")
    fb.const("r1", 0)
    fb.br("init")
    fb.block("init")
    fb.mul("r2", "r1", 5)
    fb.store("r2", "r1", base=x)
    fb.add("r1", "r1", 1)
    fb.lt("r3", "r1", 4096)
    fb.cbr("r3", "init", "mid")
    fb.block("mid")
    fb.const("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.load("r2", "r1", base=x)
    fb.mul("r2", "r2", 3)
    fb.load("r4", "r1", base=y)
    fb.add("r2", "r2", "r4")
    fb.store("r2", "r1", base=y)
    fb.add("r1", "r1", 1)
    fb.lt("r3", "r1", 4096)
    fb.cbr("r3", "loop", "exit")
    fb.block("exit")
    fb.ret()
    fb.build()
    return prog


def main() -> None:
    config = SystemConfig()
    prog = build_program()

    # -- compile ------------------------------------------------------
    compiled = compile_program(prog, config.compiler)
    stats = compiled.stats
    print("compiled %d function(s): %d region boundaries, "
          "%d checkpoint stores (%d pruned)" % (
              stats.functions, stats.boundaries,
              stats.checkpoint_stores, stats.pruned_checkpoints))
    print("max stores in any region: %d (threshold %d)\n"
          % (stats.max_region_stores, config.compiler.store_threshold))

    # -- timing: baseline vs LightWSP ----------------------------------
    base_events = trace_of(prog, max_steps=10_000_000)
    lw_events = trace_of(compiled.program, max_steps=10_000_000)
    base = simulate(base_events, config, MEMORY_MODE)
    lw = simulate(lw_events, config, LIGHTWSP)
    print("memory-mode baseline : %12.0f cycles" % base.cycles)
    print("LightWSP             : %12.0f cycles  (%.1f%% overhead)"
          % (lw.cycles, (lw.cycles / base.cycles - 1.0) * 100.0))
    print("persistence efficiency (Eq.1): %.2f%%" % lw.persistence_efficiency)
    print("regions persisted: %d, boundary stalls: %.0f cycles (LRPO)\n"
          % (lw.regions, lw.boundary_stall))

    # -- crash consistency ---------------------------------------------
    reference = reference_pm(compiled)
    machine = PersistentMachine(compiled)
    machine.run(steps=10_000)          # somewhere mid-execution...
    report = machine.crash()           # ...the lights go out
    print("power failure injected after %d instructions:" % machine.stats.steps)
    print("  regions flushed by battery: %d, WPQ entries discarded: %d"
          % (report["flushed"], report["discarded"]))
    machine.run()                      # resume from the recovery point
    assert machine.pm_data() == reference
    print("recovered image matches the failure-free run: OK")


if __name__ == "__main__":
    main()
