"""LightWSP's core: the functional persistence machine, WPQ redo buffer,
region-ID management, and recovery."""

from .failure import crash_sweep, reference_pm, run_with_crashes
from .machine import MachineStats, PersistentMachine
from .recovery import evaluate_recipe, rebuild_registers
from .regionid import RegionIdAllocator
from .wpq import FunctionalWPQ, WPQFullError

__all__ = [
    "crash_sweep",
    "reference_pm",
    "run_with_crashes",
    "MachineStats",
    "PersistentMachine",
    "evaluate_recipe",
    "rebuild_registers",
    "RegionIdAllocator",
    "FunctionalWPQ",
    "WPQFullError",
]
