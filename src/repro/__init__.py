"""repro — a reproduction of *LightWSP: Whole-System Persistence on the
Cheap* (MICRO 2024).

Subpackages:

* :mod:`repro.compiler` — the region-partitioning compiler substrate,
* :mod:`repro.sim` — the timing simulator substrate,
* :mod:`repro.core` — LightWSP itself (WPQ redo buffering, LRPO, recovery),
* :mod:`repro.runtime` — the pluggable persist-path backends (every
  scheme's timing policy + functional crash semantics, one registry),
* :mod:`repro.workloads` — the 38-application synthetic suite,
* :mod:`repro.analysis` — metrics, hardware-cost model, experiment drivers.
"""

from .config import (
    CXL_PRESETS,
    DEFAULT_CONFIG,
    CacheConfig,
    CompilerConfig,
    MCConfig,
    MemoryBackendConfig,
    PersistPathConfig,
    SystemConfig,
    VictimPolicy,
)

# The one-stop public API: build a program, compile it, run it on the
# functional persistence machine or the timing engine.
from .compiler import FunctionBuilder, Program, compile_program
from .core import PersistentMachine, reference_pm, run_with_crashes
from .runtime import (
    BACKENDS,
    LIGHTWSP,
    PersistBackend,
    SchemePolicy,
    compare_backends,
    get_backend,
)
from .sim import SimResult, simulate

__version__ = "1.0.0"

__all__ = [
    "CXL_PRESETS",
    "DEFAULT_CONFIG",
    "CacheConfig",
    "CompilerConfig",
    "MCConfig",
    "MemoryBackendConfig",
    "PersistPathConfig",
    "SystemConfig",
    "VictimPolicy",
    "FunctionBuilder",
    "Program",
    "compile_program",
    "LIGHTWSP",
    "PersistentMachine",
    "reference_pm",
    "run_with_crashes",
    "BACKENDS",
    "PersistBackend",
    "compare_backends",
    "get_backend",
    "SchemePolicy",
    "SimResult",
    "simulate",
    "__version__",
]
