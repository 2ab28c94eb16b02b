"""The oversubscribed timing replay (Fig. 16): more software threads than
hardware cores, so ``tid % hardware_cores`` threads share one core's
stream.  Pins every non-zero ``SimResult`` field (floats by ``repr``) so
any change to how a trace is split across cores, or to the per-core walk,
shows up as a byte difference."""

import pytest

from helpers import nonzero_fields

from repro.analysis.experiments import ExperimentContext
from repro.runtime import LIGHTWSP, MEMORY_MODE

#: (benchmark, scale, software threads); the default config has 8 cores
CASES = {"ssca2": (0.3, 12), "intruder": (0.02, 12)}

EXPECTED = {
    ("ssca2", "memory-mode"): {
        "cycles": "14351.500000000015", "instructions": 26028,
        "loads": 2892, "stores": 2892, "llc_misses": 361,
        "l1_miss_rate": "0.12586445366528354",
    },
    ("ssca2", "LightWSP"): {
        "cycles": "14382.152173912911", "instructions": 25428,
        "fe_stall": "446.96521739042055", "persist_exposed": "107424.0",
        "persist_waited": "446.96521739042055", "loads": 2892,
        "stores": 4416, "persist_entries": 4416, "regions": 408,
        "l1_evictions": 12, "wpq_probes": 361, "llc_misses": 361,
        "overflow_flushes": 192, "undo_logged_entries": 1102,
        "deadlock_events": 96, "l1_miss_rate": "0.10481663929939793",
    },
    ("intruder", "memory-mode"): {
        "cycles": "605.6", "instructions": 1320, "loads": 216,
        "stores": 216, "llc_misses": 1,
        "l1_miss_rate": "0.1550925925925926",
    },
    ("intruder", "LightWSP"): {
        "cycles": "1560.8717391304408", "instructions": 2172,
        "fe_stall": "3140.0282608695857", "persist_exposed": "40608.0",
        "persist_waited": "3140.0282608695857", "loads": 216,
        "stores": 912, "persist_entries": 912, "regions": 168,
        "wpq_probes": 1, "llc_misses": 1, "overflow_flushes": 4,
        "undo_logged_entries": 48, "deadlock_events": 2,
        "l1_miss_rate": "0.07801418439716312",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_oversubscribed_replay_is_pinned(name):
    scale, threads = CASES[name]
    ctx = ExperimentContext(scale=scale, benchmarks=[name])
    assert threads > ctx.config.cores
    for policy in (MEMORY_MODE, LIGHTWSP):
        result = ctx.run(name, policy, threads=threads)
        assert nonzero_fields(result) == EXPECTED[(name, policy.name)]
