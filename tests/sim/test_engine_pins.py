"""Pinned timing replays of the engine's cache, snoop and persist paths.

Each case pins every non-zero ``SimResult`` field (floats by ``repr``),
so a change to the cache hierarchy, the §IV-G victim re-selection, the
persist path or the commit pipeline shows up as a byte difference.

* ssca2 under all six backends; PSP-Ideal replays the hierarchy without
  a DRAM cache, which neither figure pin covers;
* ssca2 under LightWSP with each victim policy, one MC, a 4-entry WPQ
  (also under Capri) and dropped bdry-ACKs.  At scale 0.05 ssca2 evicts
  no L1 line, so its half-, zero-victim and stale-load rows equal the
  default LightWSP row: they pin the policy plumbing, not the §IV-G
  re-selection;
* vacation on one MC under half-victim, zero-victim and stale-load,
  where L1 evictions, front-end buffer conflicts and load-side eviction
  delays occur.  Stale-load (no snooping) is the one row whose victims
  never see the front-end buffers.
"""

import pytest

from helpers import nonzero_fields

from repro.analysis.experiments import ExperimentContext
from repro.config import SystemConfig, VictimPolicy
from repro.runtime import CAPRI, CWSP, LIGHTWSP, MEMORY_MODE, PPA, PSP_IDEAL
from repro.sim.engine import simulate
from repro.sim.mc import AckFaults

BASE = SystemConfig()
ONE_MC = BASE.with_mcs(1)
WPQ4 = BASE.with_wpq_entries(4)
DROPPED_ACKS = AckFaults(dropped=frozenset({(3, 0), (5, 1), (40, 0)}))

#: case id -> (benchmark, scale, policy, config, ACK faults)
CASES = {
    "ssca2-%s" % policy.name: ("ssca2", 0.05, policy, BASE, None)
    for policy in (MEMORY_MODE, PSP_IDEAL, CAPRI, PPA, CWSP, LIGHTWSP)
}
CASES.update(
    {
        "ssca2-LightWSP-%s" % victim: (
            "ssca2", 0.05, LIGHTWSP, BASE.with_victim_policy(victim), None,
        )
        for victim in (VictimPolicy.HALF, VictimPolicy.ZERO,
                       VictimPolicy.STALE_LOAD)
    }
)
CASES.update(
    {
        "ssca2-LightWSP-1mc": ("ssca2", 0.05, LIGHTWSP, ONE_MC, None),
        "ssca2-LightWSP-wpq4": ("ssca2", 0.05, LIGHTWSP, WPQ4, None),
        "ssca2-Capri-wpq4": ("ssca2", 0.05, CAPRI, WPQ4, None),
        "ssca2-LightWSP-ackfaults": (
            "ssca2", 0.05, LIGHTWSP, BASE, DROPPED_ACKS,
        ),
    }
)
CASES.update(
    {
        "vacation-LightWSP-1mc-%s" % victim: (
            "vacation", 0.02, LIGHTWSP,
            ONE_MC.with_victim_policy(victim), None,
        )
        for victim in (VictimPolicy.HALF, VictimPolicy.ZERO,
                       VictimPolicy.STALE_LOAD)
    }
)

EXPECTED = {
    "ssca2-Capri": {
        "cycles": "4784.63913043477", "instructions": 4392,
        "boundary_stall": "22665.373913043382", "persist_exposed": "9952.0",
        "persist_waited": "22665.373913043382", "loads": 488, "stores": 488,
        "persist_entries": 488, "regions": 8, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.13934426229508196",
    },
    "ssca2-Capri-wpq4": {
        "cycles": "7022.697826086968", "instructions": 4392,
        "fe_stall": "33573.2500000001", "boundary_stall": "5267.043478260835",
        "persist_exposed": "9952.0", "persist_waited": "38840.29347826097",
        "loads": 488, "stores": 488, "persist_entries": 488, "regions": 8,
        "wpq_probes": 61, "llc_misses": 61,
        "l1_miss_rate": "0.13934426229508196",
    },
    "ssca2-LightWSP": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-LightWSP-1mc": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-LightWSP-ackfaults": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "ack_retries": 3,
        "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-LightWSP-half": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-LightWSP-stale-load": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-LightWSP-wpq4": {
        "cycles": "20362.24130434786", "instructions": 6872,
        "fe_stall": "129302.41956521763", "persist_exposed": "122496.0",
        "persist_waited": "129302.41956521763", "loads": 488, "stores": 2464,
        "persist_entries": 2464, "regions": 512, "wpq_probes": 61,
        "llc_misses": 61, "overflow_flushes": 1002,
        "undo_logged_entries": 1477, "deadlock_events": 501,
        "l1_miss_rate": "0.054878048780487805",
    },
    "ssca2-LightWSP-zero": {
        "cycles": "1928.0499999999997", "instructions": 4792,
        "persist_exposed": "24320.0", "loads": 488, "stores": 800,
        "persist_entries": 800, "regions": 96, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.12577639751552794",
    },
    "ssca2-PPA": {
        "cycles": "2002.5499999999997", "instructions": 4392,
        "boundary_stall": "896.0", "persist_exposed": "5056.0",
        "persist_waited": "896.0", "loads": 488, "stores": 488,
        "persist_entries": 488, "regions": 16, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.13934426229508196",
    },
    "ssca2-PSP-Ideal": {
        "cycles": "1761.75", "instructions": 4392, "loads": 488, "stores": 488,
        "llc_misses": 61, "l1_miss_rate": "0.13934426229508196",
    },
    "ssca2-cWSP": {
        "cycles": "1908.5499999999997", "instructions": 4392,
        "persist_exposed": "6816.0", "loads": 488, "stores": 488,
        "persist_entries": 488, "regions": 24, "wpq_probes": 61,
        "llc_misses": 61, "l1_miss_rate": "0.13934426229508196",
    },
    "ssca2-memory-mode": {
        "cycles": "1890.5499999999997", "instructions": 4392, "loads": 488,
        "stores": 488, "llc_misses": 61, "l1_miss_rate": "0.13934426229508196",
    },
    "vacation-LightWSP-1mc-half": {
        "cycles": "134427.11086959697", "instructions": 205314,
        "fe_stall": "218782.81739152397",
        "eviction_stall": "155.5326086957648",
        "lock_stall": "55115.62391305047", "persist_exposed": "1249984.0",
        "persist_waited": "218782.81739152397", "loads": 20544,
        "stores": 29136, "persist_entries": 29136, "regions": 5152,
        "l1_evictions": 6152, "buffer_conflicts": 22, "wpq_probes": 1024,
        "llc_misses": 1024, "overflow_flushes": 13, "undo_logged_entries": 247,
        "deadlock_events": 13, "l1_miss_rate": "0.36402979066022545",
    },
    "vacation-LightWSP-1mc-zero": {
        "cycles": "137697.00434786032", "instructions": 205314,
        "fe_stall": "227956.57173936183",
        "eviction_stall": "3776.0239130455884",
        "lock_stall": "64075.44782609861", "persist_exposed": "1249984.0",
        "persist_waited": "227956.57173936183", "loads": 20544,
        "stores": 29136, "persist_entries": 29136, "regions": 5152,
        "l1_evictions": 6152, "buffer_conflicts": 17, "wpq_probes": 1024,
        "llc_misses": 1024, "overflow_flushes": 11, "undo_logged_entries": 146,
        "deadlock_events": 11, "l1_miss_rate": "0.3640096618357488",
    },
    "vacation-LightWSP-1mc-stale-load": {
        "cycles": "137300.08043481637", "instructions": 205314,
        "fe_stall": "232245.45000023703",
        "lock_stall": "61977.921739135345", "persist_exposed": "1249984.0",
        "persist_waited": "232245.45000023703", "loads": 20544,
        "stores": 29136, "persist_entries": 29136, "regions": 5152,
        "l1_evictions": 6152, "wpq_probes": 1024, "llc_misses": 1024,
        "overflow_flushes": 9, "undo_logged_entries": 223,
        "deadlock_events": 9, "l1_miss_rate": "0.3640096618357488",
    },
}


@pytest.fixture(scope="module")
def contexts():
    """One ExperimentContext per (benchmark, scale), so the cases of one
    benchmark replay the same cached traces."""
    return {}


def replay(case, contexts):
    name, scale, policy, config, ack_faults = CASES[case]
    ctx = contexts.get((name, scale))
    if ctx is None:
        ctx = contexts[(name, scale)] = ExperimentContext(
            scale=scale, benchmarks=[name]
        )
    if ack_faults is None:
        return ctx.run(name, policy, config=config)
    trace = ctx.compiled_trace(name, config)
    return simulate(trace, config, policy, ack_faults=ack_faults)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_is_pinned(case, contexts):
    assert nonzero_fields(replay(case, contexts)) == EXPECTED[case]
