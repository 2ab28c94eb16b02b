"""Adversarial fault injection for the LightWSP reproduction.

The base machine proves crash consistency under clean power cuts; this
package layers the hostile events the paper's machinery implies — torn
battery writes, energy-bounded WPQ drains, dropped/delayed/duplicated
boundary broadcasts, per-MC-skewed crash instants, nested power failures
during recovery — onto the functional machine, sweeps seeded fault
schedules over the workload suite with a differential oracle, shrinks
failures to minimal reproducers, and self-validates by proving it flags
every seeded defense-off protocol variant.
"""

from .campaign import (
    DEFAULT_CAMPAIGN_BENCHMARKS,
    STORE_CAMPAIGN_BENCHMARKS,
    CampaignResult,
    resolve_benchmark,
    run_campaign,
)
from .defenses import ALL_ON, DEFENSE_OFF_MODES, Defenses
from .injector import ScenarioResult, run_scenario
from .kernel import replay_campaign
from .machine import FaultyMachine, NestedPowerFailure
from .model import (
    ACK_LATENCY_STEPS,
    FAULT_CLASSES,
    MSG_OPS,
    NESTED_POINTS,
    RETRY_TIMEOUT_BOUNDARIES,
    FaultEvent,
    schedule_from_json,
    schedule_to_json,
    tear_value,
)
from .oracle import Violation, check_image, diff_images
from .shrink import shrink_schedule

__all__ = [
    "ACK_LATENCY_STEPS",
    "ALL_ON",
    "CampaignResult",
    "DEFAULT_CAMPAIGN_BENCHMARKS",
    "DEFENSE_OFF_MODES",
    "Defenses",
    "FAULT_CLASSES",
    "FaultEvent",
    "FaultyMachine",
    "MSG_OPS",
    "NESTED_POINTS",
    "NestedPowerFailure",
    "RETRY_TIMEOUT_BOUNDARIES",
    "STORE_CAMPAIGN_BENCHMARKS",
    "ScenarioResult",
    "resolve_benchmark",
    "Violation",
    "check_image",
    "diff_images",
    "replay_campaign",
    "run_campaign",
    "run_scenario",
    "schedule_from_json",
    "schedule_to_json",
    "shrink_schedule",
    "tear_value",
]
