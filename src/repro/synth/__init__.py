"""Synthetic ISP world: the stand-in for the paper's proprietary traces."""

from .attacks import (
    ATTACK_TYPE_MIX,
    TYPE_TRANSITIONS,
    AttackSignature,
    AttackType,
    generate_attack_flows,
    signature_for,
)
from .benign import BenignConfig, BenignTrafficModel, BudgetedBenignTraffic
from .campaign import (
    Campaign,
    CampaignConfig,
    PlannedAttack,
    PlannedPrep,
    plan_carpet_bombing,
    plan_multi_vector,
    plan_pulse_wave,
    schedule_campaigns,
)
from .configio import (
    load_scenario_file,
    save_scenario_file,
    scenario_from_json,
    scenario_to_json,
)
from .io import load_trace, save_trace, world_checksum
from .stream import MinuteSlice, TraceSource, as_trace_source
from .scenario import (
    ATTACK_FAMILIES,
    BENIGN_DRIFTS,
    AttackEvent,
    ScenarioConfig,
    Trace,
    TraceGenerator,
)
from .world import Botnet, Customer, IspWorld, WorldConfig

__all__ = [
    "AttackType", "ATTACK_TYPE_MIX", "TYPE_TRANSITIONS", "AttackSignature",
    "signature_for", "generate_attack_flows",
    "BenignConfig", "BenignTrafficModel", "BudgetedBenignTraffic",
    "Campaign", "CampaignConfig", "PlannedAttack", "PlannedPrep", "schedule_campaigns",
    "plan_carpet_bombing", "plan_pulse_wave", "plan_multi_vector",
    "ScenarioConfig", "AttackEvent", "Trace", "TraceGenerator",
    "ATTACK_FAMILIES", "BENIGN_DRIFTS",
    "Customer", "Botnet", "IspWorld", "WorldConfig",
    "save_trace", "load_trace", "world_checksum",
    "scenario_to_json", "scenario_from_json",
    "save_scenario_file", "load_scenario_file",
    "TraceSource", "MinuteSlice", "as_trace_source",
]
