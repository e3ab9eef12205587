"""Adversarial/drift scenario matrix and earliness/FPR regression harness.

``catalog`` names the workloads (paper attack types, adversarial families,
benign-drift stressors); ``matrix`` drives every scenario through the
detector lanes and writes the versioned ``SCENARIOS.json`` report with a
compare-vs-baseline gate.
"""

from .catalog import (
    CI_SCENARIOS,
    ScenarioSpec,
    all_specs,
    get_spec,
    register,
    scenario_names,
)
from .matrix import (
    DETECTOR_LANES,
    REPORT_FORMAT_VERSION,
    MatrixConfig,
    PrecisionGate,
    TrainedArtifacts,
    budget_failures,
    compare_reports,
    load_report,
    precision_gate,
    render_precision,
    render_report,
    run_matrix,
    train_artifacts,
    write_report,
)

__all__ = [
    "ScenarioSpec",
    "register",
    "get_spec",
    "all_specs",
    "scenario_names",
    "CI_SCENARIOS",
    "MatrixConfig",
    "TrainedArtifacts",
    "train_artifacts",
    "run_matrix",
    "precision_gate",
    "PrecisionGate",
    "render_precision",
    "write_report",
    "load_report",
    "compare_reports",
    "budget_failures",
    "render_report",
    "DETECTOR_LANES",
    "REPORT_FORMAT_VERSION",
]
