"""Pins every offline evaluation number the paper figures are built from.

``tests/fixtures/eval_pins.json`` holds, for the small session fixtures:

* the §6 pipeline run (``pipeline_result``): its summary, calibrated
  threshold, alert count and sorted diversion windows;
* the Fig. 8/10 harness (``headline_experiment``): every ``SystemMetrics``
  field of ``sweep([0.1, 0.25])`` and of ``per_type(0.25)``;
* one Fig. 12 ablation variant (``xatu_full``) on the headline config.

A refactor of the evaluation layer must reproduce them: counts, thresholds
and windows exactly, floats at the golden tolerances.  Re-record only for
a change that is meant to move the figures, and say which numbers moved:

    PYTHONPATH=src python -m tests.test_eval_pins
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import headline_smoke_config

pytestmark = pytest.mark.slow  # trains three small models

PINS = Path(__file__).resolve().parent / "fixtures" / "eval_pins.json"
ATOL, RTOL = 1e-6, 1e-5
EXACT_KEYS = {"threshold", "calibrated_threshold"}  # ints are always exact


def pipeline_pins(pipeline_result) -> dict:
    _pipeline, result = pipeline_result
    return {
        "summary": result.summary(),
        "calibrated_threshold": result.calibration.threshold,
        "n_alerts": len(result.detection.alerts),
        "windows": sorted(
            [w.customer_id, w.start, w.end] for w in result.detection.windows
        ),
    }


def headline_pins(experiment) -> dict:
    return {
        "sweep": [asdict(m) for m in experiment.sweep([0.1, 0.25])],
        "per_type": {
            name: [asdict(m) for m in rows]
            for name, rows in experiment.per_type(0.25).items()
        },
    }


def ablation_pins() -> dict:
    from repro.eval.ablation import STANDARD_VARIANTS, AblationExperiment

    variant = next(v for v in STANDARD_VARIANTS if v.name == "xatu_full")
    return asdict(AblationExperiment(headline_smoke_config()).run_variant(variant))


def compute_pins(pipeline_result, experiment) -> dict:
    return {
        "pipeline": pipeline_pins(pipeline_result),
        "headline": headline_pins(experiment),
        "ablation": ablation_pins(),
    }


def assert_matches(got, want, path: str = "", exact: bool = False) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}", exact or key in EXACT_KEYS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]", exact)
    elif isinstance(want, float) and not exact:
        assert np.isclose(got, want, atol=ATOL, rtol=RTOL), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_offline_evaluation_matches_pins(pipeline_result, headline_experiment):
    want = json.loads(PINS.read_text())
    got = json.loads(json.dumps(compute_pins(pipeline_result, headline_experiment)))
    assert_matches(got, want)


if __name__ == "__main__":
    from tests.conftest import build_headline_experiment, build_pipeline_result

    pins = compute_pins(build_pipeline_result(), build_headline_experiment())
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
