"""Shared fixtures: expensive artefacts are built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PipelineConfig, TimescaleSpec, TrainConfig, XatuModelConfig
from repro.synth import ScenarioConfig, TraceGenerator


def small_scenario(seed: int = 3) -> ScenarioConfig:
    return ScenarioConfig(
        total_days=16,
        minutes_per_day=120,
        prep_days=2,
        n_customers=8,
        n_botnets=4,
        botnet_size=100,
        campaigns_per_botnet=2,
        seed=seed,
    )


def small_model_config() -> XatuModelConfig:
    return XatuModelConfig(
        hidden_size=12,
        dense_size=8,
        detect_window=10,
        timescales=(
            TimescaleSpec("short", 1, 60),
            TimescaleSpec("medium", 5, 36),
            TimescaleSpec("long", 20, 12),
        ),
    )


@pytest.fixture(scope="session")
def trace():
    """One shared synthetic trace for read-only tests."""
    return TraceGenerator(small_scenario()).materialize()


def build_pipeline_result():
    """(pipeline, result) of one end-to-end run on the small scenario."""
    from repro.core import XatuPipeline

    config = PipelineConfig(
        scenario=small_scenario(),
        model=small_model_config(),
        train=TrainConfig(epochs=5, batch_size=8, learning_rate=3e-3),
        overhead_bound=0.25,
    )
    pipeline = XatuPipeline(config)
    return pipeline, pipeline.run()


@pytest.fixture(scope="session")
def pipeline_result():
    """One shared end-to-end pipeline run (the expensive integration artefact)."""
    return build_pipeline_result()


def headline_smoke_config() -> PipelineConfig:
    """The smallest config the Fig. 8–10 harness still produces events on."""
    return PipelineConfig(
        scenario=ScenarioConfig(
            total_days=12, minutes_per_day=100, prep_days=1.5,
            n_customers=6, n_botnets=3, botnet_size=80,
            campaigns_per_botnet=2, seed=3,
        ),
        model=XatuModelConfig(
            hidden_size=8, dense_size=6, detect_window=8,
            timescales=(
                TimescaleSpec("short", 1, 40),
                TimescaleSpec("long", 10, 12),
            ),
        ),
        train=TrainConfig(epochs=2, batch_size=8, learning_rate=3e-3),
        overhead_bound=0.25,
    )


def build_headline_experiment():
    """A prepared HeadlineExperiment on :func:`headline_smoke_config`."""
    from repro.eval import HeadlineExperiment

    exp = HeadlineExperiment(headline_smoke_config())
    exp.prepare()
    return exp


@pytest.fixture(scope="session")
def headline_experiment():
    """One shared prepared HeadlineExperiment (Fig. 8–10 harness)."""
    return build_headline_experiment()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
