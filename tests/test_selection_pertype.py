"""Tests for Appendix-D feature selection and the per-type pipeline mode."""

import numpy as np
import pytest

from repro.netflow import FlowBatch


def test_popular_ports_cover_synthetic_benign_traffic(trace):
    """The hard-coded Appendix-D ports carry most of the benign mix's
    sampling-compensated bytes."""
    from repro.netflow import POPULAR_PORTS
    from repro.synth import BenignConfig, BenignTrafficModel

    benign = BenignTrafficModel(
        trace.world.benign_clients, trace.world.country_of,
        BenignConfig(minutes_per_day=120),
        rng=np.random.default_rng(0),
    )
    flows = FlowBatch.concat(
        [benign.flows_at(trace.world.customers[0], minute) for minute in range(30)]
    )
    weights = flows.estimated_bytes()
    popular = np.isin(flows.array["src_port"], POPULAR_PORTS)
    assert weights[popular].sum() > 0.5 * weights.sum()


@pytest.mark.slow
class TestPerTypePipeline:
    @pytest.fixture(scope="class")
    def per_type_result(self):
        from repro.core import PipelineConfig, TrainConfig, XatuPipeline
        from tests.conftest import small_model_config, small_scenario

        config = PipelineConfig(
            scenario=small_scenario(),
            model=small_model_config(),
            train=TrainConfig(epochs=3, batch_size=8, learning_rate=3e-3),
            overhead_bound=0.25,
            per_type=True,
            min_events_per_type=4,
        )
        pipeline = XatuPipeline(config)
        return pipeline, pipeline.run()

    def test_registry_attached(self, per_type_result):
        pipeline, _result = per_type_result
        assert hasattr(pipeline, "registry")
        assert "_default" in pipeline.registry.entries

    def test_metrics_valid(self, per_type_result):
        _pipeline, result = per_type_result
        assert 0.0 <= result.effectiveness.median <= 1.0
        assert np.isfinite(result.delay.median)

    def test_frequent_type_has_model(self, per_type_result):
        pipeline, _result = per_type_result
        typed = [k for k in pipeline.registry.entries if k != "_default"]
        assert typed, "at least one per-type model expected on this seed"
