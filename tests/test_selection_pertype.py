"""Tests for Appendix-D feature selection and the per-type pipeline mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import FlowBatch
from repro.signals import CoverageReport, coverage_by_key, select_covering
from tests.test_netflow import make_flow


def batch(*flows) -> FlowBatch:
    return FlowBatch.from_records(flows)


class TestCoverage:
    def make_flows(self):
        return batch(
            make_flow(src_port=443, bytes_=700),
            make_flow(src_port=443, bytes_=200),
            make_flow(src_port=80, bytes_=80),
            make_flow(src_port=53, bytes_=20),
        )

    def test_shares_ranked_descending(self):
        report = coverage_by_key(self.make_flows(), "src_port")
        shares = [share for _v, share in report.ranked]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_coverage_of_subset(self):
        report = coverage_by_key(self.make_flows(), "src_port")
        assert report.coverage_of([443]) == pytest.approx(0.9)
        assert report.coverage_of([443, 80]) == pytest.approx(0.98)

    def test_select_covering_reaches_target(self):
        report = coverage_by_key(self.make_flows(), "src_port")
        chosen = select_covering(report, target=0.95)
        assert chosen == [443, 80]

    def test_select_covering_full_when_unreachable(self):
        report = coverage_by_key(self.make_flows(), "src_port")
        assert len(select_covering(report, target=1.0)) == 3

    def test_invalid_target_rejected(self):
        report = coverage_by_key(self.make_flows(), "src_port")
        with pytest.raises(ValueError):
            select_covering(report, target=0.0)

    def test_empty_flows(self):
        report = coverage_by_key(FlowBatch.empty(), "src_port")
        assert report.ranked == ()
        assert select_covering(report) == []

    def test_custom_key_array(self):
        flows = self.make_flows()
        report = coverage_by_key(flows, flows.array["src_port"] >= 100)
        assert report.key_name == "custom"
        assert report.coverage_of([True]) == pytest.approx(0.9)
        with pytest.raises(ValueError, match="one value per flow"):
            coverage_by_key(flows, [True])

    def test_countries_come_out_decoded(self):
        flows = batch(
            make_flow(src_country="DE", bytes_=30),
            make_flow(src_country="US", bytes_=15),
            make_flow(src_country="DE", bytes_=40),
            make_flow(src_country="CN", bytes_=15),
        )
        report = coverage_by_key(flows, "src_country")
        # equal shares keep arrival order
        assert report.ranked == (("DE", 0.7), ("US", 0.15), ("CN", 0.15))

    def test_sampling_compensation_weights(self):
        flows = batch(
            make_flow(src_port=80, bytes_=10, sampling_rate=100),  # 1000 est
            make_flow(src_port=443, bytes_=500, sampling_rate=1),
        )
        report = coverage_by_key(flows, "src_port")
        assert report.ranked[0][0] == 80

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), target=st.floats(0.1, 0.99))
    def test_select_covering_minimal_property(self, seed, target):
        """The selection covers the target and no proper prefix does."""
        rng = np.random.default_rng(seed)
        flows = batch(*(
            make_flow(src_port=int(p), bytes_=int(b))
            for p, b in zip(
                rng.integers(1, 20, size=15), rng.integers(1, 10000, size=15)
            )
        ))
        report = coverage_by_key(flows, "src_port")
        chosen = select_covering(report, target=target)
        assert report.coverage_of(chosen) >= min(target, 1.0) - 1e-9
        if len(chosen) > 1:
            assert report.coverage_of(chosen[:-1]) < target

    def test_popular_ports_cover_synthetic_benign_traffic(self, trace):
        """The hard-coded Appendix-D ports dominate the benign mix."""
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
        report = coverage_by_key(flows, "src_port")
        assert report.coverage_of(POPULAR_PORTS) > 0.5


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
