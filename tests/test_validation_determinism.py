"""Scenario validation, pipeline determinism, and registry→online bridging."""

import numpy as np
import pytest

from repro.netflow import FlowBatch
from repro.synth import ScenarioConfig


class TestScenarioValidation:
    def test_defaults_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_days": 0},
            {"minutes_per_day": 0},
            {"prep_days": -1},
            {"prep_days": 200, "total_days": 100},
            {"n_customers": 0},
            {"n_botnets": 0},
            {"botnet_size": 0},
            {"sampling_rate": 0},
            {"sampling_rates": ()},
            {"sampling_rates": (1, 0)},
            {"rampup_volume_scale": 0.0},
            {"ramp_rate": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


class TestPipelineDeterminism:
    def test_same_seed_same_results(self):
        from repro.core import PipelineConfig, TrainConfig, XatuPipeline
        from tests.conftest import small_model_config

        def run_once():
            config = PipelineConfig(
                scenario=ScenarioConfig(
                    total_days=10, minutes_per_day=100, prep_days=1.5,
                    n_customers=5, n_botnets=2, botnet_size=60, seed=9,
                ),
                model=small_model_config(),
                train=TrainConfig(epochs=2, batch_size=8, learning_rate=3e-3),
                overhead_bound=0.25,
                seed=5,
            )
            return XatuPipeline(config).run()

        a = run_once()
        b = run_once()
        assert a.summary() == b.summary()
        assert a.train_losses == b.train_losses
        assert len(a.detection.alerts) == len(b.detection.alerts)


class TestSeedSweepDeterminism:
    """Same config + same seed must reproduce the trained model exactly —
    the precondition for the golden-trace harness (docs/TESTING.md)."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_two_full_trainer_runs_byte_identical(self, seed):
        import io

        from repro.testing import GoldenSpec, compute_golden_arrays

        def serialized_state(run_arrays):
            """npz-serialize the trained state exactly as save_module would."""
            state = {
                k.removeprefix("state/"): v
                for k, v in run_arrays.items()
                if k.startswith("state/")
            }
            assert state, "golden recipe produced no model parameters"
            buffer = io.BytesIO()
            np.savez(buffer, **state)
            return buffer.getvalue()

        spec = GoldenSpec(seed=seed)
        first = compute_golden_arrays(spec)
        second = compute_golden_arrays(spec)
        assert serialized_state(first) == serialized_state(second)
        # The full artifact set (losses, alerts, curves) matches too.
        assert set(first) == set(second)
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), name

    def test_different_seeds_differ(self):
        from repro.testing import GoldenSpec, compute_golden_arrays

        a = compute_golden_arrays(GoldenSpec(seed=7))
        b = compute_golden_arrays(GoldenSpec(seed=11))
        assert not np.array_equal(
            a["state/lstms.0.w_x"], b["state/lstms.0.w_x"]
        ), "seed must influence the trained weights"


class TestRegistryToOnline:
    def test_registry_entry_builds_working_detector(self, trace):
        """A trained registry entry carries everything a streaming detector
        needs beside the deployment context: model, scaler, threshold."""
        from repro.core import (
            OnlineXatu,
            TrainConfig,
            XatuModelRegistry,
            alerts_to_records,
        )
        from repro.detect import NetScoutDetector
        from repro.signals import FeatureExtractor
        from tests.conftest import small_model_config

        alerts = [a for a in NetScoutDetector().detect(trace) if a.event_id >= 0]
        extractor = FeatureExtractor(trace, alerts=alerts_to_records(trace, alerts))
        registry = XatuModelRegistry(
            small_model_config(), TrainConfig(epochs=1, batch_size=8)
        )
        registry.train(trace, extractor, alerts, (0, int(trace.horizon * 0.7)))
        registry.set_threshold("_default", 0.3)

        blocklist = set()
        for botnet in trace.world.botnets:
            blocklist.update(int(a) for a in botnet.blocklisted_members)
        entry = registry.entry_for(None)
        online = OnlineXatu(
            model=entry.model,
            scaler=entry.scaler,
            threshold=entry.threshold,
            customer_of={c.address: c.customer_id for c in trace.world.customers},
            blocklist=blocklist,
            route_table=trace.world.route_table,
        )
        assert online.threshold == 0.3
        online.step(0, FlowBatch.empty())
        assert online.current_minute == 0


@pytest.mark.slow
class TestEvasionCli:
    def test_evasion_command_runs(self, capsys):
        from repro.cli import main

        rc = main([
            "evasion", "--days", "12", "--customers", "6",
            "--epochs", "1", "--overhead-bound", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "evasive" in out
