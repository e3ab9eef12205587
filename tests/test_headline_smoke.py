"""Smoke test for the HeadlineExperiment harness at minimal scale.

The benches exercise it thoroughly; this keeps a fast invariant check in
the unit suite so regressions surface without running benchmarks.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # full multi-system sweep; skip with -m "not slow"


@pytest.fixture()
def experiment(headline_experiment):
    return headline_experiment


class TestHeadlineSmoke:
    def test_sweep_produces_all_systems(self, experiment):
        rows = experiment.sweep([0.25], include_entropy=True)
        systems = {m.system for m in rows}
        assert systems == {"netscout", "fastnetmon", "entropy", "rf", "xatu"}

    def test_metric_ranges(self, experiment):
        for m in experiment.sweep([0.25]):
            assert 0.0 <= m.effectiveness_p10 <= m.effectiveness_median <= m.effectiveness_p90 <= 1.0
            assert m.overhead_p25 <= m.overhead_median <= m.overhead_p75 + 1e-12
            assert m.n_events >= 0

    def test_cdet_metrics_bound_independent(self, experiment):
        rows = experiment.sweep([0.1, 0.5])
        ns = [m for m in rows if m.system == "netscout"]
        assert ns[0].effectiveness_median == ns[1].effectiveness_median
        assert ns[0].delay_median == ns[1].delay_median

    def test_roc_points_valid(self, experiment):
        points = experiment.roc()
        assert {p.system for p in points} == {"xatu", "rf"}
        for p in points:
            assert 0.0 <= p.auc <= 1.0
            assert p.fpr[0] == 0.0 and p.fpr[-1] == 1.0
            assert (np.diff(p.fpr) >= 0).all()

    def test_per_type_returns_present_types(self, experiment):
        per_type = experiment.per_type(overhead_bound=0.25, min_events=1)
        lo, hi = experiment.eval_range
        present = {
            e.attack_type.value
            for e in experiment.trace.events
            if lo <= e.onset < hi
        }
        assert set(per_type) <= present

    def test_prepare_idempotent(self, experiment):
        model_before = experiment.model
        experiment.prepare()
        assert experiment.model is model_before
