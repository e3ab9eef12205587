"""The scenario matrix subsystem (repro.scenarios).

Three layers, cheapest first:

* **catalog** — the registry's shape contracts: the acceptance floor of
  ≥ 10 scenarios (6 paper types + ≥ 4 new families + drift), unique
  names, the CI subset, and the drift band's zero-FP Xatu budgets;
* **synth knobs** — the new generator families behave as specified:
  pinned attack types, carpet bombing's many simultaneous low-rate
  victims, pulse-wave off-phases, multi-vector signature chains, prep
  damping, benign drift, and single-seed reproducibility;
* **matrix** — the evaluation semantics (event matching, prep-window
  classification, diversion dedup of false alerts), the report gates
  (budgets, compare-vs-baseline), a tiny CDet-only end-to-end run
  that must be deterministic, and the precision gate (the served float32
  lane against the float64 ``xatu`` lane) on a tiny world.

The carpet-bombing truth records are seed-locked in
``tests/fixtures/carpet_bombing_truth.json`` so generator refactors
can't silently change the flagship adversarial workload.  To re-record
after an *intentional* generator change::

    PYTHONPATH=src:. python -c \
        "from tests.test_scenarios import record_carpet_fixture; \
         record_carpet_fixture()"
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import OnlineXatu, XatuModel
from repro.eval.streaming import stream_trace
from repro.scenarios import (
    CI_SCENARIOS,
    DETECTOR_LANES,
    MatrixConfig,
    PrecisionGate,
    ScenarioSpec,
    TrainedArtifacts,
    all_specs,
    budget_failures,
    compare_reports,
    get_spec,
    load_report,
    precision_gate,
    render_precision,
    render_report,
    run_matrix,
    scenario_names,
    write_report,
)
from repro.scenarios.matrix import _evaluate_lane, _lane_alerts, _match_event
from repro.signals import FeatureScaler
from repro.synth import (
    ATTACK_FAMILIES,
    BENIGN_DRIFTS,
    AttackType,
    ScenarioConfig,
    TraceGenerator,
)
from tests.conftest import small_model_config

FIXTURE = Path(__file__).parent / "fixtures" / "carpet_bombing_truth.json"


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_acceptance_floor(self):
        specs = all_specs()
        assert len(specs) >= 10
        families = {s.family for s in specs}
        assert families == {"paper", "adversarial", "drift", "scale"}
        assert sum(s.family == "paper" for s in specs) == 6
        assert sum(s.family == "adversarial" for s in specs) >= 4
        assert sum(s.family == "drift" for s in specs) >= 1
        assert sum(s.family == "scale" for s in specs) >= 1

    def test_names_unique_and_resolvable(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        for name in names:
            assert get_spec(name).name == name
        with pytest.raises(KeyError, match="unknown scenario"):
            get_spec("no-such-scenario")

    def test_ci_subset_is_registered_and_covers_bands(self):
        assert set(CI_SCENARIOS) <= set(scenario_names())
        assert {get_spec(n).family for n in CI_SCENARIOS} == {
            "paper", "adversarial", "drift",
        }

    def test_drift_scenarios_are_attack_free_with_zero_xatu_budget(self):
        drift = [s for s in all_specs() if s.family == "drift"]
        assert drift
        for spec in drift:
            assert not spec.expect_alerts
            assert spec.config.attack_free
            assert spec.config.benign_drift in BENIGN_DRIFTS
            # the contract: Xatu holds zero false alerts under drift,
            # while the CDets get explicit (measured) budgets
            assert spec.fp_budget["xatu"] == 0
            assert spec.fp_budget["xatu_serve"] == 0
            assert spec.fp_budget["netscout"] > 0
            assert spec.fp_budget["fastnetmon"] > 0

    def test_adversarial_band_covers_the_new_families(self):
        adversarial = [s for s in all_specs() if s.family == "adversarial"]
        families = {s.config.attack_family for s in adversarial}
        assert {"carpet_bombing", "pulse_wave", "multi_vector"} <= families
        assert set(families) <= set(ATTACK_FAMILIES)
        dampings = {s.config.prep_damping for s in adversarial}
        assert any(d > 0 for d in dampings)  # adaptive-prep present


# ----------------------------------------------------------------------
# synth knobs behind the new families
# ----------------------------------------------------------------------
def _generate(name: str):
    return TraceGenerator(get_spec(name).config).materialize()


class TestNewFamilies:
    def test_fixed_attack_type_pins_every_event(self):
        trace = _generate("paper-tcp-syn")
        assert trace.events
        assert {e.attack_type for e in trace.events} == {AttackType.TCP_SYN}

    def test_carpet_bombing_is_simultaneous_and_low_rate(self):
        trace = _generate("carpet-bombing")
        spec = get_spec("carpet-bombing")
        # one wave per round, each spread over every customer of the prefix
        victims = {e.customer_id for e in trace.events}
        assert len(victims) == spec.config.n_customers
        waves: dict[int, list] = {}
        for event in trace.events:
            waves.setdefault(event.onset // 60, []).append(event)
        for wave in waves.values():
            onsets = [e.onset for e in wave]
            assert max(onsets) - min(onsets) <= 5  # staggered by minutes
            assert len({e.customer_id for e in wave}) == len(wave)
        # per-victim rate stays under the 2x-profile volumetric threshold
        base_of = {
            c.customer_id: c.base_rate_bytes for c in trace.world.customers
        }
        for event in trace.events:
            assert event.peak_bytes <= 2.0 * base_of[event.customer_id]

    def test_pulse_wave_has_quiet_off_phases(self):
        trace = _generate("pulse-wave")
        config = get_spec("pulse-wave").config
        assert trace.events
        import numpy as np

        period = config.pulse_period
        on = int(config.pulse_duty * period)
        for event in trace.events:
            series = event.anomalous_bytes
            phase = np.arange(len(series)) % period
            on_minutes = series[phase < on]
            off_minutes = series[phase >= on]
            assert (on_minutes > 0).all()
            # off-phases carry at most residual spillover — an order of
            # magnitude below the flood, so sustain logic sees a gap
            assert np.median(off_minutes) < 0.1 * np.median(on_minutes)

    def test_multi_vector_chains_signatures(self):
        trace = _generate("multi-vector")
        assert trace.events
        for event in trace.events:
            assert event.attack_type == AttackType.UDP_FLOOD  # first vector
            assert len(event.extra_signatures) == 2
            # the chain spans both transports: UDP flood plus two distinct
            # TCP vectors (SYN, ACK) with their own diversion signatures
            shapes = {
                (s.protocol, s.tcp_flags)
                for s in (event.signature, *event.extra_signatures)
            }
            assert len(shapes) == 3
            assert {proto for proto, _flags in shapes} == {6, 17}

    def test_prep_damping_thins_the_preparation_phase(self):
        loud = _generate("paper-udp-flood")
        quiet = _generate("adaptive-prep-85")
        # both scenarios schedule real preps...
        assert any(not p.aborted for p in loud.preps)
        assert any(not p.aborted for p in quiet.preps)
        # ...but the damped attacker emits far fewer probe flows overall
        assert quiet.total_flows < loud.total_flows

    def test_attack_free_drift_has_no_events(self):
        trace = _generate("drift-flash-crowd")
        assert trace.events == []
        assert trace.preps == []
        assert trace.total_flows > 0

    def test_single_seed_reproducibility(self):
        a = _generate("carpet-bombing")
        b = _generate("carpet-bombing")
        assert [e.onset for e in a.events] == [e.onset for e in b.events]
        assert a.total_flows == b.total_flows
        assert a.sampled_flows == b.sampled_flows


# ----------------------------------------------------------------------
# seed-locked carpet-bombing truth records
# ----------------------------------------------------------------------
def _carpet_truth() -> dict:
    from dataclasses import asdict

    trace = _generate("carpet-bombing")
    return {
        "scenario": "carpet-bombing",
        "seed": trace.config.seed,
        "horizon": trace.horizon,
        "total_flows": trace.total_flows,
        "sampled_flows": trace.sampled_flows,
        "events": [
            {
                "event_id": e.event_id,
                "customer_id": e.customer_id,
                "customer_address": e.customer_address,
                "attack_type": e.attack_type.value,
                "onset": e.onset,
                "end": e.end,
                "peak_bytes": round(e.peak_bytes, 6),
                "campaign_id": e.campaign_id,
                "botnet_id": e.botnet_id,
                "n_attackers": len(e.attackers),
                "signature": asdict(e.signature),
            }
            for e in trace.events
        ],
        "preps": [
            {
                "customer_id": p.customer_id,
                "start": p.start,
                "end": p.end,
                "aborted": p.aborted,
                "spoofed_fraction": round(p.spoofed_fraction, 6),
            }
            for p in trace.preps
        ],
    }


def record_carpet_fixture() -> Path:
    """Re-record the fixture after an intentional generator change."""
    FIXTURE.write_text(json.dumps(_carpet_truth(), indent=2) + "\n")
    return FIXTURE


class TestCarpetBombingFixture:
    def test_truth_records_match_the_committed_fixture(self):
        committed = json.loads(FIXTURE.read_text())
        assert _carpet_truth() == committed, (
            "carpet-bombing truth records drifted from the committed "
            "fixture; if the generator change is intentional, re-record "
            "via tests.test_scenarios.record_carpet_fixture()"
        )


# ----------------------------------------------------------------------
# matrix evaluation semantics (no training required)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def drift_trace():
    return _generate("drift-diurnal-shift")


@pytest.fixture(scope="module")
def carpet_trace():
    return _generate("carpet-bombing")


class TestEvaluationSemantics:
    def test_event_matching_honours_margins(self, carpet_trace):
        config = MatrixConfig(detectors=("netscout",))
        event = carpet_trace.events[0]
        cid = event.customer_id
        inside = _match_event(carpet_trace, cid, event.onset, config)
        early = _match_event(
            carpet_trace, cid, event.onset - config.early_margin, config
        )
        too_early = _match_event(
            carpet_trace, cid, event.onset - config.early_margin - 60, config
        )
        assert inside is not None and early is not None
        assert inside.event_id == event.event_id
        assert too_early is None or too_early.event_id != event.event_id

    def test_false_alerts_dedup_by_diversion(self, drift_trace):
        config = MatrixConfig(detectors=("netscout",))
        # three alerts inside one 10-minute diversion => one false alert
        alerts = [(0, 100), (0, 104), (0, 108)]
        metrics, _ = _evaluate_lane(drift_trace, alerts, config)
        assert metrics["false_alerts"] == 1
        # a fourth alert past the diversion opens a second incident
        metrics, _ = _evaluate_lane(drift_trace, alerts + [(0, 140)], config)
        assert metrics["false_alerts"] == 2

    def test_prep_window_alerts_are_not_false(self, carpet_trace):
        config = MatrixConfig(detectors=("netscout",))
        prep = next(p for p in carpet_trace.preps if not p.aborted)
        alerts = [(prep.customer_id, prep.start)]
        metrics, first = _evaluate_lane(carpet_trace, alerts, config)
        # the alert is either early-matched to the event or classed as a
        # prep alert — never a benign false alarm
        assert metrics["false_alerts"] == 0
        assert metrics["prep_alerts"] + len(first) == 1

    def test_detection_delay_is_signed(self, carpet_trace):
        config = MatrixConfig(detectors=("netscout",))
        event = carpet_trace.events[0]
        alerts = [(event.customer_id, event.onset - 5)]
        metrics, first = _evaluate_lane(carpet_trace, alerts, config)
        assert first == {event.event_id: event.onset - 5}
        assert metrics["median_delay_minutes"] == -5.0


# ----------------------------------------------------------------------
# report gates + a tiny CDet-only end-to-end run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cdet_report():
    config = MatrixConfig(detectors=("netscout", "fastnetmon"))
    report, _gates = run_matrix(["drift-diurnal-shift"], config)
    return report


class TestReportAndGates:
    def test_config_rejects_unknown_lane(self):
        with pytest.raises(ValueError, match="unknown detector lane"):
            MatrixConfig(detectors=("netscout", "snort"))
        assert MatrixConfig().detectors == DETECTOR_LANES

    def test_cdet_only_run_is_deterministic(self, cdet_report):
        config = MatrixConfig(detectors=("netscout", "fastnetmon"))
        again, gates = run_matrix(["drift-diurnal-shift"], config)
        assert json.dumps(cdet_report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert gates == {}  # no Xatu lane, no precision gate
        assert cdet_report["train"] is None  # no model was trained

    def test_report_round_trip_and_version_gate(self, cdet_report, tmp_path):
        path = write_report(cdet_report, tmp_path)
        assert load_report(path) == cdet_report
        bad = dict(cdet_report, format_version=99)
        (tmp_path / "SCENARIOS.json").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="unsupported"):
            load_report(tmp_path / "SCENARIOS.json")

    def test_budgets_hold_on_the_measured_run(self, cdet_report):
        assert budget_failures(cdet_report) == []
        assert "drift-diurnal-shift" in render_report(cdet_report)

    def test_budget_gate_fires_on_violation(self, cdet_report):
        inflated = copy.deepcopy(cdet_report)
        scenario = inflated["scenarios"]["drift-diurnal-shift"]
        scenario["results"]["netscout"]["false_alerts"] = 10_000
        failures = budget_failures(inflated)
        assert failures and "netscout" in failures[0]

    def test_compare_passes_against_itself(self, cdet_report):
        warnings, failures = compare_reports(cdet_report, cdet_report)
        assert failures == []
        assert warnings == []

    def test_compare_fails_on_detection_regression(self, cdet_report):
        regressed = copy.deepcopy(cdet_report)
        result = regressed["scenarios"]["drift-diurnal-shift"]["results"]
        result["netscout"]["false_alerts_per_kcm"] += 5.0
        _warnings, failures = compare_reports(regressed, cdet_report)
        assert any("false-alert rate" in f for f in failures)

    def test_compare_skips_pairs_missing_from_baseline(self, cdet_report):
        baseline = copy.deepcopy(cdet_report)
        del baseline["scenarios"]["drift-diurnal-shift"]
        warnings, failures = compare_reports(cdet_report, baseline)
        assert failures == []
        assert any("not in baseline" in w for w in warnings)


# ----------------------------------------------------------------------
# precision gate: the served float32 lane against the float64 xatu lane
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_world():
    """Two days of three customers and an untrained model: a threshold of
    0.9 makes it alert, which is all the gate needs."""
    trace = TraceGenerator(
        ScenarioConfig(
            total_days=2, minutes_per_day=60, prep_days=0.5, n_customers=3,
            n_botnets=1, botnet_size=20, seed=5,
        )
    ).materialize()
    model = XatuModel(small_model_config())
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(273)
    scaler.std_ = np.ones(273)
    artifacts = TrainedArtifacts(
        model_config=model.config, model_state=model.state_dict(), scaler=scaler,
        threshold=0.9, train_seed=0, epochs=0,
    )
    return trace, artifacts


class TestPrecisionGate:
    def test_the_served_lane_raises_the_oracles_alerts(self, tiny_world):
        trace, artifacts = tiny_world
        oracle = _lane_alerts("xatu", trace, artifacts, MatrixConfig())
        bare = artifacts.make_online(
            trace, {c.address: c.customer_id for c in trace.world.customers}
        )
        assert oracle[0] == sorted(
            (a.customer_id, a.minute) for a in stream_trace(bare, trace)
        )
        assert oracle[0], "the workload should produce alerts"
        served = _lane_alerts(
            "xatu_serve", trace, artifacts, MatrixConfig(serve_shards=2)
        )
        gate = precision_gate(oracle, served, artifacts.threshold)
        assert gate.equal and gate.alerts == len(oracle[0])
        assert gate.customer_minutes == trace.horizon * len(trace.world.customers)
        assert 0 < gate.max_gap < gate.min_margin
        assert "tiny" in render_precision({"tiny": gate})

    def test_a_served_lane_that_decides_differently_fails(self, tiny_world, monkeypatch):
        trace, artifacts = tiny_world
        oracle = _lane_alerts("xatu", trace, artifacts, MatrixConfig())
        step = OnlineXatu.step

        def drops_first_alert(self, minute, flows):
            alerts = step(self, minute, flows)
            return alerts[1:] if self.inference_dtype == np.float32 else alerts

        monkeypatch.setattr(OnlineXatu, "step", drops_first_alert)
        served = _lane_alerts("xatu_serve", trace, artifacts, MatrixConfig())
        gate = precision_gate(oracle, served, artifacts.threshold)
        assert not gate.equal and gate.moved > 0

    def test_run_matrix_gates_every_world_running_both_xatu_lanes(
        self, tiny_world, monkeypatch
    ):
        import repro.scenarios.matrix as matrix

        trace, artifacts = tiny_world
        spec = ScenarioSpec("tiny", "paper", "three customers", trace.config)
        monkeypatch.setattr(matrix, "get_spec", lambda name: spec)
        report, gates = run_matrix(["tiny"], MatrixConfig(), artifacts=artifacts)
        assert list(gates) == ["tiny"] and gates["tiny"].equal
        results = report["scenarios"]["tiny"]["results"]
        assert gates["tiny"].alerts == results["xatu"]["alerts"]
        assert set(report) == {"format_version", "train", "matrix", "scenarios"}
        _report, gates = run_matrix(
            ["tiny"], MatrixConfig(detectors=("xatu",)), artifacts=artifacts
        )
        assert gates == {}  # no served lane to compare

    def test_a_moved_alert_fails_scenarios_check(self, cdet_report, monkeypatch, capsys):
        """The CLI prints the gate table and fails ``check`` on any moved
        alert, whatever the committed baseline says."""
        import repro.scenarios as scenarios
        from repro.cli import main

        def run_matrix_with_a_moved_alert(names, config, progress=None):
            return cdet_report, {
                "drift-diurnal-shift": PrecisionGate(
                    customer_minutes=10, alerts=1, moved=1, max_gap=1e-7,
                    min_margin=1e-9,
                )
            }

        monkeypatch.setattr(scenarios, "run_matrix", run_matrix_with_a_moved_alert)
        code = main(["scenarios", "check", "--only", "drift-diurnal-shift"])
        out = capsys.readouterr().out
        assert code == 1
        assert "precision gate" in out
        assert "REGRESSION: drift-diurnal-shift: 1 alert(s) differ" in out
