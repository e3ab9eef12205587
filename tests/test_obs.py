"""Tests for repro.obs: registry, tracing, exporters, wiring.

Covers the ISSUE checklist: histogram bucket edge cases (boundary values,
the +Inf bucket), tracer reentrancy and exception-safety, snapshot-vs-
reset isolation, a Prometheus exposition golden test, and the property
that enabling telemetry never changes model output bitwise.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.netflow import DatagramCodec, FlowBatch, FlowCollector, FlowRecord, SequenceTracker
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    obs_enabled,
    render_top,
    selftest,
    set_enabled,
    snapshot_from_json,
    telemetry,
    to_json,
    to_prometheus,
    trace,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with the global switch off and clean."""
    previous = set_enabled(False)
    get_registry().reset()
    get_tracer().reset()
    yield
    set_enabled(previous)
    get_registry().reset()
    get_tracer().reset()


# ----------------------------------------------------------------------
# registry: metric kinds
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("events", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("events")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_are_independent_series(self):
        c = MetricsRegistry().counter("events")
        c.inc(1, kind="a")
        c.inc(2, kind="b")
        c.inc(4)
        assert c.value(kind="a") == 1
        assert c.value(kind="b") == 2
        assert c.value() == 4

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("level")
        g.set(3.0)
        g.set(-1.5)
        assert g.value() == -1.5
        g.add(0.5)
        assert g.value() == -1.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus ``le`` semantics: value <= bound.
        h = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        h.observe(0.1)
        value = h.value()
        assert value.buckets == (0.1, 1.0, float("inf"))
        assert value.counts == (1, 0, 0)

    def test_values_between_and_beyond_buckets(self):
        h = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 1.0, 7.0):
            h.observe(v)
        value = h.value()
        assert value.counts == (2, 2, 1)  # 7.0 overflows into +Inf
        assert value.count == 5
        assert value.sum == pytest.approx(8.65)

    def test_inf_bucket_auto_appended_once(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, float("inf")))
        assert h.buckets == (1.0, float("inf"))

    def test_unsorted_buckets_are_sorted(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 0.1))
        assert h.buckets == (0.1, 1.0, float("inf"))

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(0.1, 0.1))

    def test_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(0.2, 1.0))
        # Same buckets re-request is fine.
        registry.histogram("h", buckets=(0.1, 1.0))

    def test_default_buckets_span_ms_to_seconds(self):
        assert DEFAULT_TIME_BUCKETS[0] == 0.001
        assert DEFAULT_TIME_BUCKETS[-1] == 10.0

    def test_quantile_estimates(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        value = h.value()
        assert 0.0 < value.quantile(0.25) <= 1.0
        assert value.quantile(0.0) >= 0.0
        assert value.quantile(1.0) <= 4.0
        with pytest.raises(ValueError):
            value.quantile(1.5)

    def test_empty_histogram_value(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        value = h.value()
        assert value.count == 0 and value.quantile(0.5) == 0.0


class TestEwma:
    def test_first_observation_seeds(self):
        e = MetricsRegistry().ewma("rate", alpha=0.5)
        e.observe(10.0)
        assert e.value() == 10.0

    def test_smoothing(self):
        e = MetricsRegistry().ewma("rate", alpha=0.5)
        e.observe(10.0)
        e.observe(20.0)
        assert e.value() == pytest.approx(15.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry().ewma("rate", alpha=0.0)


# ----------------------------------------------------------------------
# registry: snapshot / reset semantics
# ----------------------------------------------------------------------
class TestSnapshotReset:
    def test_snapshot_isolated_from_later_mutation(self):
        registry = MetricsRegistry()
        c = registry.counter("events")
        c.inc(5)
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        snap = registry.snapshot()
        c.inc(100)
        h.observe(0.1)
        assert snap.get("events").value() == 5
        assert snap.get("lat").value().count == 1

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        c = registry.counter("events")
        c.inc(5)
        registry.reset()
        assert registry.names() == ["events"]
        assert c.value() == 0
        # Bucket layout survives reset.
        h = registry.histogram("lat", buckets=(0.5, 2.0))
        h.observe(1.0)
        registry.reset()
        assert registry.histogram("lat", buckets=(0.5, 2.0)).value().count == 0

    def test_snapshot_survives_reset(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(7)
        snap = registry.snapshot()
        registry.reset()
        assert snap.get("events").value() == 7

    def test_switch_default_off_and_context_restores(self):
        assert not obs_enabled()
        with telemetry() as registry:
            assert obs_enabled()
            assert registry is get_registry()
            with telemetry(False):
                assert not obs_enabled()
            assert obs_enabled()
        assert not obs_enabled()


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_spans_record_nothing(self):
        with trace("quiet"):
            pass
        assert get_tracer().snapshot().children == ()

    def test_nesting_builds_a_tree(self):
        set_enabled(True)
        with trace("outer"):
            with trace("inner"):
                pass
            with trace("inner"):
                pass
        root = get_tracer().snapshot()
        outer = root.find("outer")
        assert outer is not None and outer.calls == 1
        inner = outer.find("inner")
        assert inner is not None and inner.calls == 2
        assert outer.exclusive_s <= outer.total_s

    def test_reentrancy_recursive_span_is_own_child(self):
        set_enabled(True)

        @trace("fib")
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(5) == 5
        root = get_tracer().snapshot()
        top = root.find("fib")
        assert top is not None
        nested = top.find("fib")
        assert nested is not None
        # calls at depth 0 = 1 invocation; recursion accounted below it.
        assert top.calls == 1
        assert nested.calls > 1

    def test_exception_safety_closes_span(self):
        set_enabled(True)
        with pytest.raises(RuntimeError):
            with trace("boom"):
                raise RuntimeError("body failed")
        node = get_tracer().snapshot().find("boom")
        assert node is not None and node.calls == 1
        # The stack unwound: a new span nests at top level again.
        with trace("after"):
            pass
        root = get_tracer().snapshot()
        assert root.find("after") is not None
        assert root.find("boom").find("after") is None

    def test_decorator_preserves_metadata_and_return(self):
        @trace("named")
        def documented():
            """docstring"""
            return 42

        assert documented() == 42
        assert documented.__doc__ == "docstring"

    def test_span_json_round_trip(self):
        set_enabled(True)
        with trace("a"):
            with trace("b"):
                pass
        from repro.obs import SpanNode

        root = get_tracer().snapshot()
        rebuilt = SpanNode.from_json(json.loads(json.dumps(root.to_json())))
        assert rebuilt.find("b").calls == root.find("b").calls

    def test_dedicated_tracer_reset(self):
        tracer = Tracer()
        set_enabled(True)
        with tracer.span("x"):
            pass
        assert tracer.snapshot().find("x") is not None
        tracer.reset()
        assert tracer.snapshot().children == ()


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        c = registry.counter("train.steps", "optimizer steps")
        c.inc(3)
        registry.gauge("train.loss", "last loss").set(0.25)
        h = registry.histogram("train.step_seconds", "step time", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):
            h.observe(v)
        registry.counter("online.alerts").inc(2, severity="high")
        return registry

    def test_prometheus_golden(self):
        text = to_prometheus(self._registry().snapshot())
        expected = (
            "# HELP repro_train_steps_total optimizer steps\n"
            "# TYPE repro_train_steps_total counter\n"
            "repro_train_steps_total 3"
        )
        assert expected in text
        lines = text.splitlines()
        assert "# TYPE repro_train_step_seconds histogram" in lines
        assert 'repro_train_step_seconds_bucket{le="0.1"} 2' in lines
        assert 'repro_train_step_seconds_bucket{le="1"} 3' in lines
        assert 'repro_train_step_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_train_step_seconds_sum 2.65" in lines
        assert "repro_train_step_seconds_count 4" in lines
        assert 'repro_online_alerts_total{severity="high"} 2' in lines
        assert "repro_train_loss 0.25" in lines

    def test_json_round_trip_is_identity(self):
        snapshot = self._registry().snapshot()
        doc = to_json(snapshot)
        rebuilt = snapshot_from_json(json.loads(json.dumps(doc)))
        assert to_json(rebuilt, host=doc["host"]) == doc

    def test_json_serializes_inf_as_string(self):
        doc = to_json(self._registry().snapshot())
        hist = next(m for m in doc["metrics"] if m["kind"] == "histogram")
        assert hist["samples"][0]["buckets"][-1] == "+Inf"
        json.dumps(doc)  # must be valid JSON (no bare Infinity)

    def test_render_top_covers_all_kinds(self):
        registry = self._registry()
        registry.ewma("online.flow_rate").observe(12.0)
        set_enabled(True)
        with trace("train.fit"):
            pass
        text = render_top(
            registry.snapshot(), get_tracer().snapshot(), {"python": "3.x"}
        )
        for needle in ("train.steps", "p90", "train.fit", "online.alerts{"):
            assert needle in text

    def test_selftest_is_clean(self):
        assert selftest() == []

    def test_version_check(self):
        with pytest.raises(ValueError):
            snapshot_from_json({"format_version": 99, "metrics": []})


# ----------------------------------------------------------------------
# telemetry must never change numerics (bitwise)
# ----------------------------------------------------------------------
class TestBitwiseNeutrality:
    def test_model_output_bitwise_identical(self):
        from repro.core import XatuModel
        from tests.conftest import small_model_config

        config = small_model_config()
        model = XatuModel(config)
        model.eval()
        for seed in range(3):
            x = np.random.default_rng(seed).normal(
                size=(2, config.lookback_minutes, config.n_features)
            )
            baseline = model.survival_np(x)
            with telemetry():
                with trace("check"):
                    enabled = model.survival_np(x)
            assert baseline.tobytes() == enabled.tobytes()

    def test_training_bitwise_identical(self):
        from repro.core import TrainConfig, XatuModel, XatuTrainer
        from repro.bench.train import _synthetic_samples
        from tests.conftest import small_model_config

        config = small_model_config()
        samples = _synthetic_samples(config, 6, np.random.default_rng(0))

        def run(enabled: bool) -> list[bytes]:
            model = XatuModel(config)
            trainer = XatuTrainer(
                model, TrainConfig(epochs=2, batch_size=3, seed=0)
            )
            if enabled:
                with telemetry():
                    trainer.fit(samples)
            else:
                trainer.fit(samples)
            return [p.data.tobytes() for p in model.parameters()]

        assert run(False) == run(True)


# ----------------------------------------------------------------------
# instrumented call sites
# ----------------------------------------------------------------------
def _flow(i: int) -> FlowRecord:
    return FlowRecord(
        timestamp=0, src_addr=1000 + i, dst_addr=42, src_port=80,
        dst_port=443, protocol=6, packets=1, bytes_=100,
    )


class TestFeedHealth:
    def test_collector_gap_accounting(self):
        codec = DatagramCodec(engine_id=3)
        collector = FlowCollector()
        blobs = [codec.encode(FlowBatch.from_records([_flow(i), _flow(i + 50)])) for i in range(4)]
        collector.ingest_datagram(blobs[0])
        # blobs[1] dropped in transit.
        collector.ingest_datagram(blobs[2])
        collector.ingest_datagram(blobs[3])
        health = collector.feed_health()
        assert health.datagrams_received == 3
        assert health.records_received == 6
        assert health.records_lost == 2
        assert health.datagrams_reordered == 0
        assert health.loss_rate == pytest.approx(2 / 8)
        assert len(collector.drain_batch()) == 6

    def test_reorder_detection(self):
        codec = DatagramCodec()
        collector = FlowCollector()
        first = codec.encode(FlowBatch.from_records([_flow(0)]))
        second = codec.encode(FlowBatch.from_records([_flow(1)]))
        collector.ingest_datagram(second)
        collector.ingest_datagram(first)  # arrives late
        assert collector.feed_health().datagrams_reordered == 1

    def test_tracker_counters_reach_registry(self):
        tracker = SequenceTracker()
        codec = DatagramCodec()
        blobs = [codec.encode(FlowBatch.from_records([_flow(i)])) for i in range(3)]
        set_enabled(True)
        tracker.observe(DatagramCodec.decode_batch(blobs[0])[0])
        tracker.observe(DatagramCodec.decode_batch(blobs[2])[0])  # one lost
        registry = get_registry()
        assert registry.counter("netflow.datagrams").value() == 2
        assert registry.counter("netflow.records").value() == 2
        assert registry.counter("netflow.records_lost").value() == 1
        assert registry.gauge("netflow.loss_rate").value() == pytest.approx(1 / 3)


class TestTrainerInstrumentation:
    def _fit(self, progress=None):
        from repro.bench.train import _synthetic_samples
        from repro.core import TrainConfig, XatuModel, XatuTrainer
        from tests.conftest import small_model_config

        config = small_model_config()
        samples = _synthetic_samples(config, 6, np.random.default_rng(0))
        trainer = XatuTrainer(
            XatuModel(config), TrainConfig(epochs=2, batch_size=3, seed=0)
        )
        return trainer.fit(samples, progress=progress)

    def test_metrics_and_spans_recorded(self):
        set_enabled(True)
        self._fit()
        registry = get_registry()
        assert registry.counter("train.steps").value() == 4
        assert registry.counter("train.epochs").value() == 2
        assert registry.counter("train.samples").value() == 12
        assert registry.histogram("train.step_seconds").value().count == 4
        assert registry.gauge("train.loss").value() > 0
        root = get_tracer().snapshot()
        assert root.find("train.fit").calls == 1
        assert root.find("train.epoch").calls == 2

    def test_progress_callback_without_telemetry(self):
        seen = []
        result = self._fit(progress=seen.append)
        assert not obs_enabled()
        assert [p.epoch for p in seen] == [1, 2]
        assert seen[0].epochs == 2
        assert seen[0].steps == 2
        assert seen[0].train_loss == pytest.approx(result.train_losses[0])
        assert seen[0].epoch_seconds > 0
        assert seen[0].mean_step_seconds > 0
        assert seen[0].val_loss is None
        # Nothing leaked into the global registry (registrations may
        # survive earlier tests' reset, but every series must be zero).
        steps = get_registry().get("train.steps")
        assert steps is None or steps.value() == 0


class TestOnlineAndScrubInstrumentation:
    def test_observe_minute_metrics(self):
        from repro.core import XatuModel
        from repro.netflow import RouteTable
        from repro.core.online import OnlineXatu
        from repro.signals.features import FeatureScaler, N_FEATURES
        from tests.conftest import small_model_config

        config = small_model_config()
        scaler = FeatureScaler()
        scaler.mean_ = np.zeros(N_FEATURES)
        scaler.std_ = np.ones(N_FEATURES)
        online = OnlineXatu(
            model=XatuModel(config),
            scaler=scaler,
            threshold=0.5,
            customer_of={42: 0},
            blocklist=set(),
            route_table=RouteTable(),
        )
        set_enabled(True)
        online.step(0, FlowBatch.from_records([_flow(0), _flow(1)]))
        unknown = FlowRecord(
            timestamp=1, src_addr=9, dst_addr=777, src_port=1, dst_port=2,
            protocol=6, packets=1, bytes_=10,
        )
        online.step(1, FlowBatch.from_records([unknown]))
        registry = get_registry()
        assert registry.counter("online.minutes").value() == 2
        assert registry.counter("online.flows").value() == 2
        assert registry.counter("online.flows_unrouted").value() == 1
        assert registry.gauge("online.watched_customers").value() == 1
        assert registry.histogram("online.batch_score_seconds").value().count == 2
        root = get_tracer().snapshot()
        assert root.find("online.observe_minute").calls == 2
        assert root.find("online.score_customers") is not None

    def test_scrub_account_metrics(self, trace):
        from repro.scrub import DiversionWindow, ScrubbingCenter

        set_enabled(True)
        center = ScrubbingCenter(trace)
        event = trace.events[0]
        center.account(
            [DiversionWindow(event.customer_id, event.onset, event.end)]
        )
        registry = get_registry()
        assert registry.counter("scrub.diversion_windows").value() == 1
        assert registry.counter("scrub.diverted_minutes").value() > 0
        assert get_tracer().snapshot().find("scrub.account").calls == 1


# ----------------------------------------------------------------------
# bench integration
# ----------------------------------------------------------------------
class TestBenchObs:
    @staticmethod
    def _payload(best_s: float, smoke: bool = False) -> dict:
        """A hand-built one-row ``train`` payload stamped with this host."""
        from repro.bench import bench_report

        rows = {"pooling/fused": {"best_s": best_s}}
        return bench_report("train", smoke, {"pooling": {"steps": 1430}}, rows)

    def test_host_metadata_in_bench_json(self, tmp_path):
        from repro.bench import (
            load_bench_json,
            obs_overheads,
            run_train,
            write_bench_json,
        )

        payload = run_train(smoke=True, cases=("pooling", "train_epoch_obs"))
        loaded = load_bench_json(write_bench_json(payload, tmp_path))
        host = loaded["host"]
        for key in ("python", "numpy", "machine", "system", "cpu_count",
                    "nproc", "blas_threads"):
            assert key in host
        assert "train_epoch_obs/enabled" in loaded["rows"]
        assert "train_epoch_obs" in obs_overheads(loaded)

    def test_compare_host_mismatch_warns(self):
        from repro.bench import compare

        fresh = self._payload(0.01)
        # Identical run against itself: no failures.
        assert compare(fresh, fresh) == ([], [])
        # Slower rerun on a mismatched host: warning, not failure.
        slow = self._payload(0.01 / 100.0)
        slow["host"]["python"] = "0.0.0"
        warnings, failures = compare(fresh, slow)
        assert failures == []
        assert any("host differs" in w for w in warnings)
        assert any("slower" in w for w in warnings)
        # Each host field alone demotes: the one rule `make e2e-compare`
        # applies too.
        from repro.bench.harness import HOST_FIELDS, host_differences

        assert HOST_FIELDS == ("python", "numpy", "machine", "nproc")
        for field in HOST_FIELDS:
            slow = self._payload(0.01 / 100.0)
            slow["host"][field] = "elsewhere"
            assert host_differences(slow["host"], fresh["host"]) == [field]
            warnings, failures = compare(fresh, slow)
            assert failures == [], field
            assert any("host differs" in w and field in w for w in warnings)

    def test_compare_demotes_a_cpu_count_mismatch(self):
        """A baseline recorded with another usable CPU count says nothing
        about this host's timings: 100x slower rows only warn."""
        from repro.bench import compare

        baseline = self._payload(0.01 / 100.0)
        baseline["host"]["nproc"] += 1
        warnings, failures = compare(self._payload(0.01), baseline)
        assert failures == []
        assert any("host differs" in w and "nproc" in w for w in warnings)
        assert any("slower" in w for w in warnings)

    def test_compare_flags_regression_on_same_host(self, tmp_path):
        from repro.bench import compare, load_bench_json, run_train, write_bench_json

        # Full-size run: smoke timings are single-rep noise and never fail.
        payload = run_train(cases=("pooling",), reps=1)
        baseline = load_bench_json(write_bench_json(payload, tmp_path))
        for row in baseline["rows"].values():
            row["best_s"] = row["best_s"] / 100.0
        warnings, failures = compare(payload, baseline)
        assert any("slower" in f for f in failures)

    def test_compare_demotes_smoke_regressions_to_warnings(self):
        from repro.bench import compare

        warnings, failures = compare(
            self._payload(0.01, smoke=True), self._payload(0.0001, smoke=True)
        )
        assert failures == []
        assert any("smoke mode" in w for w in warnings)
        assert any("slower" in w for w in warnings)

    def test_obs_overhead_render(self):
        from repro.bench import obs_overheads, render_train, run_train

        payload = run_train(smoke=True, cases=("train_epoch_obs",))
        assert "telemetry overhead" in render_train(payload)
        assert "train_epoch_obs" in obs_overheads(payload)

    def test_compare_gates_scale_memory_not_speed(self):
        """The scale suite owns peak RSS; serving speed is the e2e suite's
        number, so a cell's engine-only rate is recorded and never gated."""
        from repro.bench import bench_report, compare, gates, render_scale

        def payload(rss_mb, minutes_per_s, smoke=False, cell="10k"):
            row = {
                "n_customers": 10_000, "flows": 1_000,
                "minutes_per_s": minutes_per_s, "peak_rss_mb": rss_mb,
            }
            sizes = {"minutes": 120, "shards": 2, "seed": 7}
            return bench_report("scale", smoke, sizes, {cell: row})

        baseline = payload(100.0, 20.0)
        assert compare(payload(100.0, 1.0), baseline) == ([], [])
        warnings, failures = compare(payload(200.0, 20.0), baseline)
        assert warnings == [] and any("fatter" in f for f in failures)
        # the shared comparability rule: smoke runs only ever warn
        warnings, failures = compare(
            payload(200.0, 20.0, smoke=True), payload(100.0, 20.0, smoke=True)
        )
        assert failures == [] and any("fatter" in w for w in warnings)
        assert "min/s" not in render_scale(baseline)
        # the host-independent gates: an absolute bound and the 1M/100k ratio
        assert gates(baseline) == []
        assert any("memory gate" in f for f in gates(payload(600.0, 20.0)))
        ratio = payload(100.0, 20.0, cell="100k")
        ratio["rows"]["1m"] = dict(ratio["rows"]["100k"], peak_rss_mb=250.0)
        assert any("scale gate" in f for f in gates(ratio))


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_metrics_selftest(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--selftest"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_metrics_requires_path(self, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 2

    def test_metrics_renders_written_telemetry(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import write_telemetry

        registry = MetricsRegistry()
        registry.counter("train.steps", "steps").inc(5)
        path = tmp_path / "telemetry.json"
        write_telemetry(path, registry.snapshot())
        assert main(["metrics", str(path)]) == 0
        assert "train.steps" in capsys.readouterr().out
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        assert "repro_train_steps_total 5" in capsys.readouterr().out
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert '"format_version"' in capsys.readouterr().out

    def test_bench_check_without_baseline(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "bench", "--smoke", "--only", "pooling",
            "--check", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "nothing to check against" in capsys.readouterr().out

    def test_bench_check_against_fresh_baseline(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench", "--smoke", "--only", "pooling", "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--smoke", "--only", "pooling",
            "--check", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "check against" in out
        # --check never rewrites the baseline.
        assert "wrote" not in out
