"""The unified streaming Detector protocol (repro.detect.api).

Covers: structural conformance of all three deployable detectors, the
streaming CDet behaviour (causal thresholds, sustain/release), and the
eval driver streaming a trace through any protocol detector.
"""

import numpy as np
import pytest

from repro.core import OnlineXatu, XatuModel
from repro.detect import (
    Alert,
    Detector,
    FastNetMonDetector,
    NetScoutDetector,
    StreamAlert,
    TraceDetector,
    drive,
    infer_minute,
)
from repro.detect.entropy import EntropyDetector
from repro.eval import stream_trace
from repro.netflow import FlowRecord
from repro.signals import FeatureScaler
from tests.conftest import small_model_config


def _flow(minute, dst, src=7_000, bytes_=1_000, packets=10):
    return FlowRecord(
        timestamp=minute,
        src_addr=src,
        dst_addr=dst,
        src_port=1234,
        dst_port=443,
        protocol=6,
        packets=packets,
        bytes_=bytes_,
    )


def _online_xatu(trace):
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(273)
    scaler.std_ = np.ones(273)
    return OnlineXatu(
        model=XatuModel(small_model_config()),
        scaler=scaler,
        threshold=0.5,
        customer_of={c.address: c.customer_id for c in trace.world.customers},
        blocklist=set(),
        route_table=trace.world.route_table,
    )


class TestProtocolConformance:
    def test_all_three_detectors_satisfy_protocol(self, trace):
        detectors = [
            NetScoutDetector(),
            FastNetMonDetector(),
            _online_xatu(trace),
        ]
        for detector in detectors:
            assert isinstance(detector, Detector), type(detector).__name__
            assert isinstance(detector.name, str)

    def test_stream_alert_satisfies_alert(self):
        alert = StreamAlert(customer_id=1, minute=5, score=2.0, detector="netscout")
        assert isinstance(alert, Alert)

    def test_online_alert_satisfies_alert(self, trace):
        online = _online_xatu(trace)
        from repro.core import OnlineAlert

        alert = OnlineAlert(customer_id=1, minute=5, survival=0.4)
        assert isinstance(alert, Alert)
        assert alert.score == alert.survival
        assert alert.detector == "xatu"
        assert online.name == "xatu"

    def test_trace_detector_protocol_still_structural(self):
        assert isinstance(NetScoutDetector(), TraceDetector)
        assert isinstance(EntropyDetector(), TraceDetector)

    def test_infer_minute_advances_and_jumps(self):
        assert infer_minute(4, []) == 5
        assert infer_minute(4, [_flow(9, 1)]) == 9
        # flows never rewind the clock
        assert infer_minute(10, [_flow(3, 1)]) == 11


class TestStreamingCDet:
    def test_netscout_streams_sustained_excursion(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=3, release=2, profile_window=20
        )
        # 20 quiet profile minutes, then a sustained flood.
        for minute in range(20):
            detector.observe_minute([_flow(minute, dst=42, bytes_=1_000)])
        assert detector.poll_alerts() == []
        for minute in range(20, 26):
            detector.observe_minute([_flow(minute, dst=42, bytes_=500_000)])
        alerts = detector.poll_alerts()
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.customer_id == 42
        assert alert.minute == 22  # 3rd consecutive over-threshold minute
        assert alert.detector == "netscout"
        assert alert.score > 1.0

    def test_netscout_rearms_after_release(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=2, release=2, profile_window=10
        )
        for minute in range(10):
            detector.observe_minute([_flow(minute, dst=1, bytes_=1_000)])
        for minute in range(10, 14):
            detector.observe_minute([_flow(minute, dst=1, bytes_=400_000)])
        assert len(detector.poll_alerts()) == 1
        # quiet for >= release minutes re-arms, second burst re-alerts
        for minute in range(14, 18):
            detector.observe_minute([_flow(minute, dst=1, bytes_=1_000)])
        for minute in range(18, 22):
            detector.observe_minute([_flow(minute, dst=1, bytes_=400_000)])
        assert len(detector.poll_alerts()) == 1

    def test_fastnetmon_streams_band_excursion(self):
        detector = FastNetMonDetector(alpha=0.1, k=3.0, floor_multiplier=2.0, sustain=2, release=2)
        for minute in range(30):
            detector.observe_minute([_flow(minute, dst=9, bytes_=1_000)])
        assert detector.poll_alerts() == []
        for minute in range(30, 34):
            detector.observe_minute([_flow(minute, dst=9, bytes_=800_000)])
        alerts = detector.poll_alerts()
        assert len(alerts) == 1
        assert alerts[0].detector == "fastnetmon"

    def test_reset_returns_to_cold_state(self):
        detector = NetScoutDetector(profile_window=5, sustain=2)
        for minute in range(8):
            detector.observe_minute([_flow(minute, dst=1, bytes_=300_000)])
        detector.reset()
        detector.observe_minute([_flow(0, dst=1, bytes_=300_000)])
        # fresh profile: no frozen threshold yet, so no alerts possible
        assert detector.poll_alerts() == []

    def test_quiet_minutes_are_observed(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=2, release=2, profile_window=5
        )
        for minute in range(5):
            detector.observe_minute([_flow(minute, dst=1, bytes_=1_000)])
        detector.observe_minute([_flow(5, dst=1, bytes_=300_000)])
        # a quiet minute breaks the run before sustain is reached
        detector.observe_minute([])
        detector.observe_minute([_flow(7, dst=1, bytes_=300_000)])
        assert detector.poll_alerts() == []

    def test_customer_of_maps_addresses(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=2, release=2, profile_window=5,
            customer_of={1_000: 77},
        )
        for minute in range(5):
            detector.observe_minute([_flow(minute, dst=1_000, bytes_=1_000)])
        for minute in range(5, 8):
            detector.observe_minute([_flow(minute, dst=1_000, bytes_=300_000)])
        alerts = detector.poll_alerts()
        assert alerts and alerts[0].customer_id == 77


class TestDrivers:
    def test_drive_fills_quiet_minutes(self):
        calls = []

        class Spy:
            name = "spy"

            def observe_minute(self, flows):
                calls.append(len(flows))

            def poll_alerts(self):
                return []

            def reset(self):
                pass

        drive(Spy(), [(0, [_flow(0, 1)]), (3, [_flow(3, 1)])])
        # minute 0, quiet 1 and 2, minute 3
        assert calls == [1, 0, 0, 1]

    def test_stream_trace_works_for_every_detector(self, trace):
        customer_of = {c.address: c.customer_id for c in trace.world.customers}
        known = {c.customer_id for c in trace.world.customers}
        detectors = [
            NetScoutDetector(customer_of=customer_of),
            FastNetMonDetector(customer_of=customer_of),
            _online_xatu(trace),
        ]
        for detector in detectors:
            alerts = stream_trace(detector, trace, 0, 30)
            for alert in alerts:
                assert isinstance(alert, Alert)
                assert alert.customer_id in known
                assert 0 <= alert.minute < 30

    def test_streaming_netscout_detects_real_attack(self, trace):
        """The causal streaming mode finds at least one attack the offline
        mode also finds on the shared trace."""
        customer_of = {c.address: c.customer_id for c in trace.world.customers}
        offline = [a for a in NetScoutDetector().detect(trace) if a.event_id >= 0]
        assert offline, "shared trace should contain detectable attacks"
        streaming = stream_trace(
            NetScoutDetector(customer_of=customer_of), trace
        )
        assert streaming, "streaming mode should emit alerts on the same trace"
        streamed_customers = {a.customer_id for a in streaming}
        assert streamed_customers & {a.customer_id for a in offline}
