"""The unified streaming Detector contract (repro.detect.api).

Covers: structural conformance of all three deployable detectors, the
streaming CDet behaviour (causal thresholds, sustain/release), and the
eval driver streaming a trace through any streaming detector.
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
)
from repro.detect.entropy import EntropyDetector
from repro.eval import stream_trace
from repro.netflow import FlowBatch, FlowRecord
from repro.signals import FeatureScaler
from repro.testing.props import choices, integers, run_property
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


def _minute(minute, dst, bytes_):
    """One minute holding a single flow toward ``dst``."""
    return FlowBatch.from_records([_flow(minute, dst=dst, bytes_=bytes_)])


def _feed(detector, minutes, dst, bytes_):
    """Step ``detector`` through ``minutes`` of one flow each; the alerts."""
    alerts = []
    for minute in minutes:
        alerts += detector.step(minute, _minute(minute, dst, bytes_))
    return alerts


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

    def test_cdet_step_minutes_must_advance(self):
        """The caller owns the clock: a repeated or rewound minute is refused
        and leaves the clock where it was."""
        detector = NetScoutDetector()
        detector.step(4, _minute(4, dst=1, bytes_=1_000))
        for stale in (4, 3):
            with pytest.raises(ValueError, match="advance"):
                detector.step(stale, FlowBatch.empty())
        assert detector.current_minute == 4
        assert detector.step(9, FlowBatch.empty()) == []
        assert detector.current_minute == 9


class TestStreamingCDet:
    def test_netscout_streams_sustained_excursion(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=3, release=2, profile_window=20
        )
        # 20 quiet profile minutes, then a sustained flood.
        assert _feed(detector, range(20), dst=42, bytes_=1_000) == []
        alerts = _feed(detector, range(20, 26), dst=42, bytes_=500_000)
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
        _feed(detector, range(10), dst=1, bytes_=1_000)
        assert len(_feed(detector, range(10, 14), dst=1, bytes_=400_000)) == 1
        # quiet for >= release minutes re-arms, second burst re-alerts
        assert _feed(detector, range(14, 18), dst=1, bytes_=1_000) == []
        assert len(_feed(detector, range(18, 22), dst=1, bytes_=400_000)) == 1

    def test_fastnetmon_streams_band_excursion(self):
        detector = FastNetMonDetector(alpha=0.1, k=3.0, floor_multiplier=2.0, sustain=2, release=2)
        assert _feed(detector, range(30), dst=9, bytes_=1_000) == []
        alerts = _feed(detector, range(30, 34), dst=9, bytes_=800_000)
        assert len(alerts) == 1
        assert alerts[0].detector == "fastnetmon"

    def test_reset_returns_to_cold_state(self):
        detector = NetScoutDetector(profile_window=5, sustain=2)
        _feed(detector, range(8), dst=1, bytes_=300_000)
        detector.reset()
        assert detector.current_minute == -1
        # fresh profile: no frozen threshold yet, so no alerts possible
        assert _feed(detector, [0], dst=1, bytes_=300_000) == []

    def test_quiet_minutes_are_observed(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=2, release=2, profile_window=5
        )
        alerts = _feed(detector, range(5), dst=1, bytes_=1_000)
        alerts += _feed(detector, [5], dst=1, bytes_=300_000)
        # a quiet minute breaks the run before sustain is reached
        alerts += detector.step(6, FlowBatch.empty())
        alerts += _feed(detector, [7], dst=1, bytes_=300_000)
        assert alerts == []

    def test_customer_of_maps_addresses(self):
        detector = NetScoutDetector(
            profile_quantile=0.9, headroom=1.5, sustain=2, release=2, profile_window=5,
            customer_of={1_000: 77},
        )
        _feed(detector, range(5), dst=1_000, bytes_=1_000)
        alerts = _feed(detector, range(5, 8), dst=1_000, bytes_=300_000)
        assert alerts and alerts[0].customer_id == 77


def test_cdet_minute_totals_equal_the_per_record_sums():
    """The columnar per-customer byte totals are the old per-record loop's,
    bit for bit: the same routing, unrouted flows skipped, and each total a
    float sum in arrival order (counters large enough that the order of
    the additions shows in the last bits)."""

    def totals_match(seed, mapped):
        rng = np.random.default_rng(seed)
        customer_of = {100 + i: i % 3 for i in range(4)} if mapped else None
        records = [
            FlowRecord(
                timestamp=0, src_addr=1, dst_addr=int(rng.integers(100, 106)),
                src_port=1, dst_port=2, protocol=17, packets=1,
                bytes_=int(rng.integers(1, 2**45)),
                sampling_rate=int(rng.integers(1, 10_001)),
            )
            for _ in range(int(rng.integers(0, 40)))
        ]
        want = {}
        for flow in records:
            customer = flow.dst_addr if customer_of is None else customer_of.get(flow.dst_addr)
            if customer is not None:
                want[customer] = want.get(customer, 0.0) + flow.estimated_bytes
        got = NetScoutDetector(customer_of=customer_of)._observed_bytes(
            FlowBatch.from_records(records)
        )
        assert got == want and all(type(v) is float for v in got.values())

    run_property(totals_match, integers(0, 10**6), choices([True, False]), runs=30, seed=3)


class TestDrivers:
    def test_drive_fills_quiet_minutes(self):
        calls = []

        class Spy:
            name = "spy"

            def step(self, minute, flows):
                calls.append((minute, len(flows)))
                return [minute]

            def reset(self):
                pass

        alerts = drive(Spy(), [(0, _minute(0, 1, 10)), (3, _minute(3, 1, 10))])
        # minute 0, quiet 1 and 2, minute 3: the driver owns the clock
        assert calls == [(0, 1), (1, 0), (2, 0), (3, 1)]
        assert alerts == [0, 1, 2, 3]

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
