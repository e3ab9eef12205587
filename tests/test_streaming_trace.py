"""Differential property suite for the TraceSource streaming protocol.

The streaming redesign's contract is byte-identity: folding the minute
slices a :class:`TraceGenerator` streams must reproduce exactly the
:class:`Trace` the one-shot materialization builds — same matrix cells,
same ground-truth events, same counters — and a materialized trace must
re-stream exactly the flows its matrix was folded from.  The suite also
covers the scale machinery that rides on the protocol: bounded-memory
lazy worlds, the analytic customer router, and idle-watch eviction in
the online detector.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.online import OnlineConfig, OnlineXatu
from repro.detect import NetScoutDetector
from repro.eval.streaming import stream_trace
from repro.netflow import FlowBatch, FlowRecord, TrafficMatrix
from repro.serve import ContiguousCustomerRouter
from repro.synth import (
    ScenarioConfig,
    TraceGenerator,
    TraceSource,
    as_trace_source,
    load_trace,
    save_trace,
)
from repro.testing.reference import reference_add_flow


def streaming_scenario(seed: int = 11, **overrides) -> ScenarioConfig:
    defaults = dict(
        total_days=4,
        minutes_per_day=60,
        prep_days=1,
        n_customers=5,
        n_botnets=2,
        botnet_size=60,
        campaigns_per_botnet=1,
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def lazy_scenario(n_customers: int, seed: int = 5) -> ScenarioConfig:
    return ScenarioConfig(
        total_days=1.0,
        minutes_per_day=60,
        prep_days=0.25,
        n_customers=n_customers,
        n_botnets=1,
        botnet_size=50,
        campaigns_per_botnet=1,
        seed=seed,
        lazy_world=True,
        benign_flow_budget=400,
    )


def assert_matrix_equal(a: TrafficMatrix, b: TrafficMatrix) -> None:
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for name in ("max_minute", "customers", "classes"):
        assert sa[name] == sb[name], name
    assert np.array_equal(sa["keys"], sb["keys"])
    where = [tuple(key) for key in sa["keys"].tolist()]  # (customer, class index, minute)
    for name in ("counters", "vectors"):
        differ = np.flatnonzero((sa[name] != sb[name]).any(axis=1))
        assert not len(differ), (name, where[differ[0]])
    for name in ("sources_offsets", "sources_flat"):
        assert np.array_equal(sa[name], sb[name]), name


def assert_events_equal(a, b) -> None:
    assert len(a) == len(b)
    for ev_a, ev_b in zip(a, b):
        for attr in (
            "event_id", "customer_id", "customer_address", "attack_type",
            "onset", "end", "peak_bytes", "campaign_id", "botnet_id",
        ):
            assert getattr(ev_a, attr) == getattr(ev_b, attr)
        assert np.array_equal(ev_a.anomalous_bytes, ev_b.anomalous_bytes)
        assert ev_a.attackers == ev_b.attackers


def batch_fields_equal(a: FlowBatch, b: FlowBatch) -> bool:
    if len(a.array) != len(b.array):
        return False
    return all(np.array_equal(a.array[f], b.array[f]) for f in a.array.dtype.names)


# ----------------------------------------------------------------------
# streaming vs materialized byte-identity
# ----------------------------------------------------------------------
class TestStreamMaterializeEquivalence:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_scalar_fold_matches_materialized(self, seed):
        """Folding streamed slices record-by-record (the scalar oracle
        ``reference_add_flow``) reproduces the materialized matrix bit for
        bit — this pins both the stream's content and the scalar/columnar
        fold identity."""
        trace = TraceGenerator(streaming_scenario(seed)).materialize()

        folded = TrafficMatrix()
        streamed_flows = 0
        total_flows = 0
        for sl in TraceGenerator(streaming_scenario(seed)).iter_minutes():
            total_flows += sl.total_flows
            streamed_flows += sl.sampled_flows
            masks = {cls: np.asarray(m, dtype=bool) for cls, m in sl.class_masks.items()}
            for i, record in enumerate(sl.batch.to_records()):
                classes = [cls for cls, mask in masks.items() if mask[i]]
                reference_add_flow(folded, int(sl.customer_ids[i]), record, classes)

        assert_matrix_equal(folded, trace.matrix)
        assert streamed_flows == trace.sampled_flows
        assert total_flows == trace.total_flows

    def test_event_stream_matches_trace(self):
        config = streaming_scenario(13)
        trace = TraceGenerator(config).materialize()

        started, ended = [], []
        for sl in TraceGenerator(config).iter_minutes():
            for event in sl.events_started:
                assert event.onset == sl.minute
                started.append(event)
            for event in sl.events_ended:
                assert event.end == sl.minute
                ended.append(event)

        started.sort(key=lambda e: e.event_id)
        assert_events_equal(started, sorted(trace.events, key=lambda e: e.event_id))
        # Events whose end falls inside the horizon are revealed finalized.
        expected_ended = [e for e in trace.events if e.end < config.horizon_minutes]
        assert_events_equal(
            sorted(ended, key=lambda e: e.event_id),
            sorted(expected_ended, key=lambda e: e.event_id),
        )

    def test_windowed_stream_matches_full(self):
        config = streaming_scenario(17)
        full = list(TraceGenerator(config).iter_minutes())
        a, b = 50, 90
        window = list(TraceGenerator(config).iter_minutes(a, b))
        assert [sl.minute for sl in window] == list(range(a, b))
        for sl, ref in zip(window, full[a:b]):
            assert np.array_equal(sl.customer_ids, ref.customer_ids)
            assert batch_fields_equal(sl.batch, ref.batch)

    def test_minutes_are_contiguous_and_aligned(self):
        config = streaming_scenario(19)
        minutes = []
        for sl in TraceGenerator(config).iter_minutes():
            minutes.append(sl.minute)
            assert sl.customer_ids.dtype == np.int64
            assert len(sl.customer_ids) == sl.sampled_flows == len(sl.batch.array)
            assert sl.total_flows >= sl.sampled_flows
            if sl.sampled_flows:
                assert np.all(sl.batch.array["timestamp"] == sl.minute)
            for cls, mask in sl.class_masks.items():
                mask = np.asarray(mask)
                assert mask.dtype == bool and mask.shape == (sl.sampled_flows,), cls
        assert minutes == list(range(config.horizon_minutes))

    def test_slice_views_are_consistent(self):
        for sl in TraceGenerator(streaming_scenario(23)).iter_minutes(0, 30):
            if not sl.sampled_flows:
                continue
            rebuilt = FlowBatch.from_records(sl.batch.to_records())
            assert batch_fields_equal(rebuilt, sl.batch)

    def test_generator_streams_are_single_shot(self):
        generator = TraceGenerator(streaming_scenario(3))
        list(generator.iter_minutes(0, 2))
        with pytest.raises(RuntimeError, match="single-shot"):
            generator.iter_minutes()

    def test_out_of_range_window_rejected(self):
        generator = TraceGenerator(streaming_scenario(3))
        with pytest.raises(ValueError):
            generator.iter_minutes(-1)
        with pytest.raises(ValueError):
            generator.iter_minutes(0, generator.horizon + 1)


# ----------------------------------------------------------------------
# the TraceSource protocol across producers
# ----------------------------------------------------------------------
class TestTraceSourceProtocol:
    def test_producers_satisfy_protocol(self):
        assert isinstance(TraceGenerator(streaming_scenario()), TraceSource)

    def test_as_trace_source_passthrough(self, trace):
        generator = TraceGenerator(streaming_scenario())
        assert as_trace_source(generator) is generator
        source = as_trace_source(trace)
        assert isinstance(source, TraceGenerator)
        assert source.config == trace.config
        assert source.horizon == trace.horizon
        assert as_trace_source(trace) is not source  # a fresh one-pass stream each call

    def test_as_trace_source_rejects_garbage(self):
        with pytest.raises(TypeError, match="cannot stream"):
            as_trace_source(42)

    def test_events_so_far_is_causal(self):
        config = streaming_scenario(37)
        generator = TraceGenerator(config)
        assert generator.events_so_far() == []
        seen = 0
        for sl in generator.iter_minutes():
            revealed = generator.events_so_far()
            assert len(revealed) >= seen  # monotone reveal
            seen = len(revealed)
            assert all(e.onset <= sl.minute for e in revealed)
        reference = TraceGenerator(config).materialize()
        assert seen == len(reference.events)

    def test_materialized_source_cursor(self, trace):
        source = as_trace_source(trace)
        assert source.events_so_far() == []
        for _ in source.iter_minutes(0, trace.horizon // 2):
            pass
        mid = {e.event_id for e in source.events_so_far()}
        assert mid == {e.event_id for e in trace.events if e.onset < trace.horizon // 2}

    def test_stream_trace_accepts_trace_and_source(self, trace):
        """`stream_trace` must produce the identical alert stream whether
        handed the Trace or its generator directly."""
        detector = NetScoutDetector()
        via_trace = stream_trace(detector, trace, 0, 120)
        detector.reset()
        via_generator = stream_trace(detector, TraceGenerator(trace.config), 0, 120)
        assert via_trace == via_generator

    def test_trace_restreams_its_matrix(self, trace, tmp_path):
        """Refolding the stream of a materialized trace gives back its
        matrix array for array — in memory and after a save/load round
        trip, since a saved trace re-streams from its config."""
        for source in (trace, load_trace(save_trace(trace, tmp_path / "trace"))):
            folded = TrafficMatrix()
            for sl in as_trace_source(source).iter_minutes():
                if sl.sampled_flows:
                    folded.add_batch(sl.customer_ids, sl.batch, sl.class_masks)
            assert_matrix_equal(folded, trace.matrix)

    def test_blocklist_override_tags_but_never_moves_flows(self):
        """Tagging draws no randomness: a ``blocklist_membership`` override
        changes class masks only, so every minute's flows are the default
        generator's byte for byte."""
        config = streaming_scenario(31)
        default = TraceGenerator(config).iter_minutes()
        empty = TraceGenerator(config, blocklist_membership=set()).iter_minutes()
        masks_moved = 0
        for sl, ref in zip(empty, default, strict=True):
            assert sl.minute == ref.minute
            assert np.array_equal(sl.customer_ids, ref.customer_ids)
            assert sl.batch.array.tobytes() == ref.batch.array.tobytes()
            masks_moved += sl.class_masks.keys() != ref.class_masks.keys()
        assert masks_moved  # the override did reach the tagging


# ----------------------------------------------------------------------
# bounded memory: lazy worlds stream without O(n_customers) state
# ----------------------------------------------------------------------
class TestBoundedMemory:
    @staticmethod
    def _peak_bytes(n_customers: int) -> int:
        tracemalloc.start()
        try:
            generator = TraceGenerator(lazy_scenario(n_customers))
            flows = sum(sl.sampled_flows for sl in generator.iter_minutes(0, 8))
            assert flows > 0
            assert len(generator.world.customers) == n_customers
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streaming_memory_is_flat_in_universe_size(self):
        """A 10× larger lazy universe must not cost 10× the memory: peak
        allocation streaming 100k customers stays within 1.5× of 10k
        (plus a small fixed slack for allocator noise)."""
        peak_small = self._peak_bytes(10_000)
        peak_large = self._peak_bytes(100_000)
        assert peak_large <= peak_small * 1.5 + 4 * 2**20, (
            f"peak grew with universe size: {peak_small} -> {peak_large} bytes"
        )


# ----------------------------------------------------------------------
# the analytic customer router
# ----------------------------------------------------------------------
class TestContiguousRouter:
    def make(self, n=10, base=1000, stride=256):
        return ContiguousCustomerRouter(base, n, stride)

    def test_for_world_matches_analytic_lookup(self):
        generator = TraceGenerator(lazy_scenario(1_000))
        router = ContiguousCustomerRouter.for_world(generator.world)
        assert len(router) == 1_000
        for cid in (0, 1, 499, 999):
            addr = generator.world.customers[cid].address
            assert router.get(addr) == cid
            assert generator.world.customer_by_address(addr).customer_id == cid

    def test_route_batch_validates_exact_addresses(self):
        router = self.make()
        dst = np.array([
            1000,            # cid 0
            1000 + 256 * 9,  # cid 9 (last)
            1000 + 256 * 10, # past the universe
            999,             # below base
            1001,            # misaligned inside block 0
            -5,
        ])
        np.testing.assert_array_equal(
            router.route_batch(dst), np.array([0, 9, -1, -1, -1, -1])
        )

    def test_dict_shaped_reads(self):
        router = self.make()
        assert router.get(1000) == 0
        assert router.get(1000 + 256 * 3) == 3
        assert router.get(1001) is None
        assert router.get(1001, -1) == -1
        assert 1000 in router and 1001 not in router
        assert len(router) == 10

    def test_shard_views_partition_the_universe(self):
        router = self.make()
        views = [router.shard_view(i, 3) for i in range(3)]
        assert [len(v) for v in views] == [4, 3, 3]
        addrs = np.array([1000 + 256 * i for i in range(10)])
        owners = np.stack([v.route_batch(addrs) for v in views])
        # Each address routed by exactly one view, to the right cid.
        assert np.all((owners >= 0).sum(axis=0) == 1)
        np.testing.assert_array_equal(owners.max(axis=0), np.arange(10))
        for i, view in enumerate(views):
            assert view.get(1000 + 256 * i) == i  # cid % 3 == i for i < 3

    def test_resharding_a_view_rejected(self):
        view = self.make().shard_view(0, 2)
        with pytest.raises(ValueError, match="re-shard"):
            view.shard_view(0, 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ContiguousCustomerRouter(0, 0)
        with pytest.raises(ValueError):
            ContiguousCustomerRouter(0, 1, stride=0)
        with pytest.raises(ValueError):
            ContiguousCustomerRouter(0, 1, shard_index=2, shards=2)

    def test_router_is_picklable(self):
        """Process-backend shards ship their partition by pickle."""
        view = self.make().shard_view(1, 3)
        clone = pickle.loads(pickle.dumps(view))
        addrs = np.array([1000 + 256 * i for i in range(10)])
        np.testing.assert_array_equal(clone.route_batch(addrs), view.route_batch(addrs))

    def test_lazy_watch_marker(self):
        assert self.make().lazy_watch is True


# ----------------------------------------------------------------------
# lazy watch + idle eviction in the online detector
# ----------------------------------------------------------------------
def _tiny_online(customer_of, watch_idle_minutes=None):
    from repro.bench.scale import _tiny_artifacts
    from repro.netflow.routing import RouteTable

    model, scaler = _tiny_artifacts()
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), 64500)
    return OnlineXatu(
        model,
        scaler,
        customer_of=customer_of,
        route_table=route_table,
        config=OnlineConfig(
            threshold=1.0 - 1e-9,  # untrained model: never alert in these tests
            evict_margin_minutes=10,
            watch_idle_minutes=watch_idle_minutes,
        ),
    )


def _flow_to(addr: int, minute: int) -> FlowRecord:
    return FlowRecord(
        timestamp=minute,
        src_addr=42,
        dst_addr=addr,
        src_port=5353,
        dst_port=53,
        protocol=17,
        packets=2,
        bytes_=300,
    )


class TestWatchIdleEviction:
    def test_watch_idle_minutes_validated(self):
        with pytest.raises(ValueError, match="watch_idle_minutes"):
            OnlineConfig(watch_idle_minutes=0).validate()
        OnlineConfig(watch_idle_minutes=None).validate()

    def test_router_mode_starts_with_empty_watch(self):
        router = ContiguousCustomerRouter(1000, 50)
        detector = _tiny_online(router)
        assert detector._watched == set()
        detector.step(1, FlowBatch.from_records([_flow_to(1000 + 256 * 7, 1)]))
        assert detector._watched == {7}

    def test_idle_customers_are_evicted_and_rewatched(self):
        router = ContiguousCustomerRouter(1000, 50)
        detector = _tiny_online(router, watch_idle_minutes=3)
        detector.step(1, FlowBatch.from_records([_flow_to(1000, 1)]))
        assert detector._watched == {0}
        for minute in (2, 3, 4):
            detector.step(minute, FlowBatch.empty())
            assert detector._watched == {0}  # within the idle window
        detector.step(5, FlowBatch.empty())
        assert detector._watched == set()  # last seen 1 < 5 - 3
        detector.step(6, FlowBatch.from_records([_flow_to(1000, 6)]))
        assert detector._watched == {0}  # traffic re-watches

    def test_active_customer_survives_while_idle_one_is_evicted(self):
        router = ContiguousCustomerRouter(1000, 50)
        detector = _tiny_online(router, watch_idle_minutes=3)
        detector.step(1, FlowBatch.from_records([_flow_to(1000, 1), _flow_to(1000 + 256, 1)]))
        assert detector._watched == {0, 1}
        for minute in range(2, 8):
            detector.step(minute, FlowBatch.from_records([_flow_to(1000 + 256, minute)]))
        assert detector._watched == {1}

    def test_batch_lane_routes_through_router(self):
        router = ContiguousCustomerRouter(1000, 50)
        detector = _tiny_online(router)
        batch = FlowBatch.from_records(
            [_flow_to(1000 + 256 * 2, 1), _flow_to(1000 + 7, 1)]  # second unrouted
        )
        detector.step(1, batch)
        assert detector._watched == {2}

    def test_router_mode_state_round_trips(self):
        """The router is deployment context that the factory re-supplies, so
        a router-mode detector checkpoints like a dict-mode one and resumes
        with identical alerts; a detector over another universe refuses the
        snapshot."""

        def build(n_customers=50):
            return _tiny_online(
                ContiguousCustomerRouter(1000, n_customers), watch_idle_minutes=3
            )

        feed = {
            m: FlowBatch.from_records([_flow_to(1000 + 256 * (m % 3), m)])
            for m in range(1, 11)
        }
        detector = build()
        for minute in range(1, 5):
            detector.step(minute, feed[minute])
        state = pickle.dumps(detector.state_dict(), protocol=4)
        with pytest.raises(ValueError, match="deployment"):
            build(n_customers=51).load_state_dict(pickle.loads(state))
        restored = build()
        restored.load_state_dict(pickle.loads(state))
        assert pickle.dumps(restored.state_dict(), protocol=4) == state
        assert restored._watched == detector._watched and restored._watched
        for minute in range(5, 11):
            want = detector.step(minute, feed[minute])
            got = restored.step(minute, feed[minute])
            assert [(a.minute, a.customer_id, a.survival) for a in got] == [
                (a.minute, a.customer_id, a.survival) for a in want
            ]
        assert restored._hazards == detector._hazards
        assert pickle.dumps(restored.state_dict(), protocol=4) == pickle.dumps(
            detector.state_dict(), protocol=4
        )

    def test_dict_mode_state_round_trips_idle_tracking(self):
        customer_of = {1000: 0, 1256: 1}
        detector = _tiny_online(customer_of, watch_idle_minutes=5)
        detector.step(1, FlowBatch.from_records([_flow_to(1000, 1)]))
        state = detector.state_dict()
        assert state["last_seen"] == [(0, 1)]

        restored = _tiny_online(customer_of, watch_idle_minutes=5)
        restored.load_state_dict(state)
        assert restored._last_seen == {0: 1}
        # Eviction continues from the restored clock.
        for minute in range(2, 8):
            restored.step(minute, FlowBatch.empty())
        assert 0 not in restored._watched
