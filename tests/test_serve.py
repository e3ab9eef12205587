"""The sharded, checkpointable serving engine (repro.serve).

The three guarantees the engine sells, each asserted here:

* **shard-count invariance** — the merged alert stream is identical for
  any shard count (incumbent alerts are broadcast, history/graph stores
  are global);
* **crash equivalence** — a run killed and restored from a checkpoint
  emits the same alerts *and* the same final checkpoint bytes as a run
  that never stopped;
* **flagged degradation** — a lossy export feed is flagged, and keeps
  alerting.

Shard faults have one rule, asserted in ``tests/test_serve_faults.py``: the
engine closes and raises.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.core import OnlineXatu, XatuModel
from repro.core.online import OnlineAlert
from repro.netflow import DatagramCodec, FlowBatch, FlowRecord, RouteTable
from repro.serve import (
    BACKENDS,
    CHECKPOINT_FORMAT_VERSION,
    CheckpointFormatError,
    ServeConfig,
    ServeEngine,
    ShardFailure,
    ShardWorker,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve.engine import DEGRADED_LOSS_RATE
from repro.signals import FeatureScaler
from repro.signals.history import AlertRecord
from repro.synth.attacks import AttackType
from repro.testing.reference import ReferenceOnlineXatu
from tests.conftest import small_model_config

N_CUSTOMERS = 6
ADDRESS_OF = {50_000 + i: i for i in range(N_CUSTOMERS)}  # addr -> customer


# ----------------------------------------------------------------------
# workload + factories
# ----------------------------------------------------------------------
def _minutes_of_flows(n_minutes: int, seed: int = 7) -> list[FlowBatch]:
    """A deterministic synthetic feed: every customer, every minute."""
    rng = np.random.default_rng(seed)
    return [
        FlowBatch.from_records([
            FlowRecord(
                timestamp=minute,
                src_addr=int(rng.integers(1, 2**31)),
                dst_addr=address,
                src_port=int(rng.integers(1024, 65535)),
                dst_port=443,
                protocol=6,
                packets=int(rng.integers(1, 40)),
                bytes_=int(rng.integers(200, 40_000)),
            )
            for address in ADDRESS_OF
            for _ in range(2)
        ])
        for minute in range(n_minutes)
    ]


def _xatu_factory(threshold: float = 0.9, cls=OnlineXatu):
    """A deterministic OnlineXatu factory: same weights for every call."""
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    config = small_model_config()

    def factory(partition):
        scaler = FeatureScaler()
        scaler.mean_ = np.zeros(273)
        scaler.std_ = np.ones(273)
        model = XatuModel(config)
        model.eval()
        return cls(
            model=model,
            scaler=scaler,
            threshold=threshold,
            customer_of=partition,
            blocklist=set(),
            route_table=route_table,
        )

    return factory


class StubDetector:
    """Protocol-shaped deterministic detector: one alert per flow."""

    def __init__(self, partition, fail_at=None):
        self.partition = dict(partition)
        self.minute = -1
        self.cdet_seen = []
        self.ends_seen = []
        self.fail_at = fail_at

    def ingest_cdet_alert(self, record):
        self.cdet_seen.append(record.customer_id)

    def ingest_mitigation_end(self, customer_id, minute):
        self.ends_seen.append((customer_id, minute))

    def step(self, minute, flows):
        if self.fail_at is not None and minute >= self.fail_at:
            raise RuntimeError("induced shard failure")
        self.minute = minute
        return [
            OnlineAlert(self.partition[f.dst_addr], minute, 0.25)
            for f in flows
            if f.dst_addr in self.partition
        ]

    def state_dict(self):
        return {"minute": self.minute}

    def load_state_dict(self, state):
        self.minute = state["minute"]


def _stub_engine(shards=2, fail_at=None, **config_kwargs) -> ServeEngine:
    return ServeEngine(
        lambda partition: StubDetector(partition, fail_at=fail_at),
        ADDRESS_OF,
        ServeConfig(shards=shards, **config_kwargs),
    )


def _cdet_record(customer_id: int, minute: int) -> AlertRecord:
    return AlertRecord(
        customer_id=customer_id,
        attack_type=AttackType.TCP_SYN,
        detect_minute=minute,
        end_minute=minute + 5,
        peak_bytes=1e6,
        attackers=frozenset({11, 12}),
    )


def _drive(engine, codec, minutes, start=0, cdet_at=()):
    """Feed encoded datagrams minute-by-minute; returns alert tuples.

    The codec is passed in (not rebuilt) because exporters do not restart
    when the engine does — their flow sequence must run on across an
    engine restore for the feed-health accounting to stay truthful.
    """
    alerts = []
    for offset, flows in enumerate(minutes):
        minute = start + offset
        engine.ingest_datagram(codec.encode(flows, unix_secs=minute * 60))
        if minute in cdet_at:
            engine.ingest_cdet_alert(_cdet_record(0, minute))
        alerts.extend(
            (a.minute, a.customer_id, a.survival) for a in engine.tick(minute)
        )
    return alerts


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"backend": "coroutine"},
            {"checkpoint_every": -1},
            {"transport": "carrier-pigeon"},
            {"inference_dtype": "float16"},
            {"backend": "thread"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs).validate()

    def test_engine_validates_config(self):
        with pytest.raises(ValueError):
            _stub_engine(shards=0)

    def test_options_ledger(self):
        """Every serve option, by name: a new field or backend has to edit
        this test, and say which measurement or guarantee needs it."""
        assert {f.name for f in dataclasses.fields(ServeConfig)} == {
            "shards",
            "backend",
            "checkpoint_dir",
            "checkpoint_every",
            "inference_dtype",
            "transport",
        }
        assert BACKENDS == ("inline", "process")

    def test_periodic_checkpoints_need_a_directory(self, capsys):
        """``checkpoint_every`` without a directory used to validate and
        then never checkpoint; now the config and the CLI both refuse."""
        from repro.cli import main

        with pytest.raises(ValueError, match="checkpoint_dir"):
            ServeConfig(checkpoint_every=5).validate()
        assert main(["serve", "--checkpoint-every", "5"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().out

    def test_process_backend_without_a_blas_pin_warns(self, capsys, monkeypatch):
        """Unpinned, forked shards lose to inline (docs/SERVING.md): ``repro
        serve`` says so on stderr, once, and only for that configuration.
        (``--checkpoint-every`` without a directory ends the command early.)"""
        from repro.cli import main

        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for var in pins:
            monkeypatch.delenv(var, raising=False)
        refused = ["--checkpoint-every", "5"]
        assert main(["serve", "--backend", "process", *refused]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(var in err for var in pins)
        assert main(["serve", "--backend", "inline", *refused]) == 2
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert main(["serve", "--backend", "process", *refused]) == 2
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_round_trip(self, tmp_path):
        shard_states = [{"minute": 9, "k": [1, 2]}, {"minute": 9}]
        engine_state = {"minute": 9, "pending": []}
        path = write_checkpoint(tmp_path, 9, shard_states, engine_state)
        assert path.name == "ckpt-00000009"
        minute, shards, engine = read_checkpoint(path)
        assert (minute, shards, engine) == (9, shard_states, engine_state)

    def test_latest_pointer_and_listing(self, tmp_path):
        write_checkpoint(tmp_path, 3, [{}], {})
        newest = write_checkpoint(tmp_path, 7, [{}], {})
        assert latest_checkpoint(tmp_path) == newest
        assert [p.name for p in list_checkpoints(tmp_path)] == [
            "ckpt-00000003",
            "ckpt-00000007",
        ]
        # reading the root resolves through LATEST
        minute, _, _ = read_checkpoint(tmp_path)
        assert minute == 7

    def test_future_format_version_is_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path, 1, [{}], {})
        manifest_path = path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(path)

    def test_empty_root_has_no_latest(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert list_checkpoints(tmp_path) == []

    def test_version_1_directory_is_refused_naming_both_versions(self, tmp_path):
        """No reader for the per-cell layout (1), for shard files that carry
        the deployment (2), for shard files that carry an alert queue (3),
        nor for an engine file that counts withheld alerts (4): a checkpoint
        written by an older build fails loudly and the deployment restarts
        cold."""
        path = write_checkpoint(tmp_path, 1, [{}], {})
        manifest = json.loads((path / "MANIFEST.json").read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION == 5
        for old in (1, 2, 3, 4):
            (path / "MANIFEST.json").write_text(json.dumps({**manifest, "format_version": old}))
            with pytest.raises(
                CheckpointFormatError, match=rf"format_version={old}\b.*version 5\b"
            ):
                read_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda path: (path / "shard-01.pkl").write_bytes(b""), "shard-01.pkl"),
            (
                lambda path: (path / "shard-01.pkl").write_bytes(
                    (path / "shard-01.pkl").read_bytes()[:-7]
                ),
                "shard-01.pkl",
            ),
            (lambda path: (path / "engine.pkl").write_bytes(b"\x80\x04garbage"), "engine.pkl"),
            (lambda path: (path / "shard-00.pkl").unlink(), "shard-00.pkl"),
            (lambda path: _edit_manifest(path, lambda m: m.pop("shards")), "MANIFEST.json"),
            (lambda path: _edit_manifest(path, lambda m: m.pop("minute")), "MANIFEST.json"),
            (lambda path: _edit_manifest(path, lambda m: m.update(shards="two")), "MANIFEST.json"),
            (lambda path: (path / "MANIFEST.json").write_text("[2]"), "ckpt-00000004"),
            (lambda path: (path / "MANIFEST.json").write_text("{"), "ckpt-00000004"),
        ],
    )
    def test_damaged_checkpoint_raises_format_error_and_restore_touches_nothing(
        self, tmp_path, damage, named
    ):
        """Torn, empty, garbled or missing payloads and manifests without
        their keys all surface as ``CheckpointFormatError`` naming the file
        — and ``restore`` leaves a running engine exactly as it was."""
        with _stub_engine(shards=2, checkpoint_dir=tmp_path / "good") as engine:
            for minute in range(5):
                engine.ingest_flows(_minutes_of_flows(1)[0])
                engine.tick(minute)
            damaged = engine.checkpoint(tmp_path / "bad")
            engine.tick(5)
            damage(damaged)
            with pytest.raises(CheckpointFormatError, match=named):
                read_checkpoint(damaged)
            before = _checkpoint_files(engine.checkpoint())
            with pytest.raises(CheckpointFormatError, match=named):
                engine.restore(tmp_path / "bad")
            assert engine.current_minute == 5
            assert _checkpoint_files(engine.checkpoint()) == before


def _edit_manifest(path, change) -> None:
    manifest = json.loads((path / "MANIFEST.json").read_text())
    change(manifest)
    (path / "MANIFEST.json").write_text(json.dumps(manifest))


def _checkpoint_files(path) -> dict[str, bytes]:
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


# ----------------------------------------------------------------------
# engine mechanics (stub detector, inline backend)
# ----------------------------------------------------------------------
class TestEngineMechanics:
    def test_merged_stream_is_ordered_and_routed(self):
        with _stub_engine(shards=3) as engine:
            flows = _minutes_of_flows(1)[0]
            stray = FlowRecord(
                timestamp=0, src_addr=1, dst_addr=999, src_port=1, dst_port=2,
                protocol=6, packets=1, bytes_=10,
            )
            engine.ingest_flows(FlowBatch.concat([flows, FlowBatch.from_records([stray])]))
            alerts = engine.tick(0)
            # every routed flow alerted (stub), none for the unknown address
            assert len(alerts) == len(flows)
            keys = [(a.minute, a.customer_id) for a in alerts]
            assert keys == sorted(keys)
            assert all(a.customer_id in range(N_CUSTOMERS) for a in alerts)
            # poll_alerts drains the same stream exactly once
            assert [(a.minute, a.customer_id) for a in engine.poll_alerts()] == keys
            assert engine.poll_alerts() == []

    def test_record_lists_are_refused_at_ingest(self):
        """Flows enter columnar: a record list is converted once, by the
        caller, with ``FlowBatch.from_records``, never kept as records."""
        with _stub_engine() as engine:
            with pytest.raises(TypeError, match="FlowBatch.from_records"):
                engine.ingest_flows(list(_minutes_of_flows(1)[0]))
            assert len(engine.collector) == 0 == engine.collector.records_received

    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("routing", ["dict", "router"])
    def test_partition_keeps_arrival_order_and_drops_the_unrouted(self, shards, routing):
        """Per-shard bytes == the per-record append loop's, for both routing
        forms: an even spread, every record on one shard, an unrouted share."""
        from repro.netflow import FlowBatch
        from repro.testing.reference import reference_encode_flow
        from repro.serve import ContiguousCustomerRouter

        stride = 1 if routing == "dict" else 4
        customer_of = (
            ADDRESS_OF if routing == "dict"
            else ContiguousCustomerRouter(50_000, N_CUSTOMERS, stride=stride)
        )
        rng = np.random.default_rng(shards)
        spread = rng.integers(0, N_CUSTOMERS, size=40).tolist()
        streams = {
            "spread": spread,
            "one_shard": [1, 1 + shards] * 5,
            "unrouted_share": [c if i % 3 else None for i, c in enumerate(spread)],
            "all_unrouted": [None] * 5,
            "empty": [],
        }
        with ServeEngine(
            lambda partition: StubDetector({}), customer_of, ServeConfig(shards=shards)
        ) as engine:
            for name, customers in streams.items():
                records = [
                    FlowRecord(
                        timestamp=0, src_addr=i + 1, src_port=i, dst_port=2, protocol=6,
                        packets=1 + i, bytes_=10,
                        dst_addr=49_999 if c is None else 50_000 + stride * c,
                    )
                    for i, c in enumerate(customers)
                ]
                expected = [b""] * shards
                for record, c in zip(records, customers):
                    if c is not None:
                        expected[c % shards] += reference_encode_flow(record)
                by_shard, unrouted = engine._partition(FlowBatch.from_records(records))
                assert [b.to_bytes() for b in by_shard] == expected, name
                assert unrouted == customers.count(None), name

    def test_datagrams_reach_tick_without_materializing_records(self, monkeypatch):
        """The serve path is columnar end to end: no per-flow Python objects
        between the wire and the shard."""
        from repro.netflow import FlowBatch

        def boom(self):
            raise AssertionError("serve path materialized FlowRecords")

        minutes = _minutes_of_flows(2)
        codec = DatagramCodec(engine_id=1)
        blobs = [codec.encode(flows, unix_secs=i * 60) for i, flows in enumerate(minutes)]
        with _xatu_engine(2) as engine:
            monkeypatch.setattr(FlowBatch, "to_records", boom)
            for minute, blob in enumerate(blobs):
                assert engine.ingest_datagram(blob) == len(minutes[minute])
                engine.tick(minute)
            assert engine.shard_health() == {0: True, 1: True}

    def test_minutes_must_advance(self):
        with _stub_engine() as engine:
            engine.tick(5)
            with pytest.raises(ValueError, match="advance"):
                engine.tick(5)

    def test_closed_engine_refuses_ticks(self):
        engine = _stub_engine()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.tick(0)

    def test_cdet_alerts_broadcast_to_every_shard(self):
        with _stub_engine(shards=3) as engine:
            engine.ingest_cdet_alert(_cdet_record(4, 0))
            engine.ingest_mitigation_end(4, 2)
            engine.tick(0)
            for shard in engine.shards:
                assert shard._detector.cdet_seen == [4]
                assert shard._detector.ends_seen == [(4, 2)]

    def test_restore_rejects_shard_count_mismatch(self, tmp_path):
        with _stub_engine(shards=2, checkpoint_dir=tmp_path) as engine:
            engine.tick(0)
            engine.checkpoint()
        with _stub_engine(shards=3, checkpoint_dir=tmp_path) as engine:
            with pytest.raises(ValueError, match="shards"):
                engine.restore()

    def test_periodic_checkpoints(self, tmp_path):
        with _stub_engine(
            shards=1, checkpoint_dir=tmp_path, checkpoint_every=2
        ) as engine:
            for minute in range(6):
                engine.tick(minute)
            assert engine.stats()["checkpoints_written"] == 3
        assert len(list_checkpoints(tmp_path)) == 3


# ----------------------------------------------------------------------
# degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def _run_with_loss(self, engine, n_minutes=3):
        """``n_minutes`` of feed with minute 1's datagram dropped."""
        codec = DatagramCodec(engine_id=1)
        minutes = _minutes_of_flows(n_minutes)
        alerts = []
        for minute, flows in enumerate(minutes):
            blob = codec.encode(flows, unix_secs=minute * 60)
            if minute != 1:  # minute 1's datagram is lost in transit
                engine.ingest_datagram(blob)
            alerts.extend(
                (a.minute, a.customer_id) for a in engine.tick(minute)
            )
        return alerts

    def test_flag_policy_keeps_alerting(self):
        with _stub_engine(shards=2) as engine:
            alerts = self._run_with_loss(engine)
            stats = engine.stats()
        assert stats["degraded_minutes"] > 0
        assert alerts  # flagged, not muzzled
        assert engine.feed_health().loss_rate > DEGRADED_LOSS_RATE


# ----------------------------------------------------------------------
# shard workers
# ----------------------------------------------------------------------
class TestShardWorker:
    def test_unknown_backend_rejected(self):
        for backend in ("fiber", "thread"):
            with pytest.raises(ValueError, match="backend"):
                ShardWorker(0, lambda: StubDetector({}), backend=backend)

    def test_failure_marks_unhealthy_and_refuses_submits(self):
        worker = ShardWorker(0, lambda: StubDetector({}, fail_at=0))
        with pytest.raises(ShardFailure, match="induced"):
            worker.step(0, FlowBatch.empty())
        assert not worker.healthy
        with pytest.raises(ShardFailure, match="unhealthy"):
            worker.submit_step(1, FlowBatch.empty())
        worker.close()

    def test_collect_without_submit_fails(self):
        worker = ShardWorker(0, lambda: StubDetector({}))
        with pytest.raises(ShardFailure, match="no pending"):
            worker.collect()

    @pytest.mark.parametrize("backend", ["process"])
    def test_remote_backends_match_inline(self, backend):
        """step/state/load round-trip through the worker protocol."""
        partition = dict(ADDRESS_OF)
        inline = ShardWorker(0, lambda: StubDetector(partition))
        remote = ShardWorker(0, lambda: StubDetector(partition), backend=backend)
        try:
            flows = _minutes_of_flows(2)
            for minute in range(2):
                a = inline.step(minute, flows[minute])
                b = remote.step(minute, flows[minute])
                assert [(x.minute, x.customer_id) for x in a] == [
                    (x.minute, x.customer_id) for x in b
                ]
            assert inline.state_dict() == remote.state_dict()
            remote.load_state_dict({"minute": -1})
            assert remote.state_dict() == {"minute": -1}
        finally:
            remote.close()


class TestGradModeIsolation:
    """Inference runs under no_grad; the grad switch must be per-thread or
    a scoring thread's restore clobbers a training thread's (leaving
    gradients disabled process-wide)."""

    def test_no_grad_is_thread_local(self):
        import threading

        from repro.nn.autograd import is_grad_enabled, no_grad

        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["inside"] = is_grad_enabled()
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert entered.wait(5)
        # the worker holds no_grad right now; this thread is unaffected
        assert is_grad_enabled()
        release.set()
        thread.join(5)
        assert seen["inside"] is False
        assert is_grad_enabled()


# ----------------------------------------------------------------------
# the real detector: invariance, backends, crash equivalence
# ----------------------------------------------------------------------
def _xatu_engine(
    shards, backend="inline", checkpoint_dir=None, threshold=0.9, batched=True
):
    """``batched=False`` shards the per-record / per-customer oracle
    (:class:`ReferenceOnlineXatu`) instead of the production detector."""
    return ServeEngine(
        _xatu_factory(threshold, OnlineXatu if batched else ReferenceOnlineXatu),
        ADDRESS_OF,
        ServeConfig(
            shards=shards,
            backend=backend,
            checkpoint_dir=checkpoint_dir,
        ),
    )


MINUTES = 12
RESTART_AT = 5


class TestShardCountInvariance:
    def test_merged_stream_identical_for_any_shard_count(self):
        streams = {}
        for shards in (1, 2, 3):
            with _xatu_engine(shards) as engine:
                streams[shards] = _drive(
                    engine, DatagramCodec(engine_id=1),
                    _minutes_of_flows(MINUTES), cdet_at={3},
                )
        assert streams[1] == streams[2] == streams[3]
        assert streams[1], "the workload should produce alerts"


class TestBackendEquivalence:
    def test_process_matches_inline(self):
        streams = {}
        for backend in BACKENDS:
            with _xatu_engine(2, backend=backend) as engine:
                streams[backend] = _drive(
                    engine, DatagramCodec(engine_id=1), _minutes_of_flows(6),
                )
        assert streams["inline"] == streams["process"]


class TestCrashEquivalence:
    def test_restored_run_matches_uninterrupted_run(self, tmp_path):
        minutes = _minutes_of_flows(MINUTES)

        # the run that never stops
        with _xatu_engine(2, checkpoint_dir=tmp_path / "base") as engine:
            baseline = _drive(engine, DatagramCodec(engine_id=1), minutes, cdet_at={3})
            engine.checkpoint()

        # the run that crashes after RESTART_AT and restores
        codec = DatagramCodec(engine_id=1)
        ckpt_dir = tmp_path / "crash"
        engine = _xatu_engine(2, checkpoint_dir=ckpt_dir)
        restarted = _drive(engine, codec, minutes[: RESTART_AT + 1], cdet_at={3})
        engine.checkpoint()
        engine.close()

        engine = _xatu_engine(2, checkpoint_dir=ckpt_dir)
        assert engine.restore() == RESTART_AT
        assert engine.current_minute == RESTART_AT
        restarted += _drive(
            engine, codec, minutes[RESTART_AT + 1 :], start=RESTART_AT + 1
        )
        engine.checkpoint()
        engine.close()

        assert baseline, "the workload should produce alerts"
        assert restarted == baseline

        # the recovery guarantee is byte-level: both final checkpoints
        # contain identical files
        base_path = latest_checkpoint(tmp_path / "base")
        crash_path = latest_checkpoint(ckpt_dir)
        assert base_path.name == crash_path.name
        for name in ("MANIFEST.json", "engine.pkl", "shard-00.pkl", "shard-01.pkl"):
            assert (base_path / name).read_bytes() == (
                crash_path / name
            ).read_bytes(), name


class TestBatchedLaneServe:
    """Production vs the oracle through the full engine: equivalence +
    durability.

    Every other engine test shards the production ``OnlineXatu``; these
    tests pin its guarantees against an engine sharding
    ``ReferenceOnlineXatu`` — byte-identical streams and checkpoints,
    including across a kill-and-restore and across a restore that swaps
    one detector class for the other.
    """

    def _checkpoint_bytes(self, root) -> dict[str, bytes]:
        path = latest_checkpoint(root)
        return {
            name: (path / name).read_bytes()
            for name in ("MANIFEST.json", "engine.pkl", "shard-00.pkl", "shard-01.pkl")
        }

    def test_lanes_byte_identical_through_engine(self, tmp_path):
        minutes = _minutes_of_flows(MINUTES)
        streams, checkpoints = {}, {}
        for lane in (True, False):
            root = tmp_path / f"lane-{lane}"
            with _xatu_engine(2, checkpoint_dir=root, batched=lane) as engine:
                streams[lane] = _drive(
                    engine, DatagramCodec(engine_id=1), minutes, cdet_at={3}
                )
                engine.checkpoint()
            checkpoints[lane] = self._checkpoint_bytes(root)
        assert streams[True], "the workload should produce alerts"
        assert streams[True] == streams[False]
        assert checkpoints[True] == checkpoints[False]

    def test_batched_kill_and_restore_matches_per_customer_baseline(self, tmp_path):
        minutes = _minutes_of_flows(MINUTES)

        # per-customer oracle, never interrupted
        with _xatu_engine(
            2, checkpoint_dir=tmp_path / "oracle", batched=False
        ) as engine:
            baseline = _drive(engine, DatagramCodec(engine_id=1), minutes, cdet_at={3})
            engine.checkpoint()

        # batched lane, killed at RESTART_AT and restored
        codec = DatagramCodec(engine_id=1)
        root = tmp_path / "batched-crash"
        engine = _xatu_engine(2, checkpoint_dir=root, batched=True)
        restarted = _drive(engine, codec, minutes[: RESTART_AT + 1], cdet_at={3})
        engine.checkpoint()
        engine.close()

        engine = _xatu_engine(2, checkpoint_dir=root, batched=True)
        assert engine.restore() == RESTART_AT
        restarted += _drive(
            engine, codec, minutes[RESTART_AT + 1 :], start=RESTART_AT + 1
        )
        engine.checkpoint()
        engine.close()

        assert baseline, "the workload should produce alerts"
        assert restarted == baseline
        assert self._checkpoint_bytes(tmp_path / "oracle") == self._checkpoint_bytes(
            root
        )

    @pytest.mark.parametrize(
        "first_lane,second_lane", [(True, False), (False, True)]
    )
    def test_lane_flip_across_restart_boundary(self, tmp_path, first_lane, second_lane):
        minutes = _minutes_of_flows(MINUTES)

        with _xatu_engine(
            2, checkpoint_dir=tmp_path / "base", batched=True
        ) as engine:
            baseline = _drive(engine, DatagramCodec(engine_id=1), minutes, cdet_at={3})
            engine.checkpoint()

        # first_lane until the restart, then the opposite lane to the end:
        # checkpoints carry no lane state, so the flip must be invisible.
        codec = DatagramCodec(engine_id=1)
        root = tmp_path / "flip"
        engine = _xatu_engine(2, checkpoint_dir=root, batched=first_lane)
        flipped = _drive(engine, codec, minutes[: RESTART_AT + 1], cdet_at={3})
        engine.checkpoint()
        engine.close()

        engine = _xatu_engine(2, checkpoint_dir=root, batched=second_lane)
        assert engine.restore() == RESTART_AT
        flipped += _drive(
            engine, codec, minutes[RESTART_AT + 1 :], start=RESTART_AT + 1
        )
        engine.checkpoint()
        engine.close()

        assert flipped == baseline
        assert self._checkpoint_bytes(tmp_path / "base") == self._checkpoint_bytes(root)


def _factory_differing_in(change: str):
    """``_xatu_factory`` with exactly one piece of the deployment changed."""
    base = _xatu_factory(threshold=0.91 if change == "threshold" else 0.9)

    def factory(partition):
        detector = base(partition)
        if change == "weights":
            detector.model.parameters()[0].data.flat[0] += 1e-6
        elif change == "blocklist":
            detector.blocklist = {2**31 + 1}
        elif change == "route table":
            detector.route_table = RouteTable()
            detector.route_table.announce((0, 2**31 - 1), origin_asn=1)
        return detector

    return factory


class TestDeploymentPinning:
    """A checkpoint pins the deployment it was served under by one digest:
    restoring it through a factory that differs in any piece fails loudly,
    never silently serves the snapshot under other weights or tables."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "change", ["weights", "threshold", "blocklist", "route table"]
    )
    def test_restore_into_another_deployment_is_refused(self, tmp_path, backend, change):
        codec = DatagramCodec(engine_id=1)
        minutes = _minutes_of_flows(6)
        with _xatu_engine(2, backend=backend, checkpoint_dir=tmp_path) as engine:
            _drive(engine, codec, minutes[:4], cdet_at={3})
            engine.checkpoint()
        written = read_checkpoint(tmp_path)[1][0]["deployment"]
        config = ServeConfig(shards=2, backend=backend, checkpoint_dir=tmp_path)
        with ServeEngine(_factory_differing_in(change), ADDRESS_OF, config) as engine:
            _drive(engine, codec, minutes[4:], start=4)
            with pytest.raises(
                ShardFailure, match=rf"deployment {written}\b.*deployment [0-9a-f]{{64}}"
            ):
                engine.restore()
            # Refused, and closed rather than left serving half a restore
            # (the refusing detector's own state is untouched: see
            # test_columnar's rejected-snapshot test).
            assert engine.current_minute == 5 and not engine.shards[0].healthy
            with pytest.raises(RuntimeError, match="closed"):
                engine.tick(6)


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_restore_one_shard_refuses_leaves_no_half_restored_engine(
        self, tmp_path, backend
    ):
        """Shard 1's snapshot was written under other weights; shard 0's is
        good and loads first.  The engine must not go on serving shard 0's
        restored state beside shard 1's live one under the old clock and
        collector: it closes, and the next ``tick`` raises."""
        minutes = _minutes_of_flows(6)
        with _xatu_engine(2, backend=backend) as engine:
            _drive(engine, DatagramCodec(engine_id=1), minutes[:4])
            ours = engine.checkpoint(tmp_path / "ours")
        config = ServeConfig(shards=2, backend=backend)
        with ServeEngine(_factory_differing_in("weights"), ADDRESS_OF, config) as engine:
            _drive(engine, DatagramCodec(engine_id=1), minutes[:4])
            theirs = engine.checkpoint(tmp_path / "theirs")
        (ours / "shard-01.pkl").write_bytes((theirs / "shard-01.pkl").read_bytes())
        with _xatu_engine(2, backend=backend) as engine:
            _drive(engine, DatagramCodec(engine_id=1), minutes[:2])
            with pytest.raises(ShardFailure, match="shard 1 failed.*deployment"):
                engine.restore(ours)
            with pytest.raises(RuntimeError, match="closed"):
                engine.tick(2)


class TestOnlineStateRoundTrip:
    def test_state_dict_round_trips_byte_identically(self):
        factory = _xatu_factory()
        minutes = _minutes_of_flows(8)

        online = factory(ADDRESS_OF)
        for minute in range(4):
            online.step(minute, minutes[minute])
        online.ingest_cdet_alert(_cdet_record(2, 3))
        state = online.state_dict()

        clone = factory(ADDRESS_OF)
        clone.load_state_dict(state)
        assert pickle.dumps(clone.state_dict(), protocol=4) == pickle.dumps(
            state, protocol=4
        )

        # and the clone continues exactly where the original would
        for minute in range(4, 8):
            original_alerts = online.step(minute, minutes[minute])
            clone_alerts = clone.step(minute, minutes[minute])
            assert [(a.minute, a.customer_id, a.survival) for a in original_alerts] == [
                (a.minute, a.customer_id, a.survival) for a in clone_alerts
            ]
        assert pickle.dumps(clone.state_dict(), protocol=4) == pickle.dumps(
            online.state_dict(), protocol=4
        )
