"""The shared-memory shard transport (repro.serve.shm).

The process backend's guarantee is that its transport is *invisible*:
``transport="shm"`` (the default) and ``transport="pipe"`` must produce
byte-identical alert streams and checkpoints, because the payload bytes
crossing the boundary are the same — only the copy count changes.  These
tests pin that, plus the ring mechanics the guarantee rests on:

* **ring level** — write/view round trips, wrap-around reuse, automatic
  growth under oversized payloads (segment renamed, reader re-attaches),
  idempotent close;
* **worker level** — a process shard over shm steps :class:`FlowBatch`
  payloads identically to an inline shard, through ring wraps and
  growths; a host without usable shared memory falls back to the pipe
  transport with a warning rather than failing;
* **engine level** — shm vs pipe vs inline equivalence, shard-count
  invariance, and kill-and-restore crash equivalence all running over
  the shared-memory transport, at the served float32 and at float64.
"""

import os
import pickle
import warnings

import numpy as np
import pytest

from repro.netflow import FLOW_WIRE_SIZE, DatagramCodec, FlowBatch, FlowRecord
from repro.serve import ServeConfig, ServeEngine, latest_checkpoint
from repro.serve import shard as shard_mod
from repro.serve.config import INFERENCE_DTYPES
from repro.serve.shard import ShardWorker
from repro.serve.shm import MIN_RING_BYTES, ShmReader, ShmRing

from tests.test_serve import (
    ADDRESS_OF,
    _drive,
    _minutes_of_flows,
    _xatu_factory,
)


def _detector_factory(threshold: float = 0.5):
    """Zero-arg factory for ShardWorker: one shard owning every customer."""
    factory = _xatu_factory(threshold)
    return lambda: factory(ADDRESS_OF)


def _flow_batch(n: int, seed: int = 0) -> FlowBatch:
    rng = np.random.default_rng(seed)
    return FlowBatch.from_records(
        [
            FlowRecord(
                timestamp=0,
                src_addr=int(rng.integers(1, 2**31)),
                dst_addr=50_000 + int(rng.integers(0, len(ADDRESS_OF))),
                src_port=int(rng.integers(1024, 65535)),
                dst_port=443,
                protocol=6,
                packets=int(rng.integers(1, 40)),
                bytes_=int(rng.integers(200, 40_000)),
            )
            for _ in range(n)
        ]
    )


# ----------------------------------------------------------------------
# ring level
# ----------------------------------------------------------------------
class TestShmRing:
    def test_write_view_round_trip(self):
        ring = ShmRing(MIN_RING_BYTES)
        reader = ShmReader()
        try:
            payload = bytes(range(256)) * 4
            name, offset, length = ring.write(payload)
            assert bytes(reader.view(name, offset, length)) == payload
        finally:
            reader.close()
            ring.close()

    def test_sequential_writes_then_wrap(self):
        ring = ShmRing(MIN_RING_BYTES)
        try:
            a = ring.write(b"a" * 1600)
            b = ring.write(b"b" * 1600)
            assert b[1] == a[1] + 1600  # sequential within capacity
            c = ring.write(b"c" * 1600)  # does not fit: wraps to offset 0
            assert c[1] == 0
            assert a[0] == b[0] == c[0] == ring.name
        finally:
            ring.close()

    def test_growth_renames_segment_and_preserves_payload(self):
        ring = ShmRing(MIN_RING_BYTES)
        reader = ShmReader()
        try:
            old_name = ring.name
            payload = b"x" * (MIN_RING_BYTES * 3)
            name, offset, length = ring.write(payload)
            assert name != old_name
            assert ring.capacity >= len(payload)
            assert bytes(reader.view(name, offset, length)) == payload
        finally:
            reader.close()
            ring.close()

    def test_reader_reattaches_across_growth(self):
        ring = ShmRing(MIN_RING_BYTES)
        reader = ShmReader()
        try:
            small = ring.write(b"s" * 64)
            assert bytes(reader.view(*small)) == b"s" * 64
            big = ring.write(b"B" * (MIN_RING_BYTES * 2))
            assert big[0] != small[0]
            assert bytes(reader.view(*big)) == b"B" * (MIN_RING_BYTES * 2)
        finally:
            reader.close()
            ring.close()

    def test_batch_buffers_decode_to_the_same_batch(self):
        """What ``submit_step`` stages — a batch's own ``uint8`` view, never
        a ``bytes`` copy — through a wrap, a zero-length payload and a
        growth; the control tuple's length is in bytes, not records."""
        ring = ShmRing(MIN_RING_BYTES)
        reader = ShmReader()
        try:
            first = ring.name
            placed = []
            for batch in (
                _flow_batch(60, seed=1),
                _flow_batch(60, seed=2),  # 2 x 2,280 B > 4,096: wraps
                FlowBatch.empty(),
                FlowBatch.from_buffer(_flow_batch(9, seed=3).to_bytes()),  # read-only
                _flow_batch(400, seed=4),  # 15,200 B: grows
            ):
                name, offset, length = ring.write(batch.array.view(np.uint8))
                assert length == len(batch) * FLOW_WIRE_SIZE
                decoded = shard_mod._decode_payload(("shm", name, offset, length), reader)
                assert decoded.to_bytes() == batch.to_bytes()
                del decoded  # the reader cannot drop a segment a view still maps
                placed.append((name, offset))
            assert placed[:4] == [(first, 0), (first, 0), (first, 2280), (first, 2280)]
            assert placed[4][0] != first
        finally:
            reader.close()
            ring.close()

    def test_close_is_idempotent(self):
        ring = ShmRing(MIN_RING_BYTES)
        ring.close()
        ring.close()
        reader = ShmReader()
        reader.close()
        reader.close()


# ----------------------------------------------------------------------
# worker level
# ----------------------------------------------------------------------
class TestShardWorkerTransport:
    def _alerts(self, worker: ShardWorker, batches) -> list:
        out = []
        for minute, batch in enumerate(batches):
            out.append(worker.step(minute, batch))
        return out

    def test_process_shm_matches_inline(self):
        batches = [_flow_batch(30, seed=i) for i in range(4)]
        # the shapes a caller can hand submit_step: strided, empty, read-only
        batches += [
            _flow_batch(30, seed=4)[::2],
            FlowBatch.empty(),
            FlowBatch.from_buffer(_flow_batch(30, seed=5).to_bytes()),
        ]
        inline = ShardWorker(0, _detector_factory(), backend="inline")
        shm = ShardWorker(
            0, _detector_factory(), backend="process", transport="shm"
        )
        try:
            assert shm.transport == "shm"
            assert self._alerts(shm, batches) == self._alerts(inline, batches)
            assert pickle.dumps(shm.state_dict()) == pickle.dumps(inline.state_dict())
        finally:
            shm.close()
            inline.close()

    def test_ring_growth_mid_stream(self, monkeypatch):
        # a tiny ring forces wrap AND growth while the worker is live
        big = _flow_batch(400, seed=1)  # > MIN_RING_BYTES of payload
        small = _flow_batch(5, seed=2)
        inline = ShardWorker(1, _detector_factory(), backend="inline")
        monkeypatch.setattr(shard_mod, "ShmRing", lambda: ShmRing(1))
        shm = ShardWorker(
            1, _detector_factory(), backend="process", transport="shm"
        )
        try:
            assert shm._ring.capacity == MIN_RING_BYTES
            batches = [small, big, small, big]
            assert self._alerts(shm, batches) == self._alerts(inline, batches)
            assert shm._ring.capacity > MIN_RING_BYTES
        finally:
            shm.close()
            inline.close()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setscheduler"), reason="no scheduler API on this platform"
    )
    def test_shards_run_sched_batch_and_serve_without_it(self, monkeypatch):
        """A forked shard cannot preempt its dispatcher on wake-up; a host
        that refuses the policy serves the same alerts."""
        batches = [_flow_batch(30, seed=i) for i in range(3)]
        inline = ShardWorker(0, _detector_factory(), backend="inline")
        batch_shard = ShardWorker(0, _detector_factory(), backend="process")

        def refuse(*args):
            raise PermissionError("sched_setscheduler refused")

        monkeypatch.setattr(os, "sched_setscheduler", refuse)  # inherited by the fork
        refused = ShardWorker(0, _detector_factory(), backend="process")
        try:
            expected = self._alerts(inline, batches)
            assert self._alerts(batch_shard, batches) == expected
            assert self._alerts(refused, batches) == expected
            assert os.sched_getscheduler(batch_shard._process.pid) == os.SCHED_BATCH
            assert os.sched_getscheduler(refused._process.pid) == os.SCHED_OTHER
            assert os.sched_getscheduler(0) == os.SCHED_OTHER  # the dispatcher's own
        finally:
            for worker in (inline, batch_shard, refused):
                worker.close()

    def test_unavailable_shm_falls_back_to_pipe(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(shard_mod, "ShmRing", refuse)
        with pytest.warns(RuntimeWarning, match="falling back to pipe"):
            worker = ShardWorker(
                0, _detector_factory(), backend="process", transport="shm"
            )
        try:
            assert worker.transport == "pipe"
            # the payload path still works — it just pickles batches
            worker.step(0, _flow_batch(8, seed=4))
        finally:
            worker.close()

    def test_non_process_backends_ignore_transport(self):
        worker = ShardWorker(0, _detector_factory(), backend="inline", transport="shm")
        try:
            assert worker.transport == "pipe"  # no ring allocated
        finally:
            worker.close()


# ----------------------------------------------------------------------
# engine level
# ----------------------------------------------------------------------
def _engine(
    shards, backend="process", transport="shm", checkpoint_dir=None, dtype="float32"
):
    return ServeEngine(
        _xatu_factory(0.9),
        ADDRESS_OF,
        ServeConfig(
            shards=shards,
            backend=backend,
            transport=transport,
            checkpoint_dir=checkpoint_dir,
            inference_dtype=dtype,
        ),
    )


MINUTES = 10
RESTART_AT = 4


class TestEngineTransportEquivalence:
    def test_config_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ServeConfig(transport="carrier-pigeon").validate()

    def test_shm_pipe_and_inline_streams_identical(self):
        minutes = _minutes_of_flows(6)
        for dtype in INFERENCE_DTYPES:
            streams = {}
            for key, (backend, transport) in {
                "inline": ("inline", "pipe"),
                "pipe": ("process", "pipe"),
                "shm": ("process", "shm"),
            }.items():
                with _engine(
                    2, backend=backend, transport=transport, dtype=dtype
                ) as engine:
                    streams[key] = _drive(engine, DatagramCodec(engine_id=1), minutes)
            assert streams["shm"] == streams["pipe"] == streams["inline"], dtype

    def test_shard_count_invariance_over_shm(self):
        minutes = _minutes_of_flows(8)
        for dtype in INFERENCE_DTYPES:
            streams = {}
            for shards in (1, 3):
                with _engine(shards, dtype=dtype) as engine:
                    streams[shards] = _drive(
                        engine, DatagramCodec(engine_id=1), minutes, cdet_at={2}
                    )
            assert streams[1] == streams[3], dtype
            assert streams[1], "the workload should produce alerts"

    def test_kill_and_restore_over_shm_is_byte_identical(self, tmp_path):
        minutes = _minutes_of_flows(MINUTES)
        for dtype in INFERENCE_DTYPES:
            base_dir, ckpt_dir = tmp_path / dtype / "base", tmp_path / dtype / "crash"
            with _engine(2, checkpoint_dir=base_dir, dtype=dtype) as engine:
                baseline = _drive(engine, DatagramCodec(engine_id=1), minutes)
                engine.checkpoint()

            codec = DatagramCodec(engine_id=1)
            engine = _engine(2, checkpoint_dir=ckpt_dir, dtype=dtype)
            restarted = _drive(engine, codec, minutes[: RESTART_AT + 1])
            engine.checkpoint()
            engine.close()

            engine = _engine(2, checkpoint_dir=ckpt_dir, dtype=dtype)
            assert engine.restore() == RESTART_AT
            restarted += _drive(
                engine, codec, minutes[RESTART_AT + 1 :], start=RESTART_AT + 1
            )
            engine.checkpoint()
            engine.close()

            assert restarted == baseline, dtype
            base_path = latest_checkpoint(base_dir)
            crash_path = latest_checkpoint(ckpt_dir)
            for name in ("MANIFEST.json", "engine.pkl", "shard-00.pkl", "shard-01.pkl"):
                assert (base_path / name).read_bytes() == (
                    crash_path / name
                ).read_bytes(), (dtype, name)

    def test_fallback_engine_stream_matches_shm(self, monkeypatch):
        """A host without usable shm degrades, not diverges.

        Every shard of a ``transport="shm"`` engine warns and falls back
        to the pipe when the ring can't be allocated — and the merged
        alert stream stays byte-identical to the healthy-shm engine's.
        """
        minutes = _minutes_of_flows(6)
        with _engine(2, backend="process", transport="shm") as engine:
            baseline = _drive(engine, DatagramCodec(engine_id=1), minutes)

        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(shard_mod, "ShmRing", refuse)
        with pytest.warns(RuntimeWarning, match="falling back to pipe"):
            engine = _engine(2, backend="process", transport="shm")
        try:
            assert all(w.transport == "pipe" for w in engine.shards)
            fallback = _drive(engine, DatagramCodec(engine_id=1), minutes)
        finally:
            engine.close()
        assert fallback == baseline

    def test_close_releases_rings(self):
        engine = _engine(2)
        rings = [w._ring for w in engine.shards if w._ring is not None]
        assert rings, "process+shm shards should hold rings"
        engine.close()
        assert all(w._ring is None for w in engine.shards)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ring in rings:
                ring.close()  # already closed by the engine: must be a no-op
