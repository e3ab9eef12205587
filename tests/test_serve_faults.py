"""One fault rule for the serve engine: a failed shard closes it and raises.

Xatu rides beside the incumbent detector, so the worst way for it to fail
is quietly: a fleet that stops scoring some customers while every health
signal reads healthy leaves nobody a reason to fall back.  Whatever the
shard did — raised in ``step``, raised building its snapshot, or died
between minutes — the ``tick`` or ``checkpoint`` it happened in collects
every other reply, closes the engine and raises the ``ShardFailure``.  The
closed engine refuses every later ``tick``, ``checkpoint`` and ``restore``,
and recovery is a fresh engine restoring the last checkpoint.
"""

import multiprocessing
import os
import signal
from multiprocessing import shared_memory

import pytest

from repro.netflow import DatagramCodec
from repro.serve import (
    BACKENDS,
    ServeConfig,
    ServeEngine,
    ShardFailure,
    ShardWorker,
    latest_checkpoint,
    list_checkpoints,
)
from repro.serve import shard as shard_module
from repro.serve.config import INFERENCE_DTYPES
from tests.test_serve import (
    ADDRESS_OF,
    StubDetector,
    _cdet_record,
    _checkpoint_files,
    _minutes_of_flows,
    _xatu_factory,
)


def _owns_customer_1(detector: StubDetector) -> bool:
    """True on the shard that serves customer 1 (shard 1 of 2 or 3)."""
    return 1 in detector.partition.values()


class FailingStep(StubDetector):
    def step(self, minute, flows):
        if minute >= 1 and _owns_customer_1(self):
            raise RuntimeError("induced step failure")
        return super().step(minute, flows)


class FailingSnapshot(StubDetector):
    def state_dict(self):
        if _owns_customer_1(self):
            raise RuntimeError("induced snapshot failure")
        return super().state_dict()


def _sigkill(shard: ShardWorker) -> None:
    os.kill(shard._process.pid, signal.SIGKILL)
    shard._process.join()


def _induce_step(engine):
    engine.tick(1)


def _induce_sigkill(engine):
    _sigkill(engine.shards[1])
    engine.tick(1)


def _induce_snapshot(engine):
    engine.checkpoint()


FAULTS = {
    # name: (detector, how the fault is induced, what the ShardFailure says)
    "step": (FailingStep, _induce_step, "shard 1 failed: RuntimeError: induced step"),
    "sigkill": (StubDetector, _induce_sigkill, "shard 1 died"),
    "snapshot": (FailingSnapshot, _induce_snapshot, "shard 1 failed: RuntimeError: induced snapshot"),
}
CASES = [
    (fault, backend)
    for fault in FAULTS
    for backend in BACKENDS
    if not (fault == "sigkill" and backend == "inline")  # nothing to kill
]


def _assert_closed_loudly(engine: ServeEngine) -> None:
    """Closed, the dead shard named, nothing stranded, nothing left running."""
    assert engine.shard_health() == {0: True, 1: False}
    assert [shard._pending for shard in engine.shards] == [0, 0]
    if engine.config.backend == "process":
        assert not any(shard._process.is_alive() for shard in engine.shards)
    engine.ingest_flows(_minutes_of_flows(1)[0])
    with pytest.raises(RuntimeError, match="engine is closed"):
        engine.tick(2)


@pytest.mark.parametrize("fault, backend", CASES)
def test_a_shard_fault_closes_the_engine_and_raises(tmp_path, fault, backend):
    """No later tick may alert for the surviving shard's customers only,
    and a killed process shard must not surface as a raw
    ``BrokenPipeError`` followed by ticks that return ``[]`` while every
    shard reads healthy."""
    detector, induce, message = FAULTS[fault]
    config = ServeConfig(shards=2, backend=backend, checkpoint_dir=tmp_path)
    with ServeEngine(detector, ADDRESS_OF, config) as engine:
        engine.ingest_flows(_minutes_of_flows(1)[0])
        assert {a.customer_id for a in engine.tick(0)} == set(ADDRESS_OF.values())
        engine.ingest_flows(_minutes_of_flows(1)[0])
        with pytest.raises(ShardFailure, match=message):
            induce(engine)
        _assert_closed_loudly(engine)
    assert list_checkpoints(tmp_path) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_asks_every_shard_first_and_strands_none(
    tmp_path, monkeypatch, backend
):
    """Snapshots are requested from all shards before any is awaited
    (forked shards build theirs side by side).  A shard that fails in the
    middle still lets every other reply be collected — no shard is left
    with a pending command — nothing is written, and the engine closes."""
    calls = []
    for name in ("submit", "collect"):
        def logged(self, *message, _real=getattr(ShardWorker, name), _name=name):
            calls.append((_name, self.index))
            return _real(self, *message)
        monkeypatch.setattr(ShardWorker, name, logged)
    engine = ServeEngine(
        FailingSnapshot, ADDRESS_OF, ServeConfig(shards=3, backend=backend)
    )
    with engine:
        engine.tick(0)
        del calls[:]
        with pytest.raises(ShardFailure, match="induced snapshot failure"):
            engine.checkpoint(tmp_path)
        assert calls == [("submit", i) for i in range(3)] + [("collect", i) for i in range(3)]
        assert [shard._pending for shard in engine.shards] == [0, 0, 0]
        assert engine.shard_health() == {0: True, 1: False, 2: True}
        assert list_checkpoints(tmp_path) == []
        with pytest.raises(RuntimeError, match="engine is closed"):
            engine.tick(1)
        with pytest.raises(RuntimeError, match="engine is closed"):
            engine.checkpoint(tmp_path)
        assert list_checkpoints(tmp_path) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_closed_engine_refuses_checkpoint_and_restore(tmp_path, backend):
    """After ``close()`` neither backend writes a checkpoint or restores
    one, nor fails with a transport error (``BrokenPipeError``, "already
    has a pending command") that hides why."""
    config = ServeConfig(shards=2, backend=backend, checkpoint_dir=tmp_path)
    engine = ServeEngine(StubDetector, ADDRESS_OF, config)
    engine.tick(0)
    engine.checkpoint()
    engine.close()
    with pytest.raises(RuntimeError, match="engine is closed"):
        engine.checkpoint()
    with pytest.raises(RuntimeError, match="engine is closed"):
        engine.restore()
    assert engine.current_minute == 0
    assert len(list_checkpoints(tmp_path)) == 1


def test_a_failed_constructor_closes_what_it_built(monkeypatch):
    """The factory raises for shard 1: the constructor stops shard 0's
    forked worker and unlinks every shared-memory ring before it
    re-raises."""
    rings = []
    real_ring = shard_module.ShmRing

    def recorded_ring(*args, **kwargs):
        rings.append(real_ring(*args, **kwargs))
        return rings[-1]

    monkeypatch.setattr(shard_module, "ShmRing", recorded_ring)

    def factory(partition):
        if 1 in partition.values():
            raise RuntimeError("induced factory failure")
        return StubDetector(partition)

    children = set(multiprocessing.active_children())
    config = ServeConfig(shards=2, backend="process", transport="shm")
    with pytest.raises(RuntimeError, match="induced factory failure"):
        ServeEngine(factory, ADDRESS_OF, config)
    assert set(multiprocessing.active_children()) <= children
    assert rings, "shard 0 should have staged a ring"
    for ring in rings:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ring.name)


def test_a_fresh_engine_recovers_a_killed_shard_from_the_last_checkpoint(tmp_path):
    """The recovery path for a dead shard: process backend, 2 shards, a
    checkpoint every 2 minutes.  Shard 1 is killed after minute 6, so
    ``tick(7)`` raises.  A fresh engine restores the minute-5 checkpoint and
    is re-delivered the export datagrams from minute 6 on; it emits the
    uninterrupted run's alerts and ends on its checkpoint bytes, at the
    served float32 and at float64."""
    minutes, killed_after = 12, 6
    codec = DatagramCodec(engine_id=1)
    datagrams = [
        codec.encode(flows, unix_secs=minute * 60)
        for minute, flows in enumerate(_minutes_of_flows(minutes))
    ]

    def engine(root, dtype):
        config = ServeConfig(
            shards=2,
            backend="process",
            checkpoint_dir=root,
            checkpoint_every=2,
            inference_dtype=dtype,
        )
        return ServeEngine(_xatu_factory(), ADDRESS_OF, config)

    def serve(engine, first, last):
        alerts = []
        for minute in range(first, last + 1):
            engine.ingest_datagram(datagrams[minute])
            if minute == 3:
                engine.ingest_cdet_alert(_cdet_record(0, minute))
            alerts += [(a.minute, a.customer_id, a.survival) for a in engine.tick(minute)]
        return alerts

    for dtype in INFERENCE_DTYPES:
        base_dir, crash_dir = tmp_path / dtype / "base", tmp_path / dtype / "crash"
        with engine(base_dir, dtype) as uninterrupted:
            baseline = serve(uninterrupted, 0, minutes - 1)

        crashed = engine(crash_dir, dtype)
        with crashed:
            before_crash = serve(crashed, 0, killed_after)
            _sigkill(crashed.shards[1])
            with pytest.raises(ShardFailure, match="shard 1 died"):
                serve(crashed, killed_after + 1, killed_after + 1)
        with engine(crash_dir, dtype) as recovered:
            restored = recovered.restore()
            assert restored == 5
            after_restore = serve(recovered, restored + 1, minutes - 1)

        assert baseline, "the workload should produce alerts"
        kept = [alert for alert in before_crash if alert[0] <= restored]
        assert kept + after_restore == baseline, dtype
        base, crash = latest_checkpoint(base_dir), latest_checkpoint(crash_dir)
        assert base.name == crash.name == f"ckpt-{minutes - 1:08d}"
        assert _checkpoint_files(base) == _checkpoint_files(crash), dtype
