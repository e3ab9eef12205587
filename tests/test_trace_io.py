"""Tests for trace persistence (save_trace / load_trace)."""

import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.synth import TraceGenerator, load_trace, save_trace, world_checksum
from repro.netflow import SOURCE_CLASS_ALL, SOURCE_CLASS_BLOCKLIST

MATRIX_COLUMNS = ("keys", "vectors", "counters", "sources_flat", "sources_offsets")


@pytest.fixture(scope="module")
def saved(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace_store")
    save_trace(trace, directory)
    return directory, trace, load_trace(directory)


class TestRoundtrip:
    def test_files_created(self, saved):
        directory, *_ = saved
        for name in ("trace.json", "matrix.npz", "events.npz"):
            assert (directory / name).exists()

    def test_config_preserved(self, saved):
        _dir, original, restored = saved
        assert restored.config == original.config

    def test_counters_preserved(self, saved):
        _dir, original, restored = saved
        assert restored.horizon == original.horizon
        assert restored.total_flows == original.total_flows
        assert restored.sampled_flows == original.sampled_flows

    def test_events_roundtrip(self, saved):
        _dir, original, restored = saved
        assert len(restored.events) == len(original.events)
        for a, b in zip(original.events, restored.events):
            assert a.event_id == b.event_id
            assert a.attack_type == b.attack_type
            assert a.onset == b.onset and a.end == b.end
            assert a.signature == b.signature
            assert a.attackers == b.attackers
            assert b.anomalous_bytes == pytest.approx(a.anomalous_bytes)

    def test_preps_roundtrip(self, saved):
        _dir, original, restored = saved
        assert len(restored.preps) == len(original.preps)
        assert restored.preps[0] == original.preps[0]

    def test_matrix_series_identical(self, saved):
        _dir, original, restored = saved
        for customer in original.world.customers[:3]:
            cid = customer.customer_id
            a = original.matrix.bytes_series(cid, 0, original.horizon)
            b = restored.matrix.bytes_series(cid, 0, restored.horizon)
            assert b == pytest.approx(a)

    def test_matrix_feature_blocks_identical(self, saved):
        _dir, original, restored = saved
        event = original.events[0]
        for cls in (SOURCE_CLASS_ALL, SOURCE_CLASS_BLOCKLIST):
            a = original.matrix.feature_block(
                event.customer_id, event.onset - 30, event.end, cls
            )
            b = restored.matrix.feature_block(
                event.customer_id, event.onset - 30, event.end, cls
            )
            assert b == pytest.approx(a)

    def test_world_reconstructed_identically(self, saved):
        _dir, original, restored = saved
        assert world_checksum(restored.world) == world_checksum(original.world)
        assert [c.address for c in restored.world.customers] == [
            c.address for c in original.world.customers
        ]

    def test_restored_trace_usable_by_detectors(self, saved):
        from repro.detect import NetScoutDetector

        _dir, original, restored = saved
        a = NetScoutDetector().detect(original)
        b = NetScoutDetector().detect(restored)
        assert [(x.customer_id, x.detect_minute) for x in a] == [
            (x.customer_id, x.detect_minute) for x in b
        ]


class TestOneMatrixCodec:
    """``matrix.npz`` is ``TrafficMatrix.state_dict()``'s arrays and nothing
    else: the trace files and the serve checkpoints share one codec."""

    FIXTURE = Path(__file__).parent / "fixtures" / "trace_v1"

    def test_round_trip_is_the_matrix_snapshot_bit_for_bit(self, saved):
        directory, original, restored = saved
        assert pickle.dumps(restored.matrix.state_dict(), 4) == pickle.dumps(
            original.matrix.state_dict(), 4
        )
        columns = original.matrix.state_dict()
        with np.load(directory / "matrix.npz") as archive:
            assert sorted(archive.files) == sorted(MATRIX_COLUMNS)
            for name in MATRIX_COLUMNS:
                assert archive[name].dtype == columns[name].dtype
                assert archive[name].tobytes() == columns[name].tobytes()
        manifest = json.loads((directory / "trace.json").read_text())
        assert manifest["class_names"] == columns["classes"]

    def test_a_trace_written_before_the_shared_codec_still_loads(self, tmp_path):
        """``tests/fixtures/trace_v1`` was written by the commit before the
        codec was shared (``save_trace`` with its own per-cell loop).  It
        loads, and saving it again produces the same arrays: format version
        1 did not move.  (The world is rebuilt from the config's seed: if
        the generator changes, ``load_trace`` says so and the fixture is to
        be re-recorded with ``save_trace`` on a 3-customer, 40-minute
        scenario.)"""
        trace = load_trace(self.FIXTURE)
        assert len(trace.matrix) == 163 and trace.matrix.customers() == [0, 1, 2]
        assert trace.matrix.max_minute == 39 and len(trace.events) == 2
        save_trace(trace, tmp_path)
        for name in ("matrix.npz", "events.npz"):
            with np.load(self.FIXTURE / name) as old, np.load(tmp_path / name) as new:
                assert sorted(old.files) == sorted(new.files)
                for key in old.files:
                    assert old[key].dtype == new[key].dtype
                    assert old[key].tobytes() == new[key].tobytes(), (name, key)
        assert json.loads((tmp_path / "trace.json").read_text()) == json.loads(
            (self.FIXTURE / "trace.json").read_text()
        )

    def test_a_malformed_matrix_file_is_refused(self, saved, tmp_path):
        directory, *_ = saved
        for name in ("trace.json", "events.npz"):
            (tmp_path / name).write_bytes((directory / name).read_bytes())
        with np.load(directory / "matrix.npz") as archive:
            columns = {name: archive[name] for name in archive.files}
        columns["sources_offsets"] = columns["sources_offsets"][:-1]
        np.savez_compressed(tmp_path / "matrix.npz", **columns)
        with pytest.raises(ValueError, match="sources_offsets"):
            load_trace(tmp_path)


class TestGuards:
    def test_version_mismatch_rejected(self, saved):
        directory, *_ = saved
        manifest = json.loads((directory / "trace.json").read_text())
        manifest["format_version"] = 999
        bad_dir = directory.parent / "bad_version"
        bad_dir.mkdir(exist_ok=True)
        for name in ("matrix.npz", "events.npz"):
            (bad_dir / name).write_bytes((directory / name).read_bytes())
        (bad_dir / "trace.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_trace(bad_dir)

    def test_checksum_mismatch_rejected(self, saved):
        directory, *_ = saved
        manifest = json.loads((directory / "trace.json").read_text())
        manifest["world_checksum"] = manifest["world_checksum"] ^ 0xDEAD
        bad_dir = directory.parent / "bad_checksum"
        bad_dir.mkdir(exist_ok=True)
        for name in ("matrix.npz", "events.npz"):
            (bad_dir / name).write_bytes((directory / name).read_bytes())
        (bad_dir / "trace.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="mismatch"):
            load_trace(bad_dir)

    def test_sampling_rates_tuple_restored(self, tmp_path):
        cfg = dataclasses.replace(
            TraceGenerator().config,
            total_days=2, minutes_per_day=60, prep_days=0.5,
            n_customers=3, n_botnets=1, botnet_size=40,
            sampling_rates=(1, 10),
        )
        trace = TraceGenerator(cfg).materialize()
        save_trace(trace, tmp_path / "t")
        restored = load_trace(tmp_path / "t")
        assert restored.config.sampling_rates == (1, 10)
