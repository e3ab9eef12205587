"""Trace persistence: save/load a generated :class:`Trace` to disk.

Generating an ISP-scale trace takes minutes; persisting it lets the test
and benchmark suites (and downstream users) reuse one across runs.  The
format is explicit npz + JSON — no pickle, so saved traces are safe to
share and diff:

* ``trace.json`` — the scenario config, counters, prep windows, and the
  scalar fields of every ground-truth event,
* ``matrix.npz``  — the sparse (customer, class, minute) cells of the
  traffic matrix: keys, 63-wide vectors, counters, and flattened
  per-cell sources,
* ``events.npz``  — per-event anomalous byte series and attacker sets
  (flattened with offsets).

The world itself is *not* stored: it is reconstructed deterministically
from the scenario config's seed, and a checksum guards against drift.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..netflow.matrix import TrafficMatrix
from .attacks import AttackSignature, AttackType
from .campaign import PlannedPrep
from .scenario import AttackEvent, ScenarioConfig, Trace
from .world import IspWorld

__all__ = ["save_trace", "load_trace", "world_checksum"]

_FORMAT_VERSION = 1


def world_checksum(world: IspWorld) -> int:
    """A cheap determinism guard over the world's allocation."""
    total = len(world.customers) * 1_000_003
    for customer in world.customers:
        total = (total * 31 + customer.address) & 0xFFFFFFFF
    for botnet in world.botnets:
        total = (total * 31 + int(botnet.members.sum()) ) & 0xFFFFFFFF
    return total


def _flatten_sets(sets: list[set[int]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    chunks = []
    for i, members in enumerate(sets):
        arr = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
        chunks.append(arr)
        offsets[i + 1] = offsets[i] + len(arr)
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return flat, offsets


def _unflatten_sets(flat: np.ndarray, offsets: np.ndarray) -> list[set[int]]:
    return [
        set(int(x) for x in flat[offsets[i] : offsets[i + 1]])
        for i in range(len(offsets) - 1)
    ]


def save_trace(trace: Trace, directory: str | Path) -> Path:
    """Persist ``trace`` under ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # --- matrix ---------------------------------------------------------
    # matrix.npz is the arrays of ``TrafficMatrix.state_dict()``, under their
    # names; its class names go into the manifest, roster and clock nowhere.
    columns = trace.matrix.state_dict()
    np.savez_compressed(
        directory / "matrix.npz",
        **{name: value for name, value in columns.items() if isinstance(value, np.ndarray)},
    )

    # --- events ----------------------------------------------------------
    anomalous_flat = (
        np.concatenate([e.anomalous_bytes for e in trace.events])
        if trace.events else np.zeros(0)
    )
    anomalous_offsets = np.zeros(len(trace.events) + 1, dtype=np.int64)
    for i, event in enumerate(trace.events):
        anomalous_offsets[i + 1] = anomalous_offsets[i] + len(event.anomalous_bytes)
    attackers_flat, attackers_offsets = _flatten_sets(
        [e.attackers for e in trace.events]
    )
    np.savez_compressed(
        directory / "events.npz",
        anomalous_flat=anomalous_flat, anomalous_offsets=anomalous_offsets,
        attackers_flat=attackers_flat, attackers_offsets=attackers_offsets,
    )

    # --- JSON manifest ----------------------------------------------------
    manifest = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(trace.config),
        "world_checksum": world_checksum(trace.world),
        "horizon": trace.horizon,
        "total_flows": trace.total_flows,
        "sampled_flows": trace.sampled_flows,
        "class_names": columns["classes"],
        "events": [
            {
                "event_id": e.event_id,
                "customer_id": e.customer_id,
                "customer_address": e.customer_address,
                "attack_type": e.attack_type.value,
                "onset": e.onset,
                "end": e.end,
                "peak_bytes": e.peak_bytes,
                "ramp_rate": e.ramp_rate,
                "campaign_id": e.campaign_id,
                "botnet_id": e.botnet_id,
                "signature": dataclasses.asdict(e.signature),
                "extra_signatures": [
                    dataclasses.asdict(s) for s in e.extra_signatures
                ],
            }
            for e in trace.events
        ],
        "preps": [
            {
                "campaign_id": p.campaign_id,
                "botnet_id": p.botnet_id,
                "customer_id": p.customer_id,
                "start": p.start,
                "end": p.end,
                "aborted": p.aborted,
                "spoofed_fraction": p.spoofed_fraction,
            }
            for p in trace.preps
        ],
    }
    (directory / "trace.json").write_text(json.dumps(manifest))
    return directory


def load_trace(directory: str | Path) -> Trace:
    """Restore a trace saved with :func:`save_trace`."""
    directory = Path(directory)
    manifest = json.loads((directory / "trace.json").read_text())
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format {manifest.get('format_version')!r}"
        )
    config_fields = dict(manifest["config"])
    if config_fields.get("sampling_rates") is not None:
        config_fields["sampling_rates"] = tuple(config_fields["sampling_rates"])
    config = ScenarioConfig(**config_fields)
    world = IspWorld(config.world_config())
    if world_checksum(world) != manifest["world_checksum"]:
        raise ValueError(
            "world reconstruction mismatch: the generator changed since this "
            "trace was saved — regenerate it"
        )

    # --- matrix -----------------------------------------------------------
    with np.load(directory / "matrix.npz") as archive:
        columns = {name: archive[name] for name in archive.files}
    matrix = TrafficMatrix()
    # ``set_cell`` rebuilds roster and clock from the cells (a trace's
    # matrix is never evicted from).
    matrix.load_state_dict(
        {"max_minute": -1, "customers": [], "classes": manifest["class_names"], **columns}
    )

    # --- events -------------------------------------------------------------
    with np.load(directory / "events.npz") as archive:
        anomalous_flat = archive["anomalous_flat"]
        anomalous_offsets = archive["anomalous_offsets"]
        attacker_sets = _unflatten_sets(
            archive["attackers_flat"], archive["attackers_offsets"]
        )
    events = []
    for i, meta in enumerate(manifest["events"]):
        sig = meta["signature"]
        events.append(
            AttackEvent(
                event_id=meta["event_id"],
                customer_id=meta["customer_id"],
                customer_address=meta["customer_address"],
                attack_type=AttackType(meta["attack_type"]),
                onset=meta["onset"],
                end=meta["end"],
                signature=AttackSignature(**sig),
                extra_signatures=tuple(
                    AttackSignature(**s) for s in meta.get("extra_signatures", [])
                ),
                peak_bytes=meta["peak_bytes"],
                ramp_rate=meta["ramp_rate"],
                campaign_id=meta["campaign_id"],
                botnet_id=meta["botnet_id"],
                anomalous_bytes=anomalous_flat[
                    anomalous_offsets[i] : anomalous_offsets[i + 1]
                ].copy(),
                attackers=attacker_sets[i],
            )
        )
    preps = [PlannedPrep(**p) for p in manifest["preps"]]
    return Trace(
        config=config,
        world=world,
        matrix=matrix,
        events=events,
        preps=preps,
        horizon=manifest["horizon"],
        total_flows=manifest["total_flows"],
        sampled_flows=manifest["sampled_flows"],
    )
