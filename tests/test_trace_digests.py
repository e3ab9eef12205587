"""Byte pins on the synthetic trace generator's output streams.

Every figure, test, scenario cell and e2e workload consumes
:class:`~repro.synth.TraceGenerator` streams, so the generator may be
rewritten only if each stream stays the same bytes.  Each case below
hashes, minute by minute, the sampled batch's wire bytes, the customer
ids, the class masks in dict order and ``total_flows``, then the final
events' attackers and anomalous byte series; the digests in
``tests/fixtures/trace_digests.json`` were recorded before the generator
went columnar.

Re-record (only for an intended change of trace content) with::

    PYTHONPATH=src python tests/test_trace_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import all_specs
from repro.synth import ScenarioConfig, TraceGenerator

FIXTURE = Path(__file__).parent / "fixtures" / "trace_digests.json"

# Catalogue specs stream their full plan but stop here: past the first
# finished attacks (A2 tagging live) and, for the drift specs, past the
# mid-trace drift minute.
CATALOG_END = 600
SCALE_END = 180


def _random_config(seed: int) -> ScenarioConfig:
    """A small scenario drawn from every knob the generator branches on."""
    rng = np.random.default_rng([2026, seed])
    minutes_per_day = int(rng.choice([60, 90, 120]))
    family = str(rng.choice(["campaign", "carpet_bombing", "pulse_wave", "multi_vector"]))
    budgeted = bool(rng.random() < 0.4)
    rates = [1, 2, 7, 30, 100]
    return ScenarioConfig(
        total_days=float(rng.choice([3.0, 4.0])),
        minutes_per_day=minutes_per_day,
        prep_days=1.0,
        n_customers=int(rng.integers(2, 10)) if not budgeted else int(rng.integers(50, 400)),
        n_botnets=int(rng.integers(1, 4)),
        botnet_size=int(rng.integers(20, 120)),
        campaigns_per_botnet=int(rng.integers(1, 3)),
        sampling_rates=tuple(int(r) for r in rng.choice(rates, size=int(rng.integers(1, 4)))),
        benign_flows_per_minute=int(rng.integers(2, 12)),
        seed=int(rng.integers(1, 10_000)),
        rampup_volume_scale=float(rng.choice([1.0, 0.5])),
        fresh_sources=bool(rng.random() < 0.25),
        skip_preparation=bool(rng.random() < 0.2),
        attack_family=family,
        fixed_attack_type=(
            None if rng.random() < 0.5
            else str(rng.choice(["udp_flood", "tcp_ack", "tcp_syn", "dns_amplification", "icmp_flood"]))
        ),
        prep_damping=float(rng.choice([0.0, 0.0, 0.5, 0.85])),
        carpet_targets=int(rng.integers(1, 4)) if family == "carpet_bombing" else None,
        benign_drift=rng.choice([None, "flash_crowd", "diurnal_shift"]),
        lazy_world=budgeted,
        benign_flow_budget=int(rng.integers(100, 400)) if budgeted else None,
        benign_hot_customers=int(rng.integers(1, 40)),
        benign_tail_fraction=float(rng.choice([0.0, 0.2, 0.5])),
    )


def cases() -> dict[str, tuple[ScenarioConfig, int | None]]:
    """name -> (config, last minute streamed; None = the full horizon)."""
    out: dict[str, tuple[ScenarioConfig, int | None]] = {}
    for spec in all_specs():
        end = SCALE_END if spec.family == "scale" else CATALOG_END
        out[f"catalog:{spec.name}"] = (spec.config, min(end, spec.config.horizon_minutes))
    out["dense-sampled"] = (
        ScenarioConfig(
            total_days=4, minutes_per_day=120, prep_days=1, n_customers=12,
            n_botnets=3, botnet_size=80, campaigns_per_botnet=2,
            sampling_rates=(1, 4, 50), benign_flows_per_minute=20, seed=17,
        ),
        None,
    )
    out["budgeted-tail"] = (
        ScenarioConfig(
            total_days=3, minutes_per_day=120, prep_days=1, n_customers=3000,
            n_botnets=2, botnet_size=100, sampling_rates=(1, 8), seed=23,
            lazy_world=True, benign_flow_budget=300, benign_hot_customers=16,
            benign_tail_fraction=0.3,
        ),
        None,
    )
    out["fresh-sources"] = (
        ScenarioConfig(
            total_days=4, minutes_per_day=120, prep_days=1, n_customers=6,
            n_botnets=3, botnet_size=80, campaigns_per_botnet=2,
            fresh_sources=True, seed=29,
        ),
        None,
    )
    # The e2e suite's fleet and flood worlds at their full horizons.
    for name, budget, hot, horizon in (("fleet", 200, 48, 70), ("flood", 10_000, 8, 22)):
        out[f"e2e-{name}"] = (
            ScenarioConfig(
                total_days=1.0, minutes_per_day=120, prep_days=0.5,
                n_customers=2000, n_botnets=2, botnet_size=120, seed=7,
                lazy_world=True, benign_flow_budget=budget,
                benign_hot_customers=hot, benign_tail_fraction=0.0,
            ),
            horizon,
        )
    for seed in range(10):
        out[f"random:{seed}"] = (_random_config(seed), None)
    return out


def _update(h, *parts: bytes) -> None:
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)


def trace_digest(config: ScenarioConfig, end: int | None) -> dict[str, str | int]:
    """sha256 of one stream's minutes, and of its events' final truth."""
    generator = TraceGenerator(config)
    stream = hashlib.sha256()
    minutes = flows = 0
    for sl in generator.iter_minutes(0, end):
        minutes += 1
        flows += sl.sampled_flows
        _update(
            stream,
            sl.minute.to_bytes(8, "little"),
            sl.batch.array.tobytes(),
            sl.customer_ids.astype("<i8").tobytes(),
            sl.total_flows.to_bytes(8, "little"),
        )
        for cls, mask in sl.class_masks.items():
            _update(stream, cls.encode(), np.asarray(mask, dtype=bool).tobytes())
    truth = hashlib.sha256()
    for event in generator.events_so_far():
        _update(
            truth,
            f"{event.event_id}:{event.customer_id}:{event.onset}:{event.end}".encode(),
            np.array(sorted(event.attackers), dtype="<i8").tobytes(),
            np.asarray(event.anomalous_bytes, dtype="<f8").tobytes(),
        )
    return {
        "minutes": minutes,
        "flows": flows,
        "stream": stream.hexdigest(),
        "events": truth.hexdigest(),
    }


def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(cases()))
def test_stream_bytes_match_the_recorded_digest(name):
    config, end = cases()[name]
    expected = _recorded()["cases"][name]
    assert trace_digest(config, end) == expected


def test_spoof_stream_from_plan_seed_changes_the_digest(monkeypatch):
    """The seed-stream mutant: spoofed-source draws seeded from the
    planning child stream instead of their own.  The pins must see it, so
    spoofed sources never drop out of the pinned cases."""
    original = TraceGenerator.__init__

    def shared_seed_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._spoof_rng = np.random.default_rng(
            np.random.SeedSequence(self.config.seed).spawn(5)[0]
        )

    monkeypatch.setattr(TraceGenerator, "__init__", shared_seed_init)
    config, end = cases()["dense-sampled"]
    assert trace_digest(config, end) != _recorded()["cases"]["dense-sampled"]


def test_fixture_covers_every_case_and_catalog_spec():
    recorded = set(_recorded()["cases"])
    assert recorded == set(cases())
    assert {f"catalog:{spec.name}" for spec in all_specs()} <= recorded


def test_random_configs_reach_every_branch():
    """The seeded random configs keep covering what the generator branches
    on, so a knob cannot silently drop out of the pins."""
    configs = [cfg for name, (cfg, _) in cases().items() if name.startswith("random:")]
    assert {c.attack_family for c in configs} >= {"campaign", "carpet_bombing", "pulse_wave", "multi_vector"}
    assert any(c.benign_flow_budget is not None and c.benign_tail_fraction > 0 for c in configs)
    assert any(c.benign_flow_budget is None for c in configs)
    assert any(c.fresh_sources for c in configs)
    assert any(c.skip_preparation for c in configs)
    assert any(c.prep_damping > 0 for c in configs)
    assert any(len(c.sampling_rates) > 1 for c in configs)


def _record() -> None:
    digests = {name: trace_digest(cfg, end) for name, (cfg, end) in sorted(cases().items())}
    FIXTURE.write_text(
        json.dumps({"numpy": np.__version__, "cases": digests}, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(digests)} stream digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: tests/test_trace_digests.py --record")
    _record()
