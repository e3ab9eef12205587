"""The ``scale`` suite: peak RSS of a streamed day at 10k/100k/1M customers.

Each cell streams one seeded lazy-world compressed day
(:class:`~repro.synth.ScenarioConfig` with ``lazy_world`` +
``benign_flow_budget``) minute by minute through a sharded
:class:`~repro.serve.ServeEngine` routed by a
:class:`~repro.serve.ContiguousCustomerRouter`.  Neither side holds
per-customer state for silent customers, so memory should stay flat while
the universe grows 100×.  ``minutes_per_s`` (ingest + tick, generator
outside the timer) is recorded, never gated: serving speed is the
end-to-end suite's number.  Each cell runs in its **own subprocess**
(``python -m repro.bench.scale --cell <name>``) so ``ru_maxrss`` is that
cell's own high-water mark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .harness import bench_report

__all__ = [
    "SCALE_CELLS", "SCALE_MINUTES", "scale_scenario", "run_cell", "run_scale",
    "render_scale",
]

# One compressed day (120 "minutes") per cell; the universe grows 100×
# across the table while the per-minute work should not.
SCALE_CELLS: dict[str, int] = {"10k": 10_000, "100k": 100_000, "1m": 1_000_000}
SCALE_MINUTES = 120
_SMOKE_MINUTES = 30


def scale_scenario(n_customers: int, seed: int = 7):
    """The seeded compressed-day scenario one scale cell streams."""
    from ..synth import ScenarioConfig

    return ScenarioConfig(
        total_days=1.0,
        minutes_per_day=SCALE_MINUTES,
        prep_days=0.5,
        n_customers=n_customers,
        n_botnets=2,
        botnet_size=120,
        campaigns_per_botnet=1,
        seed=seed,
        lazy_world=True,
        benign_flow_budget=1_200,
        benign_hot_customers=256,
        benign_tail_fraction=0.2,
    )


def _tiny_artifacts():
    """An untrained short-lookback model + trivially fitted scaler.

    The cell measures generation/routing/serving scalability, not model
    quality — so the model is the smallest architecture the serving loop
    accepts, and the scaler is fitted on a seeded random block purely to
    satisfy the fitted-before-transform contract.
    """
    from ..core.model import TimescaleSpec, XatuModel, XatuModelConfig
    from ..signals.features import N_FEATURES, FeatureScaler

    model = XatuModel(
        XatuModelConfig(
            hidden_size=8,
            dense_size=8,
            detect_window=5,
            timescales=(TimescaleSpec("short", 1, 30),),
        )
    )
    scaler = FeatureScaler()
    rng = np.random.default_rng(0)
    scaler.fit([np.abs(rng.normal(size=(64, N_FEATURES)))])
    return model, scaler


def run_cell(
    cell: str,
    minutes: int = SCALE_MINUTES,
    shards: int = 2,
    seed: int = 7,
) -> dict:
    """Stream one scale cell end to end and return its row.

    Runs inside the per-cell subprocess: generator → collector → sharded
    engine, minute by minute, then reads ``ru_maxrss`` as the process-wide
    peak.
    """
    import resource

    from ..core.online import OnlineConfig, OnlineXatu
    from ..serve import ContiguousCustomerRouter, ServeConfig, ServeEngine
    from ..synth import TraceGenerator

    n_customers = SCALE_CELLS[cell]
    config = scale_scenario(n_customers, seed=seed)
    minutes = min(minutes, config.horizon_minutes)

    model, scaler = _tiny_artifacts()
    generator = TraceGenerator(config)
    router = ContiguousCustomerRouter.for_world(generator.world)
    route_table = generator.world.route_table
    online_config = OnlineConfig(
        threshold=1e-9,  # untrained hazards: keep the alert stream quiet
        evict_margin_minutes=10,
        watch_idle_minutes=15,
    )

    def factory(partition):
        return OnlineXatu(
            model=model,
            scaler=scaler,
            customer_of=partition,
            blocklist=set(),
            route_table=route_table,
            config=online_config,
        )

    engine = ServeEngine(
        factory, router, ServeConfig(shards=shards, backend="inline")
    )
    flows = 0
    engine_s = 0.0
    clock = time.perf_counter
    try:
        for sl in generator.iter_minutes(0, minutes):
            start = clock()  # the generator's minute is built by now
            flows += engine.ingest_flows(sl.batch)
            engine.tick(sl.minute)
            engine_s += clock() - start
    finally:
        engine.close()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n_customers": n_customers,
        "flows": flows,
        "minutes_per_s": minutes / engine_s if engine_s > 0 else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,  # ru_maxrss is KiB on Linux
    }


# ----------------------------------------------------------------------
# orchestration (parent process)
# ----------------------------------------------------------------------
def _spawn_cell(cell: str, minutes: int, shards: int, seed: int) -> dict:
    """Run one cell in a fresh interpreter and parse its JSON row."""
    src_root = str(Path(__file__).resolve().parents[2])
    paths = (src_root, os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [
        sys.executable, "-m", "repro.bench.scale", "--cell", cell,
        "--minutes", str(minutes), "--shards", str(shards), "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale cell {cell} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run_scale(
    smoke: bool = False,
    cases: tuple[str, ...] | None = None,
    shards: int = 2,
    seed: int = 7,
) -> dict:
    """Run the scale cells (each in its own subprocess); the ``scale`` payload."""
    if cases is None:
        cases = ("10k", "100k") if smoke else tuple(SCALE_CELLS)
    minutes = _SMOKE_MINUTES if smoke else SCALE_MINUTES
    sizes = {"minutes": minutes, "shards": shards, "seed": seed}
    rows = {cell: _spawn_cell(cell, minutes, shards, seed) for cell in cases}
    return bench_report("scale", smoke, sizes, rows)


def render_scale(payload: dict) -> str:
    header = f"{'cell':<6} {'customers':>10} {'flows':>10} {'peak RSS MB':>12}"
    lines = [f"{payload['sizes']['minutes']} minutes per cell", header]
    lines.append("-" * len(header))
    for cell, row in sorted(
        payload["rows"].items(), key=lambda kv: kv[1]["n_customers"]
    ):
        lines.append(
            f"{cell:<6} {row['n_customers']:>10,} {row['flows']:>10,} "
            f"{row['peak_rss_mb']:>12.1f}"
        )
    return "\n".join(lines)


def _main(argv: list[str] | None = None) -> int:
    """Subprocess entry: run one cell, print its JSON row."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell", required=True, choices=tuple(SCALE_CELLS))
    parser.add_argument("--minutes", type=int, default=SCALE_MINUTES)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    row = run_cell(args.cell, minutes=args.minutes, shards=args.shards, seed=args.seed)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
