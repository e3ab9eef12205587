"""Scale benchmark: streaming trace generation + serving at 10k/100k/1M.

Every other benchmark in :mod:`repro.bench` measures *speed* on a fixed
small workload; this one measures *scalability*: how peak memory
behaves as the customer universe grows 100× (``minutes_per_s`` times the
engine alone — ingest + tick, the generator outside the timer — and is
recorded, not gated: serving speed is the end-to-end suite's number).  Each
cell runs one seeded lazy-world compressed day (:class:`~repro.synth.ScenarioConfig`
with ``lazy_world`` + ``benign_flow_budget``) streamed minute-by-minute
through a sharded :class:`~repro.serve.ServeEngine` routed by a
:class:`~repro.serve.ContiguousCustomerRouter` — generation never holds a
materialized :class:`~repro.synth.Trace` and serving never materializes a
routing table, so both sides should be O(active traffic), not
O(n_customers).

Isolation: each cell runs in its **own subprocess** (``python -m
repro.bench.scale --cell <name>``) so ``ru_maxrss`` is that cell's true
high-water mark, not whatever a previous cell left behind in the
allocator.  Results land in ``BENCH_scale.json`` next to the other bench
files; ``--check`` compares a fresh run against the committed baseline
with the usual host-mismatch demotion, and the *scale gate* — 1M peak RSS
within 2× of 100k — is a host-independent hard failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .harness import _comparability

__all__ = [
    "SCALE_FORMAT_VERSION",
    "SCALE_CELLS",
    "SCALE_MINUTES",
    "scale_scenario",
    "run_cell",
    "run_scale",
    "write_scale_json",
    "load_scale_json",
    "compare_scale",
    "scale_gate",
    "render_scale",
]

SCALE_FORMAT_VERSION = 1

# One compressed day (120 "minutes") per cell; the universe grows 100×
# across the table while the per-minute work should not.
SCALE_CELLS: dict[str, int] = {"10k": 10_000, "100k": 100_000, "1m": 1_000_000}
SCALE_MINUTES = 120
_SMOKE_MINUTES = 30

# The RSS ratio the scale gate enforces between the largest and the
# reference cell (the ISSUE acceptance criterion: 1M within 2× of 100k).
SCALE_GATE_PAIR = ("1m", "100k")
SCALE_GATE_RATIO = 2.0


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
    minutes: int | None = None,
    shards: int = 2,
    seed: int = 7,
) -> dict:
    """Stream one scale cell end to end and return its measurements.

    Runs inside the per-cell subprocess: generator → collector → sharded
    engine, minute by minute, then reads ``ru_maxrss`` as the process-wide
    peak.  Returns a JSON-ready dict.
    """
    import resource

    from ..core.online import OnlineConfig, OnlineXatu
    from ..serve import ContiguousCustomerRouter, ServeConfig, ServeEngine
    from ..synth import TraceGenerator

    if cell not in SCALE_CELLS:
        raise ValueError(f"unknown scale cell {cell!r}; choose from {list(SCALE_CELLS)}")
    n_customers = SCALE_CELLS[cell]
    config = scale_scenario(n_customers, seed=seed)
    horizon = config.horizon_minutes
    minutes = horizon if minutes is None else min(minutes, horizon)

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
        "cell": cell,
        "n_customers": n_customers,
        "minutes": minutes,
        "shards": shards,
        "seed": seed,
        "minutes_per_s": minutes / engine_s if engine_s > 0 else 0.0,
        "flows": flows,
        "peak_rss_mb": peak_rss_kb / 1024.0,  # ru_maxrss is KiB on Linux
    }


# ----------------------------------------------------------------------
# orchestration (parent process)
# ----------------------------------------------------------------------
def _spawn_cell(cell: str, minutes: int | None, shards: int, seed: int) -> dict:
    """Run one cell in a fresh interpreter and parse its JSON result."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    pythonpath = env.get("PYTHONPATH", "")
    if src_root not in pythonpath.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root if not pythonpath else src_root + os.pathsep + pythonpath
        )
    cmd = [
        sys.executable, "-m", "repro.bench.scale",
        "--cell", cell, "--shards", str(shards), "--seed", str(seed),
    ]
    if minutes is not None:
        cmd += ["--minutes", str(minutes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale cell {cell} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run_scale(
    cells: tuple[str, ...] | None = None,
    smoke: bool = False,
    shards: int = 2,
    seed: int = 7,
) -> dict:
    """Run the scale cells (each in its own subprocess) and build the report."""
    from ..obs.export import host_metadata

    if cells is None:
        cells = ("10k", "100k") if smoke else tuple(SCALE_CELLS)
    unknown = [c for c in cells if c not in SCALE_CELLS]
    if unknown:
        raise ValueError(
            f"unknown scale cell(s) {unknown}; choose from {list(SCALE_CELLS)}"
        )
    minutes = _SMOKE_MINUTES if smoke else None
    runs = [_spawn_cell(cell, minutes, shards, seed) for cell in cells]
    return {
        "format_version": SCALE_FORMAT_VERSION,
        "tag": "scale",
        "smoke": smoke,
        "host": host_metadata(),
        "runs": {run["cell"]: run for run in runs},
    }


def write_scale_json(payload: dict, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "BENCH_scale.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_scale_json(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != SCALE_FORMAT_VERSION:
        raise ValueError(
            f"scale bench file {path} has format_version {version!r}; this "
            f"code understands {SCALE_FORMAT_VERSION}"
        )
    return payload


def scale_gate(payload: dict, max_rss_mb: float | None = None) -> list[str]:
    """Host-independent hard checks on one (fresh) scale report.

    The cross-cell RSS ratio is the scalability claim itself — if the 1M
    cell needs more than ``SCALE_GATE_RATIO``× the 100k cell's memory,
    something reintroduced O(n_customers) state and no host difference
    can excuse it.  ``max_rss_mb`` optionally bounds every cell (the CI
    memory gate).
    """
    failures: list[str] = []
    runs = payload.get("runs", {})
    big, ref = SCALE_GATE_PAIR
    if big in runs and ref in runs:
        big_rss = float(runs[big]["peak_rss_mb"])
        ref_rss = float(runs[ref]["peak_rss_mb"])
        if ref_rss > 0 and big_rss > SCALE_GATE_RATIO * ref_rss:
            failures.append(
                f"scale gate: {big} peak RSS {big_rss:.1f} MB exceeds "
                f"{SCALE_GATE_RATIO}x the {ref} cell ({ref_rss:.1f} MB)"
            )
    if max_rss_mb is not None:
        for cell, run in sorted(runs.items()):
            rss = float(run["peak_rss_mb"])
            if rss > max_rss_mb:
                failures.append(
                    f"memory gate: cell {cell} peak RSS {rss:.1f} MB exceeds "
                    f"the {max_rss_mb:.0f} MB bound"
                )
    return failures


def compare_scale(
    fresh: dict,
    baseline: dict,
    tolerance: float = 0.5,
) -> tuple[list[str], list[str]]:
    """Compare a fresh scale report against the committed baseline.

    A cell regresses when its peak RSS is ``tolerance`` fatter than the
    baseline's; host mismatches and smoke runs demote regressions to
    warnings, as in :func:`repro.bench.compare_to_baseline`.  The
    :func:`scale_gate` failures are appended as hard failures regardless.
    """
    warnings, host_matches = _comparability(baseline, bool(fresh.get("smoke")))
    failures: list[str] = []

    baseline_runs = baseline.get("runs", {})
    for cell, run in sorted(fresh.get("runs", {}).items()):
        base = baseline_runs.get(cell)
        if base is None:
            warnings.append(f"{cell}: no baseline entry; skipped")
            continue
        if (run["minutes"], run["shards"]) != (base["minutes"], base["shards"]):
            warnings.append(f"{cell}: workload sizes differ; skipped")
            continue
        base_rss = float(base["peak_rss_mb"])
        rss = float(run["peak_rss_mb"])
        if base_rss > 0 and rss > base_rss * (1.0 + tolerance):
            (failures if host_matches else warnings).append(
                f"{cell}: peak RSS {rss:.1f} MB vs baseline "
                f"{base_rss:.1f} MB ({rss / base_rss:.2f}x fatter)"
            )
    failures.extend(scale_gate(fresh))
    return warnings, failures


def render_scale(payload: dict) -> str:
    header = (
        f"{'cell':<6} {'customers':>10} {'minutes':>7} "
        f"{'flows':>10} {'peak RSS MB':>12}"
    )
    lines = [header, "-" * len(header)]
    for cell, run in sorted(
        payload.get("runs", {}).items(), key=lambda kv: kv[1]["n_customers"]
    ):
        lines.append(
            f"{cell:<6} {run['n_customers']:>10,} {run['minutes']:>7} "
            f"{run['flows']:>10,} {run['peak_rss_mb']:>12.1f}"
        )
    return "\n".join(lines)


def _main(argv: list[str] | None = None) -> int:
    """Subprocess entry: run one cell, print its JSON measurement."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell", required=True, choices=tuple(SCALE_CELLS))
    parser.add_argument("--minutes", type=int, default=None)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    result = run_cell(
        args.cell, minutes=args.minutes, shards=args.shards, seed=args.seed
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
