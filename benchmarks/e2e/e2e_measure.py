"""Replay passes over one workload's bytes, and the metrics reduced from them.

A *pass* builds a fresh engine and replays the whole pre-generated minute
sequence through the public API — ``ingest_datagram`` per blob, then
``tick(minute)`` — closed loop, one driver thread: minute *m+1* is offered
only after ``tick(m)`` returned.  Tick *i* does identical work in every
pass, so fast host noise is removed tick-wise (median across passes) before
any percentile is taken.

Slow host noise is not: on a shared host the whole process runs 10-30 %
slower for tens of seconds at a time (CPU time moves with wall time, so it
is neighbour contention, not scheduling), longer than a pass and often
longer than a run.  :class:`SpeedProbe` measures it: a fixed piece of work
run after every measured minute, outside the timed interval.  Each pass's
times are scaled by ``PROBE_REF_S / (that pass's mean probe time)``, which
expresses them at one reference host speed; the unscaled numbers are
reported beside them as ``raw``.  The probe is the benchmark's own code, so
a change to ``src/`` cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from e2e_trace import Tracer, summarize
from e2e_workloads import WORK_DIR, Inputs, Workload, build_engine

MIN_PASSES = 3
MINUTE_BUDGET_MS = 60_000.0
# One probe iteration on this class of host when nothing contends for it;
# only fixes the speed the reported times are expressed at.
PROBE_REF_S = 0.00070
PROBE_SHARE = 0.04  # of the minute it follows

END_TO_END_UNITS = {
    "setup_s": "s",
    "minute_ms_p50": "ms",
    "minute_ms_p95": "ms",
    "served_min_per_s": "1/s",
    "flows_per_s": "1/s",
    "us_per_decision": "us",
    "peak_rss_mb": "MB",
}


class SpeedProbe:
    """Fixed work in the serving path's own mix: element-wise numpy over a
    ~1 MB window block, a small matmul, and a Python loop over tuple-keyed
    dict cells."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((2, 240, 273))
        self._y = np.empty_like(self._x)
        self._w = rng.random((273, 64))

    def _once(self) -> None:
        x, y = self._x, self._y
        np.maximum(x, 0.5, out=y)
        np.log1p(y, out=y)
        y.reshape(2, 48, 5, 273).mean(axis=2)
        x[:, :60] @ self._w
        cells = {}
        for i in range(600):
            cells[(i % 97, "all", i)] = i

    def run(self, budget_s: float) -> tuple[int, float]:
        """Iterate for ``budget_s``; returns (iterations, seconds)."""
        clock = time.perf_counter
        self._once()  # untimed: refill the caches the minute just evicted
        n, spent = 0, 0.0
        while spent < budget_s or not n:
            start = clock()
            self._once()
            spent += clock() - start
            n += 1
        return n, spent


@dataclass
class Pass:
    tick_ms: np.ndarray  # measured minutes only
    wall_s: float  # measured minutes + the restore, if any
    probe_s: float  # mean SpeedProbe iteration during this pass
    total_s: float  # warm-up included: what the run's time budget pays
    flows: int  # measured minutes only
    flows_all: int
    alerts: list[tuple[int, int, str]]
    alert_minutes: list[int]  # index into tick_ms of minutes with >= 1 alert
    failed_minutes: int
    records_lost: int
    healthy: bool
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)
    decisions: int = 0
    unrouted: int = 0


def alert_digest(alerts) -> str:
    digest = hashlib.sha256()
    for minute, customer_id, survival_hex in alerts:
        digest.update(f"{minute},{customer_id},{survival_hex};".encode())
    return digest.hexdigest()


def replay(
    artifacts,
    inputs: Inputs,
    workload: Workload,
    *,
    reference: bool = False,
    tracer: Tracer | None = None,
    tag: str = "pass",
) -> Pass:
    """One pass.  ``reference`` replays the same bytes through the plainest
    configuration — one inline shard, no checkpoints, never interrupted."""
    probe = SpeedProbe()
    probe_n, probe_s = 0, 0.0
    shards = 1 if reference else workload.shards
    backend = "inline" if reference else workload.backend
    every = 0 if reference else workload.checkpoint_every
    n = len(inputs.minutes)
    restore_index = None
    checkpoint_dir = None
    if every:
        checkpoint_dir = WORK_DIR / f"{workload.name}-{os.getpid()}-{tag}"
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        checkpoint_dir.mkdir(parents=True)
        if workload.restore:
            # The tick that writes the checkpoint nearest mid-stream.
            restore_index = max(1, round(n / 2 / every)) * every - 1

    def build():
        return build_engine(artifacts, inputs, shards, backend, checkpoint_dir, every)

    clock = time.perf_counter
    tick_ms: list[float] = []
    alerts: list[tuple[int, int, str]] = []
    alert_minutes: list[int] = []
    flows = flows_all = failed = 0
    restore_s = 0.0
    error = None
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        engine = build()
        pass_start = clock()
        try:
            for index, (minute, blobs) in enumerate(inputs.minutes):
                if index == workload.warmup and tracer is not None:
                    tracer.mark()
                got = 0
                minute_alerts = []
                ok = True
                start = clock()
                try:
                    for blob in blobs:
                        got += engine.ingest_datagram(blob)
                    minute_alerts = engine.tick(minute)
                except Exception:  # a failed minute is counted, not fatal
                    ok = False
                    error = error or traceback.format_exc()
                end = clock()
                ok = ok and all(engine.shard_health().values())
                flows_all += got
                alerts.extend(
                    (a.minute, a.customer_id, float(a.survival).hex())
                    for a in minute_alerts
                )
                if index >= workload.warmup:
                    tick_ms.append((end - start) * 1e3)
                    flows += got
                    failed += not ok
                    if minute_alerts:
                        alert_minutes.append(index - workload.warmup)
                    n_iter, spent = probe.run(PROBE_SHARE * (end - start))
                    probe_n += n_iter
                    probe_s += spent
                if index == restore_index:
                    start = clock()
                    engine.close()
                    engine = build()
                    engine.restore()
                    restore_s = clock() - start
            total_s = clock() - pass_start
            records_lost = engine.feed_health().records_lost
            healthy = all(engine.shard_health().values())
        finally:
            engine.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    result = Pass(
        tick_ms=np.asarray(tick_ms),
        wall_s=sum(tick_ms) / 1e3 + restore_s,
        probe_s=probe_s / probe_n,
        total_s=total_s,
        flows=flows,
        flows_all=flows_all,
        alerts=alerts,
        alert_minutes=alert_minutes,
        failed_minutes=failed,
        records_lost=records_lost,
        healthy=healthy,
        error=error,
    )
    if tracer is not None:
        result.layers = summarize(tracer, len(tick_ms), result.wall_s)
        result.decisions = int(tracer.counts["core.online.feature_windows.windows"])
        result.unrouted = int(
            tracer.counts["netflow.sampler.drain_batch.records"]
            - tracer.counts["netflow.matrix.add_batch.rows"]
        )
    return result


def run_passes(artifacts, inputs, workload, seconds: float, traced: bool, min_passes: int):
    """Replay until ``seconds`` of passes are done (and at least
    ``min_passes``).  A traced run alternates untraced and traced passes so
    the pair gives the tracing overhead on the same host state."""
    untraced: list[Pass] = []
    with_trace: list[Pass] = []
    spent = 0.0
    while True:
        p = replay(artifacts, inputs, workload, tag=f"u{len(untraced)}")
        untraced.append(p)
        spent += p.total_s
        if traced:
            t = replay(
                artifacts, inputs, workload, tracer=Tracer(), tag=f"t{len(with_trace)}"
            )
            with_trace.append(t)
            spent += t.total_s
        done = len(untraced) + len(with_trace)
        # Stop at the pass count nearest the budget, not the first one over it.
        if done >= min_passes and spent + spent / done / 2 >= seconds:
            return untraced, with_trace


def _reduce(ticks: np.ndarray, wall: np.ndarray, flows: int, decisions: int):
    """Metrics of a passes x minutes latency matrix and the per-pass walls:
    ``(value, per-pass values)`` by metric name.  Latency percentiles are
    taken over the tick-wise median; the rest is the median across passes."""
    per_pass = {
        "minute_ms_p50": np.median(ticks, axis=1),
        "minute_ms_p95": np.percentile(ticks, 95, axis=1),
        "served_min_per_s": ticks.shape[1] / wall,
        "flows_per_s": flows / wall,
        "us_per_decision": wall * 1e6 / decisions,
    }
    value = {name: float(np.median(v)) for name, v in per_pass.items()}
    tickwise = np.median(ticks, axis=0)
    value["minute_ms_p50"] = float(np.median(tickwise))
    value["minute_ms_p95"] = float(np.percentile(tickwise, 95))
    return value, per_pass


def _matrices(passes: list[Pass]):
    """(latency matrix, walls, host-speed factors), one row per pass."""
    return (
        np.vstack([p.tick_ms for p in passes]),
        np.array([p.wall_s for p in passes]),
        np.array([PROBE_REF_S / p.probe_s for p in passes]),
    )


def end_to_end(
    passes: list[Pass], decisions: int, setups: list[dict], rss_mb: float
) -> dict:
    """The user-visible metrics at reference host speed; each carries its
    min/max across passes and its unscaled (``raw``) value."""
    ticks, wall, scale = _matrices(passes)
    flows = passes[0].flows
    value, per_pass = _reduce(ticks * scale[:, None], wall * scale, flows, decisions)
    raw, _ = _reduce(ticks, wall, flows, decisions)
    setup_raw = np.array([s["total"] for s in setups])
    setup = setup_raw * [s["scale"] for s in setups]
    value.update(setup_s=float(np.median(setup)), peak_rss_mb=rss_mb)
    raw.update(setup_s=float(np.median(setup_raw)), peak_rss_mb=rss_mb)
    per_pass.update(setup_s=setup, peak_rss_mb=np.array([rss_mb]))
    return {
        name: {
            "value": value[name],
            "min": float(per_pass[name].min()),
            "max": float(per_pass[name].max()),
            "raw": raw[name],
            "unit": unit,
        }
        for name, unit in END_TO_END_UNITS.items()
    }


def alert_minute_ms_p50(passes: list[Pass]) -> float | None:
    """Median latency of the minutes that emitted at least one alert."""
    index = passes[0].alert_minutes
    if not index:
        return None
    ticks, _wall, scale = _matrices(passes)
    return float(np.median(np.median(ticks * scale[:, None], axis=0)[index]))


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    out = {
        name: float(np.median([p.layers[name] for p in traced]))
        for name in traced[0].layers
    }
    # Both sides at reference host speed, like the end-to-end times.
    out["trace.overhead"] = float(
        np.median([p.wall_s / p.probe_s for p in traced])
        / np.median([p.wall_s / p.probe_s for p in untraced])
        - 1.0
    )
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (the forked
    shards of the process backend); ``ru_maxrss`` is KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
