"""The ``train`` suite: training throughput, fused kernels vs the tape.

Training is not on the served path, so the end-to-end suite in
``BENCHMARK.json`` never times it.  Each case builds identical workloads
for both variants (same seeds, same shapes), timed by
:func:`time_variants` into ``"<case>/<variant>"`` rows.  A fusion case's
``unfused`` variant runs the generic-tape oracles of
:mod:`repro.testing.reference` (``Tape*`` layers, :func:`on_tape`):

* ``lstm_train_step`` — LSTM forward over the paper's LSTM_long span (240
  steps) + loss + backward + Adam step; the headline fusion number.
* ``pooling`` — AvgPool1D + MaxPool1D forward/backward over a long minute
  series (ragged tail included).
* ``train_epoch`` — one :class:`XatuTrainer` epoch on synthetic survival
  samples (multi-timescale model).
* ``train_epoch_obs`` — the fused ``train_epoch`` with telemetry disabled
  vs enabled; the ratio bounds the instrumentation overhead (<3% budget,
  docs/OBSERVABILITY.md).

``smoke=True`` shrinks every size to finish in seconds (``make bench``, CI).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

import numpy as np

from ..nn import LSTM, Adam, AvgPool1D, MaxPool1D, Tensor
from ..testing.reference import TapeAvgPool1D, TapeLSTM, TapeMaxPool1D, on_tape
from .harness import bench_report

__all__ = [
    "TRAIN_CASES", "time_variants", "run_train", "speedups", "obs_overheads",
    "render_train",
]

TRAIN_CASES = ("lstm_train_step", "pooling", "train_epoch", "train_epoch_obs")
OBS_BUDGET = 0.03  # the telemetry-overhead budget train_epoch_obs reports on


def time_variants(
    fns: dict[str, Callable[[], object]], reps: int, warmup_s: float = 1.0
) -> dict[str, list[float]]:
    """Wall-clock a case's variants side by side: each runs untimed for
    ``warmup_s`` seconds, then ``reps`` rounds time every variant once, in
    turn.  Returns the per-run seconds by variant.

    The warm-up is a duration, not a count: on a shared 2-vCPU guest the
    first second of a cold process ran the fused LSTM step 4x slower.  The
    rounds interleave so a slow phase of the host lands on both variants.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    clock = time.perf_counter
    for fn in fns.values():
        deadline = clock() + warmup_s
        while clock() < deadline:
            fn()
    times: dict[str, list[float]] = {variant: [] for variant in fns}
    for _ in range(reps):
        for variant, fn in fns.items():
            start = clock()
            fn()
            times[variant].append(clock() - start)
    return times


def _sizes(smoke: bool) -> dict[str, dict]:
    if smoke:
        return {
            "lstm": {"batch": 2, "steps": 40, "features": 16, "hidden": 8},
            "pooling": {"batch": 2, "steps": 130, "features": 16, "window": 10},
            "train_epoch": {"n_samples": 8, "batch_size": 4, "n_features": 12},
        }
    return {
        # LSTM_long unrolls 240 steps (paper §4/Fig. 6); hidden 32 is the
        # reproduction's default model width.
        "lstm": {"batch": 8, "steps": 240, "features": 64, "hidden": 32},
        "pooling": {"batch": 8, "steps": 1430, "features": 64, "window": 60},
        "train_epoch": {"n_samples": 24, "batch_size": 8, "n_features": 24},
    }


def _synthetic_samples(config, n_samples: int, rng: np.random.Generator):
    """Random survival samples shaped like DatasetBuilder output."""
    from ..core.dataset import SampleSet, SurvivalSample

    lookback = config.lookback_minutes
    samples = [
        SurvivalSample(
            features=rng.normal(size=(lookback, config.n_features)),
            is_attack=bool(k % 2),
            label_time=int(rng.integers(0, config.detect_window)),
            customer_id=k,
            end_minute=lookback + k,
            event_id=k if k % 2 else -1,
        )
        for k in range(n_samples)
    ]
    return SampleSet(samples=samples, scaler=None)


# ----------------------------------------------------------------------
# case builders: return a zero-arg callable for (case, variant flag)
# ----------------------------------------------------------------------
def _make_lstm_train_step(sizes: dict, fused: bool):
    s = sizes["lstm"]
    rng = np.random.default_rng(0)
    lstm = (LSTM if fused else TapeLSTM)(
        s["features"], s["hidden"], rng=np.random.default_rng(1)
    )
    x = Tensor(rng.normal(size=(s["batch"], s["steps"], s["features"])))
    opt = Adam(lstm.parameters())

    def step():
        opt.zero_grad()
        out, _state = lstm(x)
        (out * out).sum().backward()
        opt.step()

    return step


def _make_pooling(sizes: dict, fused: bool):
    s = sizes["pooling"]
    rng = np.random.default_rng(0)
    avg = (AvgPool1D if fused else TapeAvgPool1D)(s["window"])
    mx = (MaxPool1D if fused else TapeMaxPool1D)(s["window"])
    x = Tensor(
        rng.normal(size=(s["batch"], s["steps"], s["features"])), requires_grad=True
    )

    def run():
        x.zero_grad()
        (avg(x).sum() + mx(x).sum()).backward()

    return run


def _make_train_epoch(sizes: dict, fused: bool):
    from ..core.model import XatuModel
    from ..core.trainer import TrainConfig, XatuTrainer
    from ..eval.presets import bench_model_config

    s = sizes["train_epoch"]
    config = replace(bench_model_config(), n_features=s["n_features"])
    samples = _synthetic_samples(config, s["n_samples"], np.random.default_rng(2))
    model = XatuModel(config)
    if not fused:
        on_tape(model)
    trainer = XatuTrainer(
        model,
        TrainConfig(epochs=1, batch_size=s["batch_size"], learning_rate=1e-3, seed=0),
    )
    return lambda: trainer.fit(samples)


def _make_train_epoch_obs(sizes: dict, enabled: bool):
    """The fused ``train_epoch`` workload under a telemetry switch state."""
    from ..obs import set_enabled

    fit = _make_train_epoch(sizes, True)

    def run():
        previous = set_enabled(enabled)
        try:
            fit()
        finally:
            set_enabled(previous)

    return run


_BUILDERS = {
    "lstm_train_step": _make_lstm_train_step,
    "pooling": _make_pooling,
    "train_epoch": _make_train_epoch,
    "train_epoch_obs": _make_train_epoch_obs,
}
_FUSION = (("fused", True), ("unfused", False))
_VARIANTS = {"train_epoch_obs": (("disabled", False), ("enabled", True))}


def run_train(
    smoke: bool = False,
    cases: tuple[str, ...] | None = None,
    reps: int | None = None,
) -> dict:
    """Time every case in both variants and return the ``train`` payload."""
    sizes = _sizes(smoke)
    reps = reps or (1 if smoke else 10)
    warmup_s = 0.0 if smoke else 1.0
    rows: dict[str, dict] = {}
    for case in cases or TRAIN_CASES:
        fns = {
            variant: _BUILDERS[case](sizes, flag)
            for variant, flag in _VARIANTS.get(case, _FUSION)
        }
        for variant, seconds in time_variants(fns, reps, warmup_s).items():
            rows[f"{case}/{variant}"] = {
                "best_s": min(seconds),
                "median_s": float(np.median(seconds)),
                "seconds": seconds,
            }
    return bench_report("train", smoke, sizes, rows)


def _best_ratios(payload: dict, num: str, den: str) -> dict[str, float]:
    """``best_s`` of variant ``num`` over variant ``den``, per case with both."""
    rows = payload["rows"]
    out: dict[str, float] = {}
    for case in sorted({name.split("/")[0] for name in rows}):
        top, bottom = rows.get(f"{case}/{num}"), rows.get(f"{case}/{den}")
        if top and bottom and bottom["best_s"] > 0:
            out[case] = top["best_s"] / bottom["best_s"]
    return out


def speedups(payload: dict) -> dict[str, float]:
    """``unfused / fused`` best time per fusion case."""
    return _best_ratios(payload, "unfused", "fused")


def obs_overheads(payload: dict) -> dict[str, float]:
    """Fractional telemetry cost per obs case (0.03 means +3%)."""
    return {
        case: ratio - 1.0
        for case, ratio in _best_ratios(payload, "enabled", "disabled").items()
    }


def render_train(payload: dict) -> str:
    """Human-readable table: case, fused, pre-fusion tape, speedup; then
    the telemetry overhead against its budget."""
    rows = payload["rows"]

    def ms(name: str) -> str:
        return f"{rows[name]['best_s'] * 1e3:.2f}"

    header = f"{'benchmark':<24} {'fused ms':>9} {'unfused ms':>10} {'speedup':>7}"
    lines = [header, "-" * len(header)]
    for case, ratio in speedups(payload).items():
        lines.append(
            f"{case:<24} {ms(case + '/fused'):>9} {ms(case + '/unfused'):>10} "
            f"{ratio:>6.1f}x"
        )
    for case, frac in obs_overheads(payload).items():
        verdict = "within" if frac < OBS_BUDGET else "OVER"
        lines.append(
            f"telemetry overhead ({case}): {ms(case + '/disabled')} ms -> "
            f"{ms(case + '/enabled')} ms ({frac:+.1%}), {verdict} the "
            f"{OBS_BUDGET:.0%} budget"
        )
    return "\n".join(lines)
