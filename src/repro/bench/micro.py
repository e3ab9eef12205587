"""Microbenchmark definitions: fused kernels vs the pre-fusion tape path.

Each case builds identical workloads for the fused and unfused variants
(same seeds, same shapes) and times them with
:func:`repro.bench.harness.time_callable`:

* ``lstm_forward``      — one LSTM forward over the paper's LSTM_long span
  (240 steps) with the autograd tape recording.
* ``lstm_train_step``   — forward + loss + backward + Adam step; the
  headline kernel-fusion number.
* ``pooling``           — AvgPool1D + MaxPool1D forward/backward over a
  long minute series (ragged tail included).
* ``train_epoch``       — one full :class:`XatuTrainer` epoch on a
  synthetic survival sample set (multi-timescale model).
* ``synthetic_day``     — end-to-end scoring of a synthetic day of
  feature minutes: sliding detection-window blocks through
  ``XatuModel.survival_np`` (the graph-free inference lane).
* ``day_scoring_f32``   — the same day under the float32 inference
  policy (fused only; recorded for the trajectory, no speedup ratio).
* ``train_epoch_obs``   — the ``train_epoch`` workload with telemetry
  disabled vs enabled (``repro.obs``); the enabled/disabled ratio bounds
  the instrumentation overhead (<3% budget, see docs/OBSERVABILITY.md).

The serving decision pass these kernels add up to is measured end to end
(``us_per_decision`` on ``fleet_score``, with ``nn.fused.*`` /
``core.model.*`` layer rows) by the suite in ``BENCHMARK.json`` —
``benchmarks/e2e/README.md``.

``run_all(smoke=True)`` shrinks every size so the whole suite finishes in
a few seconds — that is what ``make bench`` / CI run to keep the perf
code from rotting.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..nn import LSTM, Adam, AvgPool1D, MaxPool1D, Tensor, set_fused
from .harness import BenchReport, BenchTiming, time_callable

__all__ = ["run_all", "BENCH_CASES"]

BENCH_CASES = (
    "lstm_forward",
    "lstm_train_step",
    "pooling",
    "train_epoch",
    "synthetic_day",
    "day_scoring_f32",
    "train_epoch_obs",
)


def _sizes(smoke: bool) -> dict[str, dict]:
    if smoke:
        return {
            "lstm": {"batch": 2, "steps": 40, "features": 16, "hidden": 8},
            "pooling": {"batch": 2, "steps": 130, "features": 16, "window": 10},
            "train_epoch": {"n_samples": 8, "batch_size": 4, "n_features": 12},
            "synthetic_day": {"day_minutes": 60, "n_features": 12},
        }
    return {
        # LSTM_long unrolls 240 steps (paper §4/Fig. 6); hidden 32 is the
        # reproduction's default model width.
        "lstm": {"batch": 8, "steps": 240, "features": 64, "hidden": 32},
        "pooling": {"batch": 8, "steps": 1430, "features": 64, "window": 60},
        "train_epoch": {"n_samples": 24, "batch_size": 8, "n_features": 24},
        "synthetic_day": {"day_minutes": 480, "n_features": 24},
    }


def _bench_model_config(n_features: int):
    from ..eval.presets import bench_model_config

    return replace(bench_model_config(), n_features=n_features)


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
# case builders: return a zero-arg callable for (case, fused?)
# ----------------------------------------------------------------------
def _make_lstm_forward(sizes: dict, fused: bool):
    s = sizes["lstm"]
    rng = np.random.default_rng(0)
    lstm = LSTM(s["features"], s["hidden"], rng=np.random.default_rng(1), fused=fused)
    x = Tensor(rng.normal(size=(s["batch"], s["steps"], s["features"])))
    return lambda: lstm(x)


def _make_lstm_train_step(sizes: dict, fused: bool):
    s = sizes["lstm"]
    rng = np.random.default_rng(0)
    lstm = LSTM(s["features"], s["hidden"], rng=np.random.default_rng(1), fused=fused)
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
    avg = AvgPool1D(s["window"], fused=fused)
    mx = MaxPool1D(s["window"], fused=fused)
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

    s = sizes["train_epoch"]
    config = _bench_model_config(s["n_features"])
    samples = _synthetic_samples(config, s["n_samples"], np.random.default_rng(2))
    model = XatuModel(config)
    set_fused(model, fused)
    trainer = XatuTrainer(
        model,
        TrainConfig(epochs=1, batch_size=s["batch_size"], learning_rate=1e-3, seed=0),
    )
    return lambda: trainer.fit(samples)


def _make_train_epoch_obs(sizes: dict, enabled: bool):
    """The ``train_epoch`` workload under a telemetry switch state."""
    from ..obs import set_enabled

    fit = _make_train_epoch(sizes, fused=True)

    def run():
        previous = set_enabled(enabled)
        try:
            fit()
        finally:
            set_enabled(previous)

    return run


def _make_synthetic_day(sizes: dict, fused: bool, dtype=None):
    from ..core.model import XatuModel

    s = sizes["synthetic_day"]
    config = _bench_model_config(s["n_features"])
    model = XatuModel(config)
    set_fused(model, fused)
    model.eval()  # deployed detectors score in eval mode
    lookback = config.lookback_minutes
    day = np.random.default_rng(3).normal(
        size=(lookback + s["day_minutes"], config.n_features)
    )

    def score_day():
        # The detector's sliding loop: score each detection-window block of
        # the day from the window of minutes that precedes it.
        for end in range(lookback, day.shape[0] + 1, config.detect_window):
            model.survival_np(day[None, end - lookback : end], dtype=dtype)

    return score_day


_BUILDERS = {
    "lstm_forward": _make_lstm_forward,
    "lstm_train_step": _make_lstm_train_step,
    "pooling": _make_pooling,
    "train_epoch": _make_train_epoch,
    "synthetic_day": _make_synthetic_day,
}


def run_all(
    tag: str = "fused",
    smoke: bool = False,
    reps: int | None = None,
    cases: tuple[str, ...] | None = None,
) -> BenchReport:
    """Run every microbenchmark in both variants and return the report."""
    sizes = _sizes(smoke)
    if reps is None:
        reps = 1 if smoke else 5
    warmup = 0 if smoke else 1
    report = BenchReport(tag=tag, smoke=smoke, sizes=sizes)
    for case in cases or BENCH_CASES:
        if case == "day_scoring_f32":
            fn = _make_synthetic_day(sizes, fused=True, dtype=np.float32)
            report.add(
                BenchTiming(case, "fused", tuple(time_callable(fn, reps, warmup)))
            )
            continue
        if case == "train_epoch_obs":
            for variant, enabled in (("disabled", False), ("enabled", True)):
                fn = _make_train_epoch_obs(sizes, enabled)
                report.add(
                    BenchTiming(case, variant, tuple(time_callable(fn, reps, warmup)))
                )
            continue
        builder = _BUILDERS[case]
        for variant, fused in (("fused", True), ("unfused", False)):
            fn = builder(sizes, fused)
            report.add(
                BenchTiming(case, variant, tuple(time_callable(fn, reps, warmup)))
            )
    return report
