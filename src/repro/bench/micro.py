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
* ``serve_minutes``     — the per-minute alert-decision pass of one
  serving shard at 1000 customers: hazard inference + survival +
  threshold for every watched customer, on feature windows staged ahead
  of time for both variants (feature extraction and scaling are the
  shared staging stage of the serving pipeline; this case isolates the
  per-customer decision cost that stacking amortizes).  The "unfused"
  variant is the reference oracle's decision call
  (``repro.testing.reference.ReferenceOnlineXatu``) — one ``hazards_np``
  per customer, float64.  The "fused" variant is production's — one
  ``hazards_np_staged`` pass per ``SCORE_CHUNK`` stack under the float32
  inference policy, i.e. ``ServeConfig(inference_dtype="float32")``.
  Within either dtype the two produce byte-identical alert streams and
  checkpoints (tests/test_batched_equivalence.py proves it bit for bit);
  the speedup column reads as the per-customer alert-decision cost
  reduction.

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
    "serve_minutes",
)


def _sizes(smoke: bool) -> dict[str, dict]:
    if smoke:
        return {
            "lstm": {"batch": 2, "steps": 40, "features": 16, "hidden": 8},
            "pooling": {"batch": 2, "steps": 130, "features": 16, "window": 10},
            "train_epoch": {"n_samples": 8, "batch_size": 4, "n_features": 12},
            "synthetic_day": {"day_minutes": 60, "n_features": 12},
            "serve_minutes": {"customers": 8, "minutes": 2, "flows_per_customer": 2},
        }
    return {
        # LSTM_long unrolls 240 steps (paper §4/Fig. 6); hidden 32 is the
        # reproduction's default model width.
        "lstm": {"batch": 8, "steps": 240, "features": 64, "hidden": 32},
        "pooling": {"batch": 8, "steps": 1430, "features": 64, "window": 60},
        "train_epoch": {"n_samples": 24, "batch_size": 8, "n_features": 24},
        "synthetic_day": {"day_minutes": 480, "n_features": 24},
        "serve_minutes": {"customers": 1000, "minutes": 2, "flows_per_customer": 1},
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


def _make_serve_minutes(sizes: dict, batched: bool):
    """Per-minute alert-decision pass of one serving shard.

    Builds a shard-shaped :class:`OnlineXatu` with every customer watched,
    feeds it a couple of minutes of flows, and stages the scaled feature
    windows the way the shard's own scoring stage does.  The timed callable
    is then exactly the decision work a shard repeats every minute:

    * ``batched=False`` — the reference oracle's decision call
      (``ReferenceOnlineXatu._score``'s model call): one float64
      ``hazards_np`` per customer, last-hazard survival, threshold.
    * ``batched=True`` — production's decision call
      (``OnlineXatu._score``'s model call) under the
      ``inference_dtype="float32"`` policy: one ``hazards_np_staged`` pass
      per ``SCORE_CHUNK`` stack, vectorized survival + threshold.

    Feature staging (window assembly + scaling + pooling) runs in setup
    for both variants — it is the shared feature-extractor stage of the
    serving pipeline, so excluding it makes the ratio read as the
    per-customer alert-decision cost reduction.
    """
    from ..core.model import XatuModel
    from ..core.online import SCORE_CHUNK, OnlineXatu
    from ..netflow.records import FlowRecord
    from ..netflow.routing import RouteTable
    from ..signals.features import N_FEATURES, FeatureScaler

    s = sizes["serve_minutes"]
    config = _bench_model_config(N_FEATURES)
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(N_FEATURES)
    scaler.std_ = np.ones(N_FEATURES)
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    customer_of = {10_000 + i: i for i in range(s["customers"])}
    model = XatuModel(config)
    model.eval()
    detector = OnlineXatu(
        model=model,
        scaler=scaler,
        threshold=0.5,
        customer_of=customer_of,
        blocklist=set(),
        route_table=route_table,
    )
    rng = np.random.default_rng(4)
    for minute in range(2):
        detector.step(
            minute,
            [
                FlowRecord(
                    timestamp=minute,
                    src_addr=int(rng.integers(1, 2**31)),
                    dst_addr=address,
                    src_port=int(rng.integers(1024, 65535)),
                    dst_port=443,
                    protocol=6,
                    packets=int(rng.integers(1, 50)),
                    bytes_=int(rng.integers(100, 50_000)),
                )
                for address in customer_of
                for _ in range(s["flows_per_customer"])
            ],
        )
    customers = sorted(set(customer_of.values()))
    scaled = detector.feature_windows(customers, 1)
    scaler.transform(scaled, out=scaled)
    threshold = detector.threshold

    if batched:
        staged_chunks = [
            model.stage_pooled(scaled[lo : lo + SCORE_CHUNK], dtype=np.float32)
            for lo in range(0, len(customers), SCORE_CHUNK)
        ]

        def run_minutes():
            for _ in range(s["minutes"]):
                fired = 0
                for staged in staged_chunks:
                    hazards = model.hazards_np_staged(staged, dtype=np.float32)
                    survival = np.exp(-hazards[:, -1])
                    fired += int((survival < threshold).sum())

    else:

        def run_minutes():
            for _ in range(s["minutes"]):
                fired = 0
                for i in range(len(customers)):
                    hazards = model.hazards_np(scaled[i : i + 1])[0]
                    survival = float(np.exp(-hazards[-1]))
                    fired += survival < threshold

    return run_minutes


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
        if case == "serve_minutes":
            # "fused" = production's stacked pass, "unfused" = the reference
            # oracle's per-customer calls — speedups() reports the win directly.
            for variant, batched in (("fused", True), ("unfused", False)):
                fn = _make_serve_minutes(sizes, batched)
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
