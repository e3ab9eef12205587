"""Scenario scaling: map paper-scale setups to compressed replicas.

The paper's evaluation runs on 100 days x 1440 min/day with a 10-day
auxiliary lookback.  ``compress_scenario`` produces a replica whose *time
ratios* are preserved (prep lookback : horizon, split boundaries, attack
counts per day) while wall-clock cost shrinks by the compression factor.
It is a standalone sizing helper: the bench presets in
:mod:`repro.eval.presets` set their sizes directly and do not call it.
``scale_model_for`` derives a model config whose timescale spans fit the
compressed prep window.
"""

from __future__ import annotations

import dataclasses
import math

from ..core.model import TimescaleSpec, XatuModelConfig
from ..synth.scenario import ScenarioConfig

__all__ = ["compress_scenario", "scale_model_for", "PAPER_SCENARIO"]

# The paper's setup, §2.2/§5.1/§6.
PAPER_SCENARIO = ScenarioConfig(
    total_days=100.0,
    minutes_per_day=1440,
    prep_days=10.0,
    n_customers=1000,
    n_botnets=40,
    botnet_size=2000,
)


def compress_scenario(
    base: ScenarioConfig,
    time_factor: float,
    size_factor: float = 1.0,
    min_minutes_per_day: int = 30,
) -> ScenarioConfig:
    """Shrink a scenario by ``time_factor`` (and optionally ``size_factor``).

    Time compression shortens the day (fewer minutes per "day") keeping the
    number of days and the prep:horizon ratio intact; size compression
    scales population counts.  Factors must be >= 1.
    """
    if time_factor < 1.0 or size_factor < 1.0:
        raise ValueError("compression factors must be >= 1")
    minutes_per_day = max(min_minutes_per_day, round(base.minutes_per_day / time_factor))
    return dataclasses.replace(
        base,
        minutes_per_day=int(minutes_per_day),
        n_customers=max(3, round(base.n_customers / size_factor)),
        n_botnets=max(1, round(base.n_botnets / size_factor)),
        botnet_size=max(20, round(base.botnet_size / size_factor)),
    )


def scale_model_for(
    scenario: ScenarioConfig,
    hidden_size: int = 16,
    dense_size: int = 8,
    detect_window: int | None = None,
    n_scales: int = 3,
) -> XatuModelConfig:
    """Derive a model config whose timescales tile the scenario's lookback.

    The long scale spans the full prep window; each finer scale covers a
    geometrically-shrinking recent slice at a geometrically finer pooling
    window — preserving the paper's short/medium/long structure at any
    compression.
    """
    if n_scales < 1:
        raise ValueError("need at least one timescale")
    lookback = max(scenario.prep_minutes, 30)
    detect = detect_window or max(5, lookback // 24)

    scales: list[TimescaleSpec] = []
    names = ["short", "medium", "long", "xlong", "xxlong"]
    for i in range(n_scales):
        # Pooling windows 1, w, w^2 ... chosen so the last spans `lookback`.
        if n_scales == 1:
            window = 1
        else:
            window = max(1, round(lookback ** (i / (n_scales - 1)) / (lookback ** 0.35)))
            window = max(1, min(window, lookback // 4))
        if i == 0:
            window = 1
        span_minutes = lookback if i == n_scales - 1 else max(
            detect * 2, round(lookback / (2 ** (n_scales - 1 - i)))
        )
        span = max(detect if i == 0 else 2, span_minutes // window)
        scales.append(TimescaleSpec(names[min(i, len(names) - 1)], window, span))

    # Keep spans consistent: the first scale must cover the detect window.
    first = scales[0]
    if first.span < detect:
        scales[0] = TimescaleSpec(first.name, first.window, detect)
    config = XatuModelConfig(
        hidden_size=hidden_size,
        dense_size=dense_size,
        detect_window=detect,
        timescales=tuple(scales),
    )
    config.validate()
    return config
