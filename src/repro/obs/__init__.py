"""repro.obs — metrics and tracing telemetry.

The observability layer for the train/serve stack (see
docs/OBSERVABILITY.md for the metric catalog and conventions):

* :mod:`repro.obs.registry` — a dependency-free, thread-safe metrics
  registry (counters, gauges, histograms, EWMA rates) behind a global
  switch that is **off by default**;
* :mod:`repro.obs.tracing` — span-based hierarchical wall-clock tracing
  (``with trace("train.step"):`` or decorator form);
* :mod:`repro.obs.export` — Prometheus text exposition, JSON dump/load,
  and a ``top``-style console table, wired to ``cli metrics`` and the
  ``--telemetry <path>`` flag on ``cli train|pipeline|bench``.

Instrumented hot paths (trainer, ``OnlineXatu``, ``SequenceTracker`` /
``FlowCollector``, ``ScrubbingCenter``, the fused LSTM inference lane)
guard on :func:`obs_enabled`, so a run that never enables telemetry pays
one branch per call site; the ``train_epoch_obs`` bench case tracks the
enabled-path overhead (<3% of a train step).
"""

from .export import (
    TELEMETRY_FORMAT_VERSION,
    host_metadata,
    load_telemetry,
    render_top,
    selftest,
    snapshot_from_json,
    to_json,
    to_prometheus,
    write_telemetry,
)
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Ewma,
    Gauge,
    Histogram,
    MetricSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    obs_enabled,
    set_enabled,
    telemetry,
)
from .tracing import SpanNode, Tracer, get_tracer, trace

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "TELEMETRY_FORMAT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "Ewma",
    "MetricsRegistry",
    "MetricSnapshot",
    "MetricsSnapshot",
    "SpanNode",
    "Tracer",
    "get_registry",
    "get_tracer",
    "host_metadata",
    "load_telemetry",
    "obs_enabled",
    "render_top",
    "selftest",
    "set_enabled",
    "snapshot_from_json",
    "telemetry",
    "to_json",
    "to_prometheus",
    "trace",
    "write_telemetry",
]
