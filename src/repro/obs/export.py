"""Telemetry exporters: Prometheus text exposition, JSON, console table.

Three renderings of one :class:`~repro.obs.registry.MetricsSnapshot`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_total`` suffix on counters,
  cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count`` for
  histograms).  Metric names are mangled ``train.step_seconds`` →
  ``repro_train_step_seconds``.
* :func:`to_json` / :func:`snapshot_from_json` — a loss-free, versioned
  JSON document (the ``--telemetry <path>`` file format), optionally
  carrying the span-trace tree, a tape profile, and host metadata.
  ``snapshot → json → snapshot → json`` is the identity; the
  ``cli metrics --selftest`` round-trip enforces it.
* :func:`render_top` — a human ``top``-style console table (what
  ``cli metrics <path>`` prints).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from .registry import (
    EwmaValue,
    HistogramValue,
    MetricSnapshot,
    MetricsSnapshot,
)
from .tracing import SpanNode

__all__ = [
    "TELEMETRY_FORMAT_VERSION",
    "host_metadata",
    "to_prometheus",
    "to_json",
    "snapshot_from_json",
    "write_telemetry",
    "load_telemetry",
    "render_top",
    "selftest",
]

TELEMETRY_FORMAT_VERSION = 1

_INF = float("inf")
_BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_metadata() -> dict:
    """Provenance for telemetry/benchmark files: interpreter + machine.

    ``nproc`` (the CPUs this process may run on) and ``blas_threads`` (the
    BLAS thread pins) are the e2e suite's host fields; ``cpu_count`` is the
    machine's, which the telemetry header prints.
    """
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count() or 1,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_PIN},
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str, kind: str, prefix: str = "repro") -> str:
    base = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


def _prom_labels(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


def _prom_number(value: float) -> str:
    if value == _INF:
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def to_prometheus(snapshot: MetricsSnapshot, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in snapshot:
        name = _prom_name(metric.name, metric.kind, prefix)
        prom_type = {
            "counter": "counter",
            "gauge": "gauge",
            "histogram": "histogram",
            "ewma": "gauge",
        }[metric.kind]
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {prom_type}")
        for labels, value in metric.samples:
            if isinstance(value, HistogramValue):
                cumulative = 0
                for bound, count in zip(value.buckets, value.counts):
                    cumulative += count
                    label_str = _prom_labels(labels, (("le", _prom_number(bound)),))
                    lines.append(f"{name}_bucket{label_str} {cumulative}")
                lines.append(
                    f"{name}_sum{_prom_labels(labels)} {_prom_number(value.sum)}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)} {value.count}"
                )
            elif isinstance(value, EwmaValue):
                lines.append(
                    f"{name}{_prom_labels(labels)} {_prom_number(value.value)}"
                )
            else:
                lines.append(
                    f"{name}{_prom_labels(labels)} {_prom_number(float(value))}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def _sample_to_json(kind: str, labels, value) -> dict:
    out: dict = {"labels": {k: v for k, v in labels}}
    if isinstance(value, HistogramValue):
        out["buckets"] = [
            "+Inf" if b == _INF else b for b in value.buckets
        ]
        out["counts"] = list(value.counts)
        out["sum"] = value.sum
        out["count"] = value.count
    elif isinstance(value, EwmaValue):
        out["value"] = value.value
        out["alpha"] = value.alpha
        out["count"] = value.count
    else:
        out["value"] = float(value)
    return out


def to_json(
    snapshot: MetricsSnapshot,
    trace: SpanNode | None = None,
    profile=None,
    host: dict | None = None,
) -> dict:
    """Serialize a snapshot (plus optional trace/profile/host) to a dict."""
    return {
        "format_version": TELEMETRY_FORMAT_VERSION,
        "host": host if host is not None else host_metadata(),
        "metrics": [
            {
                "name": m.name,
                "kind": m.kind,
                "help": m.help,
                "samples": [
                    _sample_to_json(m.kind, labels, value)
                    for labels, value in m.samples
                ],
            }
            for m in snapshot
        ],
        "trace": trace.to_json() if trace is not None else None,
        "profile": profile.to_json() if profile is not None else None,
    }


def _sample_from_json(kind: str, payload: dict):
    labels = tuple(sorted((str(k), str(v)) for k, v in payload["labels"].items()))
    if kind == "histogram":
        buckets = tuple(
            _INF if b == "+Inf" else float(b) for b in payload["buckets"]
        )
        value = HistogramValue(
            buckets=buckets,
            counts=tuple(int(c) for c in payload["counts"]),
            sum=float(payload["sum"]),
            count=int(payload["count"]),
        )
    elif kind == "ewma":
        value = EwmaValue(
            value=float(payload["value"]),
            alpha=float(payload["alpha"]),
            count=int(payload["count"]),
        )
    else:
        value = float(payload["value"])
    return labels, value


def snapshot_from_json(payload: dict) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from :func:`to_json` output."""
    version = payload.get("format_version")
    if version != TELEMETRY_FORMAT_VERSION:
        raise ValueError(
            f"telemetry format_version {version!r} not understood "
            f"(this code reads {TELEMETRY_FORMAT_VERSION})"
        )
    metrics = tuple(
        MetricSnapshot(
            name=m["name"],
            kind=m["kind"],
            help=m.get("help", ""),
            samples=tuple(
                _sample_from_json(m["kind"], s) for s in m["samples"]
            ),
        )
        for m in payload["metrics"]
    )
    return MetricsSnapshot(metrics=metrics)


def write_telemetry(
    path: str | Path,
    snapshot: MetricsSnapshot,
    trace: SpanNode | None = None,
    profile=None,
) -> Path:
    """Write one telemetry JSON document; returns the path written."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_json(snapshot, trace, profile), indent=2) + "\n")
    return path


def load_telemetry(path: str | Path) -> dict:
    """Load and version-check a telemetry JSON document."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != TELEMETRY_FORMAT_VERSION:
        raise ValueError(
            f"telemetry file {path} has format_version {version!r}; this "
            f"code understands {TELEMETRY_FORMAT_VERSION}"
        )
    return payload


# ----------------------------------------------------------------------
# console rendering
# ----------------------------------------------------------------------
def _labels_text(labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def render_top(
    snapshot: MetricsSnapshot,
    trace: SpanNode | None = None,
    host: dict | None = None,
) -> str:
    """Human ``top``-style view: metrics table + span tree."""
    lines: list[str] = []
    if host:
        lines.append(
            "host: python {python} · numpy {numpy} · {machine} · "
            "{cpu_count} cpus".format(**{
                "python": host.get("python", "?"),
                "numpy": host.get("numpy", "?"),
                "machine": host.get("machine", "?"),
                "cpu_count": host.get("cpu_count", "?"),
            })
        )
        lines.append("")
    header = f"{'metric':<42} {'kind':<9} {'value':>14}  detail"
    lines.append(header)
    lines.append("-" * len(header))
    for metric in snapshot:
        for labels, value in metric.samples:
            name = metric.name + _labels_text(labels)
            if isinstance(value, HistogramValue):
                mean = value.sum / value.count if value.count else 0.0
                detail = (
                    f"mean {mean * 1e3:.2f} ms · p50 {value.quantile(0.5) * 1e3:.2f} ms"
                    f" · p90 {value.quantile(0.9) * 1e3:.2f} ms"
                )
                lines.append(
                    f"{name:<42} {metric.kind:<9} {value.count:>14}  {detail}"
                )
            elif isinstance(value, EwmaValue):
                lines.append(
                    f"{name:<42} {metric.kind:<9} {value.value:>14.4g}  "
                    f"alpha {value.alpha:g} over {value.count} obs"
                )
            else:
                lines.append(f"{name:<42} {metric.kind:<9} {float(value):>14.6g}")
    if not len(snapshot):
        lines.append("(no metrics recorded)")
    if trace is not None and trace.children:
        lines.append("")
        span_header = f"{'span':<40} {'calls':>6}  {'total ms':>10}  {'excl ms':>10}"
        lines.append(span_header)
        lines.append("-" * len(span_header))
        lines.append(trace.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# exporter selftest (``cli metrics --selftest``)
# ----------------------------------------------------------------------
def selftest() -> list[str]:
    """Exercise every exporter on a synthetic registry; returns problems.

    Builds one metric of each kind (labelled and unlabelled, boundary
    values included), then checks (a) the JSON round-trip is the
    identity, (b) the Prometheus exposition contains the expected series,
    (c) the console renderer handles every kind.  An empty return means
    the exporters are healthy.
    """
    from .registry import MetricsRegistry

    problems: list[str] = []
    registry = MetricsRegistry()
    counter = registry.counter("selftest.events", "synthetic events")
    counter.inc(3)
    counter.inc(2, kind="alert")
    registry.gauge("selftest.level", "synthetic level").set(-1.5)
    hist = registry.histogram(
        "selftest.latency_seconds", "synthetic latency", buckets=(0.1, 1.0)
    )
    for v in (0.05, 0.1, 0.5, 1.0, 7.0):  # boundaries land in their bucket
        hist.observe(v)
    registry.ewma("selftest.rate", "synthetic rate", alpha=0.5).observe(10.0)

    snapshot = registry.snapshot()
    doc = to_json(snapshot)
    try:
        rebuilt = snapshot_from_json(json.loads(json.dumps(doc)))
    except Exception as err:  # pragma: no cover - defensive
        return [f"json round-trip raised: {err!r}"]
    if to_json(rebuilt, host=doc["host"])["metrics"] != doc["metrics"]:
        problems.append("json round-trip is not the identity")

    text = to_prometheus(snapshot)
    expected_lines = (
        "# TYPE repro_selftest_events_total counter",
        "repro_selftest_events_total 3",
        'repro_selftest_events_total{kind="alert"} 2',
        "repro_selftest_level -1.5",
        'repro_selftest_latency_seconds_bucket{le="0.1"} 2',
        'repro_selftest_latency_seconds_bucket{le="1"} 4',
        'repro_selftest_latency_seconds_bucket{le="+Inf"} 5',
        "repro_selftest_latency_seconds_count 5",
        "repro_selftest_rate 10",
    )
    for line in expected_lines:
        if line not in text.splitlines():
            problems.append(f"prometheus exposition missing: {line}")

    rendered = render_top(snapshot, host=doc["host"])
    for needle in ("selftest.events", "selftest.latency_seconds", "p90"):
        if needle not in rendered:
            problems.append(f"console rendering missing: {needle}")
    return problems
