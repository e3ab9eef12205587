"""Timing harness and versioned result files for the microbenchmarks.

A benchmark run produces a :class:`BenchReport`: per-case wall-clock
timings (every case is measured in a *fused* and an *unfused* variant, so
the pre-fusion baseline is always captured alongside) plus derived
speedups.  Reports serialize to ``BENCH_<tag>.json`` with a format version
and platform provenance; committing one per perf-relevant PR gives the
repo a tracked performance trajectory (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "BENCH_FORMAT_VERSION",
    "DEFAULT_BENCH_DIR",
    "BenchTiming",
    "BenchReport",
    "time_callable",
    "write_bench_json",
    "load_bench_json",
    "compare_to_baseline",
]

BENCH_FORMAT_VERSION = 1
DEFAULT_BENCH_DIR = Path("benchmarks/results")


def time_callable(
    fn: Callable[[], object], reps: int, warmup: int = 1
) -> list[float]:
    """Wall-clock one callable: ``warmup`` throwaway runs, then ``reps``
    timed runs (``time.perf_counter``).  Returns the per-run seconds."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    for _ in range(warmup):
        fn()
    times: list[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


@dataclass(frozen=True)
class BenchTiming:
    """Timing summary for one (case, variant) pair."""

    name: str
    variant: str  # "fused" | "unfused"
    seconds: tuple[float, ...]

    @property
    def best(self) -> float:
        return min(self.seconds)

    @property
    def median(self) -> float:
        return float(np.median(self.seconds))

    @property
    def mean(self) -> float:
        return float(np.mean(self.seconds))

    @property
    def reps(self) -> int:
        return len(self.seconds)

    def to_json(self) -> dict:
        return {
            "best_s": self.best,
            "median_s": self.median,
            "mean_s": self.mean,
            "reps": self.reps,
            "seconds": list(self.seconds),
        }


@dataclass
class BenchReport:
    """All timings from one benchmark invocation."""

    tag: str
    smoke: bool = False
    timings: list[BenchTiming] = field(default_factory=list)
    sizes: dict[str, dict] = field(default_factory=dict)

    def add(self, timing: BenchTiming) -> None:
        self.timings.append(timing)

    def timing(self, name: str, variant: str) -> BenchTiming | None:
        for t in self.timings:
            if t.name == name and t.variant == variant:
                return t
        return None

    def speedups(self) -> dict[str, float]:
        """``unfused_best / fused_best`` per case that has both variants."""
        out: dict[str, float] = {}
        for name in sorted({t.name for t in self.timings}):
            fused = self.timing(name, "fused")
            unfused = self.timing(name, "unfused")
            if fused and unfused and fused.best > 0:
                out[name] = unfused.best / fused.best
        return out

    def obs_overheads(self) -> dict[str, float]:
        """Fractional telemetry cost per case with enabled/disabled variants
        (``enabled_best / disabled_best - 1``; 0.03 means +3%)."""
        out: dict[str, float] = {}
        for name in sorted({t.name for t in self.timings}):
            enabled = self.timing(name, "enabled")
            disabled = self.timing(name, "disabled")
            if enabled and disabled and disabled.best > 0:
                out[name] = enabled.best / disabled.best - 1.0
        return out

    def render(self) -> str:
        """Human-readable table: case, fused, pre-fusion baseline, speedup."""
        speedups = self.speedups()
        rows = []
        for name in sorted({t.name for t in self.timings}):
            fused = self.timing(name, "fused")
            unfused = self.timing(name, "unfused")
            if fused is None and unfused is None:
                continue  # obs-overhead cases render separately below
            rows.append(
                (
                    name,
                    f"{fused.best * 1e3:9.2f}" if fused else "      n/a",
                    f"{unfused.best * 1e3:9.2f}" if unfused else "      n/a",
                    f"{speedups[name]:6.1f}x" if name in speedups else "    n/a",
                )
            )
        header = f"{'benchmark':<24} {'fused ms':>9} {'unfused ms':>10} {'speedup':>7}"
        lines = [header, "-" * len(header)]
        for name, fused_ms, unfused_ms, speedup in rows:
            lines.append(f"{name:<24} {fused_ms:>9} {unfused_ms:>10} {speedup:>7}")
        overheads = self.obs_overheads()
        if overheads:
            lines.append("")
            lines.append("telemetry overhead (enabled vs disabled):")
            for name, frac in overheads.items():
                enabled = self.timing(name, "enabled")
                disabled = self.timing(name, "disabled")
                lines.append(
                    f"  {name:<22} {disabled.best * 1e3:9.2f} ms -> "
                    f"{enabled.best * 1e3:9.2f} ms  ({frac:+.1%})"
                )
        return "\n".join(lines)


def write_bench_json(report: BenchReport, path: str | Path) -> Path:
    """Serialize a report to ``<path>/BENCH_<tag>.json`` (versioned)."""
    from ..obs.export import host_metadata

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    out = path / f"BENCH_{report.tag}.json"
    payload = {
        "format_version": BENCH_FORMAT_VERSION,
        "tag": report.tag,
        "smoke": report.smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "host": host_metadata(),
        "sizes": report.sizes,
        "benchmarks": {
            f"{t.name}/{t.variant}": t.to_json() for t in report.timings
        },
        "speedups": report.speedups(),
        "obs_overheads": report.obs_overheads(),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_bench_json(path: str | Path) -> dict:
    """Load and version-check a ``BENCH_<tag>.json`` file."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"bench file {path} has format_version {version!r}; this code "
            f"understands {BENCH_FORMAT_VERSION}"
        )
    return payload


def _comparability(baseline: dict, smoke: bool) -> tuple[list[str], bool]:
    """Whether a fresh run may *fail* against ``baseline``, and why not.

    Returns ``(warnings, comparable)``.  A host mismatch (different
    interpreter/numpy/machine than the one that wrote the baseline), a
    smoke flag that differs, or two smoke runs — single-rep, no-warmup
    measurements documented as noise (docs/PERFORMANCE.md) — each demote
    every regression to a warning.  Shared by the timing suites and the
    scale suite.
    """
    from ..obs.export import host_metadata

    warnings: list[str] = []
    baseline_host = baseline.get("host") or baseline.get("platform") or {}
    here = host_metadata()
    mismatched = [
        key
        for key in ("python", "numpy", "machine")
        if key in baseline_host and baseline_host[key] != here.get(key)
    ]
    comparable = not mismatched
    if mismatched:
        detail = ", ".join(
            f"{k}: baseline {baseline_host[k]} vs here {here.get(k)}"
            for k in mismatched
        )
        warnings.append(
            f"host differs from baseline ({detail}); regressions reported "
            "as warnings only"
        )
    if bool(baseline.get("smoke")) != smoke:
        warnings.append("smoke flag differs from baseline; not comparable")
        comparable = False
    elif smoke:
        warnings.append(
            "both runs are smoke mode; regressions reported as warnings only"
        )
        comparable = False
    return warnings, comparable


def compare_to_baseline(
    report: BenchReport,
    baseline: dict,
    tolerance: float = 0.5,
) -> tuple[list[str], list[str]]:
    """Compare a fresh report against a committed ``BENCH_<tag>.json``.

    Returns ``(warnings, failures)``.  A case regresses when its best time
    exceeds the baseline's by more than ``tolerance`` (0.5 = 50% slower);
    on a host or smoke mismatch (:func:`_comparability`) regressions are
    warnings only.  Cases whose workload sizes differ from the baseline's
    are skipped with a warning.
    """
    warnings, host_matches = _comparability(baseline, report.smoke)
    failures: list[str] = []

    baseline_sizes = baseline.get("sizes", {})
    baseline_benchmarks = baseline.get("benchmarks", {})
    for timing in report.timings:
        key = f"{timing.name}/{timing.variant}"
        entry = baseline_benchmarks.get(key)
        if entry is None:
            warnings.append(f"{key}: no baseline entry; skipped")
            continue
        size_key = next(
            (k for k in baseline_sizes if timing.name.startswith(k)), None
        )
        if (
            size_key is not None
            and size_key in report.sizes
            and baseline_sizes[size_key] != report.sizes[size_key]
        ):
            warnings.append(f"{key}: workload sizes differ; skipped")
            continue
        base_best = float(entry["best_s"])
        if base_best <= 0:
            continue
        ratio = timing.best / base_best
        if ratio > 1.0 + tolerance:
            message = (
                f"{key}: {timing.best * 1e3:.2f} ms vs baseline "
                f"{base_best * 1e3:.2f} ms ({ratio:.2f}x slower)"
            )
            (failures if host_matches else warnings).append(message)
    return warnings, failures
