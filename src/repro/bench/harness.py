"""The one report format of the offline benches: write, load, compare, gate.

Both suites (:data:`repro.bench.SUITES`) produce the same payload, a plain
dict that is identical whether fresh or loaded from disk::

    {"format_version": 2, "suite": "train" | "scale", "smoke": bool,
     "host": host_metadata(), "sizes": {...}, "rows": {name: {...}}}

``BENCH_<suite>.json`` is that dict on disk.  :func:`compare` gates one
quantity per suite against a committed baseline (demoted to warnings when
:func:`_comparability` says the two runs cannot be compared); :func:`gates`
holds the checks that no baseline and no host difference can excuse.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "BENCH_FORMAT_VERSION",
    "GATED",
    "bench_report",
    "write_bench_json",
    "load_bench_json",
    "compare",
    "gates",
]

BENCH_FORMAT_VERSION = 2

# The one row quantity each suite's --check gates (lower is better), and
# the word a regression of it is reported with.
GATED = {"train": ("best_s", "slower"), "scale": ("peak_rss_mb", "fatter")}
TOLERANCE = 0.5  # a row regresses when its gated value is 50 % worse

# The scalability claim: the 1M cell within 2x the 100k cell's peak RSS.
RSS_RATIO_PAIR = ("1m", "100k")
RSS_RATIO = 2.0
MAX_RSS_MB = 512.0  # no scale cell, smoke or full, may exceed this


def bench_report(suite: str, smoke: bool, sizes: dict, rows: dict) -> dict:
    """A fresh payload for ``suite``, stamped with this host."""
    from ..obs.export import host_metadata

    return {
        "format_version": BENCH_FORMAT_VERSION,
        "suite": suite,
        "smoke": smoke,
        "host": host_metadata(),
        "sizes": sizes,
        "rows": rows,
    }


def write_bench_json(payload: dict, out_dir: str | Path) -> Path:
    """Write ``payload`` to ``<out_dir>/BENCH_<suite>.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"BENCH_{payload['suite']}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_bench_json(path: str | Path) -> dict:
    """Load a ``BENCH_<suite>.json``; any other format version is refused."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"bench file {path} has format_version {version!r}; this code "
            f"reads only {BENCH_FORMAT_VERSION} (there is no converter: "
            "re-record it with `python -m repro.cli bench --suite <suite>`)"
        )
    if payload.get("suite") not in GATED:
        raise ValueError(
            f"bench file {path} names suite {payload.get('suite')!r}; "
            f"expected one of {sorted(GATED)}"
        )
    return payload


def _comparability(baseline: dict, smoke: bool) -> tuple[list[str], bool]:
    """Whether a fresh run may *fail* against ``baseline``, and why not.

    Returns ``(warnings, comparable)``.  A host mismatch (different
    interpreter, numpy, machine or usable CPU count than the one that
    wrote the baseline), a smoke flag that differs, or two smoke runs —
    single-rep, no-warmup measurements documented as noise
    (docs/PERFORMANCE.md) — each demote every regression to a warning.
    """
    from ..obs.export import host_metadata

    warnings: list[str] = []
    baseline_host = baseline.get("host", {})
    here = host_metadata()
    mismatched = [
        key
        for key in ("python", "numpy", "machine", "nproc")
        if baseline_host.get(key) != here.get(key)
    ]
    comparable = not mismatched
    if mismatched:
        detail = ", ".join(
            f"{k}: baseline {baseline_host.get(k)} vs here {here.get(k)}"
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


def compare(fresh: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Compare a fresh payload against a committed one of the same suite.

    Returns ``(warnings, failures)``.  A row regresses when the suite's
    gated quantity (:data:`GATED`) exceeds the baseline's by more than
    ``TOLERANCE``; when :func:`_comparability` demotes, regressions are
    warnings.  Runs of different sizes are not compared row by row.
    """
    suite = fresh["suite"]
    if baseline["suite"] != suite:
        raise ValueError(
            f"cannot compare a {suite!r} run with a {baseline['suite']!r} baseline"
        )
    warnings, comparable = _comparability(baseline, bool(fresh["smoke"]))
    failures: list[str] = []
    if fresh["sizes"] != baseline["sizes"]:
        warnings.append("workload sizes differ from baseline; rows skipped")
        return warnings, failures
    key, verb = GATED[suite]
    for name, row in fresh["rows"].items():
        base = baseline["rows"].get(name)
        if base is None:
            warnings.append(f"{name}: no baseline row; skipped")
            continue
        if base[key] <= 0:
            continue
        ratio = row[key] / base[key]
        if ratio > 1.0 + TOLERANCE:
            (failures if comparable else warnings).append(
                f"{name}: {key} {row[key]:.4g} vs baseline {base[key]:.4g} "
                f"({ratio:.2f}x {verb})"
            )
    return warnings, failures


def gates(payload: dict) -> list[str]:
    """Host-independent hard checks on one fresh payload.

    Only scale rows carry ``peak_rss_mb``.  The cross-cell ratio is the
    scalability claim itself: if the 1M cell needs more than
    ``RSS_RATIO``x the 100k cell's memory, something reintroduced
    O(n_customers) state.  ``MAX_RSS_MB`` bounds every cell.
    """
    rss = {
        name: float(row["peak_rss_mb"])
        for name, row in payload["rows"].items()
        if "peak_rss_mb" in row
    }
    failures = [
        f"memory gate: cell {cell} peak RSS {mb:.1f} MB exceeds the "
        f"{MAX_RSS_MB:.0f} MB bound"
        for cell, mb in sorted(rss.items())
        if mb > MAX_RSS_MB
    ]
    big, ref = RSS_RATIO_PAIR
    if big in rss and ref in rss and rss[big] > RSS_RATIO * rss[ref]:
        failures.append(
            f"scale gate: {big} peak RSS {rss[big]:.1f} MB exceeds "
            f"{RSS_RATIO}x the {ref} cell ({rss[ref]:.1f} MB)"
        )
    return failures
