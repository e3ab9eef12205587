"""Golden end-to-end traces: record once, check every refactor.

A *golden trace* is a small versioned fixture — an ``arrays.npz`` of
numerical artifacts plus a ``manifest.json`` recording the recipe (seed,
epochs), provenance (git describe, numpy/python versions), and per-array
tolerances.  :func:`record_golden` runs a deterministic end-to-end recipe
(synthetic world → CDet alert timeline → 2-epoch SAFE training → hazard
and survival curves → final model state) and freezes the results;
:func:`check_golden` re-runs the same recipe against the current code and
compares every array under its recorded ``atol``/``rtol``, producing a
human-readable diff report.

The CLI front end is ``python -m repro.cli golden record|check``; the
committed fixture lives under ``tests/fixtures/golden/``.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .reference import diff_summary

__all__ = [
    "GOLDEN_FORMAT_VERSION",
    "DEFAULT_GOLDEN_DIR",
    "GoldenSpec",
    "GoldenEntry",
    "GoldenReport",
    "GoldenFormatError",
    "compute_golden_arrays",
    "record_golden",
    "check_golden",
]

GOLDEN_FORMAT_VERSION = 1
DEFAULT_GOLDEN_DIR = Path("tests/fixtures/golden")

# Float artifacts are recomputed from the same seeds on the same machine,
# so they are normally bit-identical; the tolerances exist to absorb
# cross-platform BLAS / libm differences while staying far below any real
# numerical regression (a 1e-3 weight nudge shifts every curve by >> 1e-5).
_FLOAT_ATOL = 1e-6
_FLOAT_RTOL = 1e-5


class GoldenFormatError(RuntimeError):
    """The on-disk fixture is from an incompatible format version."""


@dataclass(frozen=True)
class GoldenSpec:
    """The deterministic recipe a golden fixture is recorded from."""

    seed: int = 7
    epochs: int = 2
    n_curves: int = 4  # survival/hazard curves to freeze

    def scenario(self):
        from ..synth import ScenarioConfig

        return ScenarioConfig(
            total_days=10,
            minutes_per_day=100,
            prep_days=1.5,
            n_customers=5,
            n_botnets=2,
            botnet_size=60,
            seed=self.seed,
        )

    def model_config(self):
        from ..core import TimescaleSpec, XatuModelConfig

        return XatuModelConfig(
            hidden_size=12,
            dense_size=8,
            detect_window=10,
            timescales=(
                TimescaleSpec("short", 1, 60),
                TimescaleSpec("medium", 5, 36),
                TimescaleSpec("long", 20, 12),
            ),
            seed=self.seed,
        )


def compute_golden_arrays(spec: GoldenSpec | None = None) -> dict[str, np.ndarray]:
    """Run the golden recipe end-to-end and return its frozen artifacts.

    Covers the three layers a numerical regression can hide in: the
    detector alert timeline (labels), the training trajectory (autograd +
    optimizer + loss), and the inference outputs (hazards → survival),
    plus every trained parameter tensor.
    """
    from ..core import DatasetBuilder, TrainConfig, XatuModel, XatuTrainer, alerts_to_records
    from ..detect import NetScoutDetector
    from ..signals import FeatureExtractor
    from ..survival.analysis import hazards_to_survival_np
    from ..synth import TraceGenerator

    spec = spec or GoldenSpec()
    trace = TraceGenerator(spec.scenario()).materialize()
    alerts = NetScoutDetector().detect(trace)
    labeled = [a for a in alerts if a.event_id >= 0]
    if not labeled:
        raise RuntimeError("golden scenario produced no labeled alerts")

    arrays: dict[str, np.ndarray] = {
        "alerts/detect_minutes": np.array([a.detect_minute for a in alerts], dtype=np.int64),
        "alerts/end_minutes": np.array([a.end_minute for a in alerts], dtype=np.int64),
        "alerts/customer_ids": np.array([a.customer_id for a in alerts], dtype=np.int64),
        "alerts/event_ids": np.array([a.event_id for a in alerts], dtype=np.int64),
        "alerts/peak_bytes": np.array([a.peak_bytes for a in alerts], dtype=np.float64),
    }

    extractor = FeatureExtractor(trace, alerts=alerts_to_records(trace, labeled))
    config = spec.model_config()
    builder = DatasetBuilder(
        trace, extractor, config, rng=np.random.default_rng(spec.seed)
    )
    split = int(trace.horizon * 0.7)
    train_set = builder.build(labeled, (0, split))
    val_set = builder.build(labeled, (split, trace.horizon), scaler=train_set.scaler)

    model = XatuModel(config)
    trainer = XatuTrainer(
        model,
        TrainConfig(
            epochs=spec.epochs, batch_size=8, learning_rate=3e-3, seed=spec.seed
        ),
    )
    result = trainer.fit(train_set, validation=val_set if len(val_set) else None)
    arrays["train/loss_curve"] = np.array(result.train_losses, dtype=np.float64)
    arrays["train/val_loss_curve"] = np.array(result.val_losses, dtype=np.float64)

    probe_set = val_set if len(val_set) else train_set
    x, _c, _t = probe_set.arrays()
    k = min(spec.n_curves, len(probe_set))
    hazards = model.hazards_np(x[:k])
    arrays["inference/hazard_curves"] = hazards
    arrays["inference/survival_curves"] = hazards_to_survival_np(hazards)
    # The stacked serving pass (one fused pass over k windows, per-item
    # bitwise equal to scoring each window alone) in both precisions — so
    # a kernel edit can't silently drift what the serve engine runs.
    arrays["inference/hazard_curves_batched"] = model.hazards_np_batched(x[:k])
    arrays["inference/hazard_curves_batched_f32"] = model.hazards_np_batched(
        x[:k], dtype=np.float32
    )

    for key, value in model.state_dict().items():
        arrays[f"state/{key}"] = value
    return arrays


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _tolerances_for(name: str, value: np.ndarray) -> tuple[float, float]:
    if np.issubdtype(value.dtype, np.integer):
        return 0.0, 0.0
    return _FLOAT_ATOL, _FLOAT_RTOL


def record_golden(
    path: str | Path = DEFAULT_GOLDEN_DIR, spec: GoldenSpec | None = None
) -> Path:
    """Record a golden fixture (``manifest.json`` + ``arrays.npz``) at ``path``."""
    spec = spec or GoldenSpec()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays = compute_golden_arrays(spec)
    np.savez(path / "arrays.npz", **arrays)
    manifest = {
        "format_version": GOLDEN_FORMAT_VERSION,
        "spec": asdict(spec),
        "git_describe": _git_describe(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "arrays": {
            name: {
                "shape": list(value.shape),
                "dtype": str(value.dtype),
                "atol": _tolerances_for(name, value)[0],
                "rtol": _tolerances_for(name, value)[1],
            }
            for name, value in sorted(arrays.items())
        },
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return path


@dataclass
class GoldenEntry:
    """Comparison result for one recorded array."""

    name: str
    status: str  # "ok" | "mismatch" | "missing" | "unexpected"
    max_abs: float = 0.0
    atol: float = 0.0
    rtol: float = 0.0
    detail: str = ""


@dataclass
class GoldenReport:
    """Outcome of one :func:`check_golden` run."""

    path: Path
    entries: list[GoldenEntry] = field(default_factory=list)
    git_describe_recorded: str = ""

    @property
    def ok(self) -> bool:
        return all(entry.status == "ok" for entry in self.entries)

    @property
    def failures(self) -> list[GoldenEntry]:
        return [entry for entry in self.entries if entry.status != "ok"]

    def render(self) -> str:
        """Human-readable diff report (one line per array)."""
        lines = [
            f"golden check against {self.path} "
            f"(recorded at {self.git_describe_recorded or 'unknown'})"
        ]
        for entry in self.entries:
            mark = "ok  " if entry.status == "ok" else "FAIL"
            line = f"  [{mark}] {entry.name}"
            if entry.status == "ok":
                line += f"  max |Δ| {entry.max_abs:.2e} (atol {entry.atol:g})"
            else:
                line += f"  {entry.status}: {entry.detail}"
            lines.append(line)
        n_bad = len(self.failures)
        lines.append(
            f"{len(self.entries) - n_bad}/{len(self.entries)} arrays within "
            "tolerance" + (f"; {n_bad} FAILED" if n_bad else "")
        )
        return "\n".join(lines)


def check_golden(
    path: str | Path = DEFAULT_GOLDEN_DIR,
    arrays: dict[str, np.ndarray] | None = None,
) -> GoldenReport:
    """Compare current code against a recorded fixture.

    ``arrays`` overrides the recomputation (used by tests to inject
    perturbed artifacts); normally the recipe in the fixture's manifest is
    re-run against the live code.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"no golden fixture at {path} — run `python -m repro.cli golden "
            f"record --path {path}` first"
        )
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != GOLDEN_FORMAT_VERSION:
        raise GoldenFormatError(
            f"golden fixture at {path} has format_version {version!r}, this "
            f"code understands {GOLDEN_FORMAT_VERSION}; re-record the fixture"
        )
    spec = GoldenSpec(**manifest["spec"])
    with np.load(path / "arrays.npz") as archive:
        recorded = {name: archive[name].copy() for name in archive.files}
    if arrays is None:
        arrays = compute_golden_arrays(spec)

    report = GoldenReport(
        path=path, git_describe_recorded=manifest.get("git_describe", "")
    )
    for name in sorted(set(recorded) | set(arrays)):
        if name not in arrays:
            report.entries.append(
                GoldenEntry(name, "missing", detail="current code no longer produces this array")
            )
            continue
        if name not in recorded:
            report.entries.append(
                GoldenEntry(name, "unexpected", detail="array not present in the fixture")
            )
            continue
        meta = manifest["arrays"].get(name, {})
        atol = float(meta.get("atol", _FLOAT_ATOL))
        rtol = float(meta.get("rtol", _FLOAT_RTOL))
        want, got = recorded[name], arrays[name]
        if want.shape != got.shape:
            report.entries.append(
                GoldenEntry(
                    name, "mismatch", atol=atol, rtol=rtol,
                    detail=f"shape changed: recorded {want.shape}, got {got.shape}",
                )
            )
            continue
        close = np.allclose(got, want, atol=atol, rtol=rtol)
        max_abs = float(np.max(np.abs(got - want))) if want.size else 0.0
        if close:
            report.entries.append(
                GoldenEntry(name, "ok", max_abs=max_abs, atol=atol, rtol=rtol)
            )
        else:
            report.entries.append(
                GoldenEntry(
                    name, "mismatch", max_abs=max_abs, atol=atol, rtol=rtol,
                    detail=diff_summary(name, got, want),
                )
            )
    return report
