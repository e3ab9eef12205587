"""The scenario-matrix runner: every scenario × every detector lane.

One set of Xatu artifacts is trained once (on a mixed paper-style campaign
scenario) and then evaluated — *without retraining* — on every registered
scenario through the streaming detector contract
(``step(minute, batch) -> alerts``).  That is deliberately the
deployment question: a model trained on the paper's attack mix meets
carpet bombing, pulse waves, adaptive attackers, and benign drift it never
saw.  The incumbent CDet simulators run beside it for the earliness
reference, and the serving engine runs as its own lane so the sharded
path is regression-gated end to end.

Per (scenario, detector) the runner reports detection rate, median delay
from onset, median earliness versus NetScout on co-detected events, false
alerts (absolute and per 1,000 customer-minutes), and the scrubbing
overhead its diversions would cost (area C/A of §2.4).  The report is a
versioned, deterministic JSON (``SCENARIOS.json``) with a
compare-vs-baseline gate in the style of ``cli bench --check``.

The ``xatu`` lane is a bare float64 ``OnlineXatu``, the oracle; the
``xatu_serve`` lane scores at the served precision.  Wherever both run,
:func:`precision_gate` compares them: their alerts must be equal, and the
survival gap is reported against the margin of the nearest threshold
crossing.  The gate rows come back beside the report, never inside
``SCENARIOS.json``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..scrub.center import DiversionWindow, ScrubbingCenter
from ..synth import Trace, TraceGenerator
from .catalog import ScenarioSpec, all_specs, get_spec

__all__ = [
    "MatrixConfig",
    "PrecisionGate",
    "TrainedArtifacts",
    "train_artifacts",
    "run_matrix",
    "precision_gate",
    "render_precision",
    "write_report",
    "load_report",
    "compare_reports",
    "budget_failures",
    "render_report",
    "DETECTOR_LANES",
    "REPORT_FORMAT_VERSION",
]

REPORT_FORMAT_VERSION = 1

# Lane names, in evaluation order.  "xatu_serve" is the sharded serving
# engine wrapped around the same artifacts as the "xatu" lane.
DETECTOR_LANES = ("netscout", "fastnetmon", "xatu", "xatu_serve")

_FP_DIVERSION_MINUTES = 10  # false-positive diversions last this long


@dataclass
class MatrixConfig:
    """Knobs for one matrix run."""

    detectors: tuple[str, ...] = DETECTOR_LANES
    epochs: int = 3
    train_seed: int = 42
    # Alerts up to this many minutes before onset count as (early) hits on
    # the event — the detect-prior-to-attack behaviour the survival
    # formulation rewards.
    early_margin: int = 30
    # Alerts up to this many minutes after the attack end still attribute
    # to the event (mirrors the offline CDet matcher).
    late_margin: int = 5
    serve_shards: int = 2

    def __post_init__(self) -> None:
        unknown = [d for d in self.detectors if d not in DETECTOR_LANES]
        if unknown:
            raise ValueError(
                f"unknown detector lane(s) {unknown}; choose from {DETECTOR_LANES}"
            )


@dataclass
class TrainedArtifacts:
    """The shared Xatu artifacts every scenario is evaluated with."""

    model_config: object
    model_state: dict
    scaler: object
    threshold: float
    train_seed: int
    epochs: int

    def make_online(self, trace: Trace, customer_of: dict[int, int]):
        """A fresh OnlineXatu over this scenario's world metadata."""
        from ..core import OnlineXatu, XatuModel

        model = XatuModel(self.model_config)
        model.load_state_dict(self.model_state)
        model.eval()
        world = trace.world
        blocklist: set[int] = set()
        for botnet in world.botnets:
            blocklist.update(int(a) for a in botnet.blocklisted_members)
        return OnlineXatu(
            model=model,
            scaler=self.scaler,
            threshold=self.threshold,
            customer_of=customer_of,
            blocklist=blocklist,
            route_table=world.route_table,
            base_rate_of={c.customer_id: c.base_rate_bytes for c in world.customers},
        )


def _train_scenario(seed: int):
    """The mixed paper-style campaign scenario the artifacts train on."""
    from ..synth import ScenarioConfig

    return ScenarioConfig(
        total_days=12,
        minutes_per_day=120,
        prep_days=1.5,
        n_customers=6,
        n_botnets=3,
        botnet_size=80,
        campaigns_per_botnet=2,
        seed=seed,
    )


def _train_registry(trace: Trace, epochs: int):
    """The quick-train recipe ``cli train``/``serve`` and the matrix share:
    NetScout's matched alerts label the trace, a per-type registry trains
    on its first 70 % and calibrates on the rest.  Returns
    ``(registry, cdet_alerts)``."""
    from ..core import XatuModelRegistry, alerts_to_records
    from ..detect import NetScoutDetector
    from ..eval.presets import bench_model_config, bench_train_config
    from ..signals import FeatureExtractor

    cdet_alerts = [a for a in NetScoutDetector().detect(trace) if a.event_id >= 0]
    extractor = FeatureExtractor(trace, alerts=alerts_to_records(trace, cdet_alerts))
    registry = XatuModelRegistry(bench_model_config(), bench_train_config(epochs))
    split = int(trace.horizon * 0.7)
    registry.train(trace, extractor, cdet_alerts, (0, split), (split, trace.horizon))
    return registry, cdet_alerts


def train_artifacts(epochs: int = 2, seed: int = 42) -> TrainedArtifacts:
    """Train the shared model/scaler/threshold once for the whole matrix."""
    trace = TraceGenerator(_train_scenario(seed)).materialize()
    registry, _cdet_alerts = _train_registry(trace, epochs)
    entry = registry.entry_for(None)
    return TrainedArtifacts(
        model_config=entry.model.config,
        model_state=entry.model.state_dict(),
        scaler=entry.scaler,
        threshold=entry.threshold,
        train_seed=seed,
        epochs=epochs,
    )


# ----------------------------------------------------------------------
# Lane drivers: every lane reduces to a sorted [(customer_id, minute)].
# ----------------------------------------------------------------------

def _lane_alerts(
    lane: str, trace: Trace, artifacts: TrainedArtifacts, config: MatrixConfig
) -> tuple[list[tuple[int, int]], np.ndarray | None]:
    """One lane's sorted ``(customer_id, minute)`` alerts and, for the two
    Xatu lanes, their :class:`_Survivals` matrix (``None`` for a CDet)."""
    from ..detect import FastNetMonDetector, NetScoutDetector
    from ..eval.streaming import stream_trace

    addr_to_cid = {c.address: c.customer_id for c in trace.world.customers}
    if lane == "netscout":
        detector = NetScoutDetector(
            profile_window=trace.config.minutes_per_day, customer_of=addr_to_cid
        )
    elif lane == "fastnetmon":
        detector = FastNetMonDetector(customer_of=addr_to_cid)
    elif lane == "xatu":
        return _xatu_lane_alerts(trace, artifacts)
    elif lane == "xatu_serve":
        return _serve_lane_alerts(trace, artifacts, config)
    else:  # pragma: no cover - guarded by MatrixConfig
        raise ValueError(f"unknown lane {lane!r}")
    alerts = stream_trace(detector, trace)
    return sorted((int(a.customer_id), int(a.minute)) for a in alerts), None


class _Survivals:
    """``S_t`` of every customer of a world after every minute, read from
    the detectors that serve them: a ``(horizon, customers)`` matrix, rows
    in minute order, columns in customer-id order.

    The matrix's detectors watch every customer of their world from minute
    0 (no lazy watch, no idle eviction), so each cell is a survival that
    minute's step computed, suppressed or not."""

    def __init__(self, trace: Trace) -> None:
        self.customers = sorted(c.customer_id for c in trace.world.customers)
        self.detectors: list = []
        self.rows: list[list[float]] = []

    def record(self) -> None:
        owner = {c: d for d in self.detectors for c in d.customer_of.values()}
        self.rows.append([owner[c].survival(c) for c in self.customers])

    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.float64).reshape(-1, len(self.customers))


def _xatu_lane_alerts(
    trace: Trace, artifacts: TrainedArtifacts
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Step one float64 ``OnlineXatu`` (the oracle) over the streamed trace."""
    from ..synth import as_trace_source

    detector = artifacts.make_online(
        trace, {c.address: c.customer_id for c in trace.world.customers}
    )
    survivals = _Survivals(trace)
    survivals.detectors.append(detector)
    merged: list[tuple[int, int]] = []
    for sl in as_trace_source(trace).iter_minutes(0, trace.horizon):
        alerts = detector.step(sl.minute, sl.batch)
        merged.extend((int(a.customer_id), int(a.minute)) for a in alerts)
        survivals.record()
    return sorted(merged), survivals.matrix()


def _serve_lane_alerts(
    trace: Trace, artifacts: TrainedArtifacts, config: MatrixConfig
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Drive the sharded serving engine, at its default (served) precision,
    over the streamed trace.  The inline backend builds its shard detectors
    in this process, so their survivals are read where they serve."""
    from ..serve import ServeConfig, ServeEngine
    from ..synth import as_trace_source

    addr_to_cid = {c.address: c.customer_id for c in trace.world.customers}
    survivals = _Survivals(trace)

    def factory(partition: dict[int, int]):
        detector = artifacts.make_online(trace, partition)
        survivals.detectors.append(detector)
        return detector

    engine = ServeEngine(
        factory,
        addr_to_cid,
        ServeConfig(shards=config.serve_shards, backend="inline"),
    )
    merged: list[tuple[int, int]] = []
    try:
        for sl in as_trace_source(trace).iter_minutes(0, trace.horizon):
            engine.ingest_flows(sl.batch)
            merged.extend(
                (int(a.customer_id), int(a.minute)) for a in engine.tick(sl.minute)
            )
            survivals.record()
    finally:
        engine.close()
    return sorted(merged), survivals.matrix()


@dataclass(frozen=True)
class PrecisionGate:
    """One world's served lane (``xatu_serve``) against the float64 oracle
    (``xatu``).

    ``customer_minutes`` counts the survivals compared: every customer of
    the world, every minute.  ``moved`` counts the ``(customer, minute)``
    alerts that only one lane raised.
    """

    customer_minutes: int
    alerts: int
    moved: int
    max_gap: float  # max |S_served - S64|
    min_margin: float  # min |S64 - threshold|

    @property
    def equal(self) -> bool:
        return self.moved == 0


def precision_gate(
    oracle: tuple[list[tuple[int, int]], np.ndarray],
    served: tuple[list[tuple[int, int]], np.ndarray],
    threshold: float,
) -> PrecisionGate:
    """Compare the served lane's ``(alerts, survivals)`` with the oracle's,
    as :func:`_lane_alerts` returns them for ``xatu_serve`` and ``xatu``;
    the gate holds when ``equal``."""
    (oracle_alerts, s64), (served_alerts, s_served) = oracle, served
    return PrecisionGate(
        customer_minutes=s64.size,
        alerts=len(oracle_alerts),
        moved=len(set(oracle_alerts) ^ set(served_alerts)),
        max_gap=float(np.abs(s_served - s64).max(initial=0.0)),
        min_margin=float(np.abs(s64 - threshold).min(initial=np.inf)),
    )


def render_precision(gates: dict[str, PrecisionGate]) -> str:
    """The precision gate's table: one row per Xatu world."""
    header = (
        f"{'scenario':<24} {'cust-min':>9} {'alerts':>6} {'moved':>5} "
        f"{'max|S32-S64|':>12} {'min|S64-thr|':>12} {'margin':>10}"
    )
    lines = [header, "-" * len(header)]
    for name, gate in gates.items():
        ratio = f"{gate.min_margin / gate.max_gap:,.0f}x" if gate.max_gap else "-"
        lines.append(
            f"{name:<24} {gate.customer_minutes:>9} {gate.alerts:>6} {gate.moved:>5} "
            f"{gate.max_gap:>12.1e} {gate.min_margin:>12.1e} {ratio:>10}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _match_event(trace: Trace, customer_id: int, minute: int, config: MatrixConfig):
    """The event an alert attributes to (latest-onset active event)."""
    best = None
    for event in trace.events:
        if event.customer_id != customer_id:
            continue
        if event.onset - config.early_margin <= minute < event.end + config.late_margin:
            if best is None or event.onset > best.onset:
                best = event
    return best


def _prep_intervals(trace: Trace) -> dict[int, list[tuple[int, int]]]:
    """Real (non-aborted) preparation windows per customer."""
    intervals: dict[int, list[tuple[int, int]]] = {}
    for prep in trace.preps:
        if prep.aborted or prep.end <= prep.start:
            continue
        intervals.setdefault(prep.customer_id, []).append((prep.start, prep.end))
    return intervals


def _evaluate_lane(
    trace: Trace,
    alerts: list[tuple[int, int]],
    config: MatrixConfig,
) -> tuple[dict, dict[int, int]]:
    """Metrics for one lane; returns (metrics, first-detection minutes)."""
    first_detection: dict[int, int] = {}
    false_alerts = 0
    prep_alerts = 0
    windows: list[DiversionWindow] = []
    diverted_until: dict[int, int] = {}
    preps_of = _prep_intervals(trace)

    for customer_id, minute in alerts:
        event = _match_event(trace, customer_id, minute, config)
        if event is not None:
            first_detection.setdefault(event.event_id, minute)
        # Diversion accounting: an alert inside an active diversion extends
        # nothing (the customer is already being scrubbed) and is the same
        # incident, so it is not re-counted.
        if minute <= diverted_until.get(customer_id, -1):
            continue
        if event is not None:
            end = max(event.end, minute + 1)
        else:
            # Unmatched alerts split by cause: firing inside a real
            # preparation window means the detector reacted to genuine
            # attacker probing ahead of the margin (an early diversion,
            # charged to scrub overhead); anything else — benign traffic,
            # aborted preps — is a false alarm.
            if any(
                start <= minute < stop
                for start, stop in preps_of.get(customer_id, ())
            ):
                prep_alerts += 1
            else:
                false_alerts += 1
            end = minute + _FP_DIVERSION_MINUTES
        end = min(end, trace.horizon)
        windows.append(DiversionWindow(customer_id, minute, end))
        diverted_until[customer_id] = end - 1

    n_events = len(trace.events)
    delays = [
        first_detection[e.event_id] - e.onset
        for e in trace.events
        if e.event_id in first_detection
    ]
    customer_minutes = max(1, len(trace.world.customers) * trace.horizon)

    scrub_overhead = None
    if windows and n_events:
        report = ScrubbingCenter(trace).account(windows)
        values = report.overhead_values()
        if len(values):
            scrub_overhead = round(float(np.median(values)), 6)

    metrics = {
        "alerts": len(alerts),
        "events": n_events,
        "detected": len(first_detection),
        "detection_rate": (
            round(len(first_detection) / n_events, 4) if n_events else None
        ),
        "median_delay_minutes": (
            round(float(np.median(delays)), 2) if delays else None
        ),
        "false_alerts": false_alerts,
        "false_alerts_per_kcm": round(false_alerts / customer_minutes * 1000, 4),
        "prep_alerts": prep_alerts,
        "scrub_overhead": scrub_overhead,
    }
    return metrics, first_detection


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run_matrix(
    scenario_names: list[str] | None = None,
    config: MatrixConfig | None = None,
    artifacts: TrainedArtifacts | None = None,
    progress=None,
) -> tuple[dict, dict[str, PrecisionGate]]:
    """Run the matrix.  Returns the report dict (``SCENARIOS.json``) and the
    :func:`precision_gate` row of every world where both Xatu lanes ran."""
    config = config or MatrixConfig()
    specs = (
        [get_spec(name) for name in scenario_names]
        if scenario_names is not None
        else list(all_specs())
    )
    say = progress or (lambda _msg: None)

    def spec_lanes(spec: ScenarioSpec) -> tuple[str, ...]:
        if spec.detectors is None:
            return tuple(config.detectors)
        return tuple(l for l in config.detectors if l in spec.detectors)

    # Train only if some selected (scenario, lane) pair actually needs the
    # model — a scale-band or CDet-only run never pays for training.
    needs_model = any(
        lane in ("xatu", "xatu_serve") for spec in specs for lane in spec_lanes(spec)
    )
    if artifacts is None and needs_model:
        say(f"training shared artifacts (seed {config.train_seed}, "
            f"{config.epochs} epochs)")
        artifacts = train_artifacts(epochs=config.epochs, seed=config.train_seed)

    scenarios: dict[str, dict] = {}
    gates: dict[str, PrecisionGate] = {}
    for spec in specs:
        say(f"scenario {spec.name}: generating trace")
        trace = TraceGenerator(spec.config).materialize()
        lanes = spec_lanes(spec)
        lane_alerts: dict[str, list[tuple[int, int]]] = {}
        survivals: dict[str, np.ndarray | None] = {}
        results: dict[str, dict] = {}
        first_by_lane: dict[str, dict[int, int]] = {}
        for lane in lanes:
            say(f"scenario {spec.name}: lane {lane}")
            lane_alerts[lane], survivals[lane] = _lane_alerts(
                lane, trace, artifacts, config
            )
            results[lane], first_by_lane[lane] = _evaluate_lane(
                trace, lane_alerts[lane], config
            )
        if "xatu" in lanes and "xatu_serve" in lanes:
            gates[spec.name] = precision_gate(
                (lane_alerts["xatu"], survivals["xatu"]),
                (lane_alerts["xatu_serve"], survivals["xatu_serve"]),
                artifacts.threshold,
            )
        # Earliness vs the NetScout reference, on co-detected events.
        reference = first_by_lane.get("netscout", {})
        for lane in lanes:
            shared = [
                reference[eid] - first_by_lane[lane][eid]
                for eid in first_by_lane[lane]
                if eid in reference
            ]
            results[lane]["earliness_vs_netscout_minutes"] = (
                round(float(np.median(shared)), 2) if shared else None
            )
            results[lane]["codetected_with_netscout"] = len(shared)
        scenarios[spec.name] = {
            "family": spec.family,
            "description": spec.description,
            "expect_alerts": spec.expect_alerts,
            "fp_budget": dict(spec.fp_budget),
            "config": _config_dict(spec.config),
            "results": {lane: results[lane] for lane in sorted(results)},
        }

    train_info = (
        {"seed": artifacts.train_seed, "epochs": artifacts.epochs}
        if artifacts is not None
        else None  # CDet-only run: no model was trained
    )
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "train": train_info,
        "matrix": {
            "detectors": sorted(config.detectors),
            "early_margin": config.early_margin,
            "late_margin": config.late_margin,
            "serve_shards": config.serve_shards,
        },
        "scenarios": dict(sorted(scenarios.items())),
    }
    return report, gates


def _config_dict(config) -> dict:
    data = dataclasses.asdict(config)
    # JSON has no tuples; normalize for stable round-trips.
    if data.get("sampling_rates") is not None:
        data["sampling_rates"] = list(data["sampling_rates"])
    return data


# ----------------------------------------------------------------------
# Report I/O + gates
# ----------------------------------------------------------------------

def write_report(report: dict, out_dir: str | Path) -> Path:
    """Write ``SCENARIOS.json`` (deterministic: sorted keys, no host/time)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "SCENARIOS.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    version = report.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported SCENARIOS.json format {version!r} "
            f"(expected {REPORT_FORMAT_VERSION})"
        )
    return report


def budget_failures(report: dict) -> list[str]:
    """Violations of the per-scenario false-alert budgets."""
    failures: list[str] = []
    for name, scenario in report["scenarios"].items():
        budget = scenario.get("fp_budget") or {}
        for lane, limit in budget.items():
            result = scenario["results"].get(lane)
            if result is None:
                continue
            if result["false_alerts"] > limit:
                failures.append(
                    f"{name}/{lane}: {result['false_alerts']} false alerts "
                    f"exceed the budget of {limit}"
                )
    return failures


def compare_reports(
    current: dict,
    baseline: dict,
    detection_rate_tolerance: float = 0.15,
    delay_tolerance: float = 5.0,
    fpr_tolerance: float = 1.0,
) -> tuple[list[str], list[str]]:
    """Compare a fresh report against the committed baseline.

    Only (scenario, detector) pairs present in *both* reports are gated, so
    the CI subset can be checked against the full committed baseline.
    Returns ``(warnings, failures)``; failures should fail the build.
    """
    warnings: list[str] = []
    failures: list[str] = []
    for name, scenario in current["scenarios"].items():
        base_scenario = baseline["scenarios"].get(name)
        if base_scenario is None:
            warnings.append(f"{name}: not in baseline (new scenario)")
            continue
        for lane, result in scenario["results"].items():
            base = base_scenario["results"].get(lane)
            if base is None:
                warnings.append(f"{name}/{lane}: not in baseline (new lane)")
                continue
            cur_rate, base_rate = result["detection_rate"], base["detection_rate"]
            if cur_rate is not None and base_rate is not None:
                if cur_rate < base_rate - detection_rate_tolerance:
                    failures.append(
                        f"{name}/{lane}: detection rate {cur_rate:.2f} "
                        f"fell below baseline {base_rate:.2f}"
                    )
                elif cur_rate < base_rate:
                    warnings.append(
                        f"{name}/{lane}: detection rate {cur_rate:.2f} "
                        f"< baseline {base_rate:.2f} (within tolerance)"
                    )
            cur_delay = result["median_delay_minutes"]
            base_delay = base["median_delay_minutes"]
            if cur_delay is not None and base_delay is not None:
                if cur_delay > base_delay + delay_tolerance:
                    failures.append(
                        f"{name}/{lane}: median delay {cur_delay:.1f} min "
                        f"regressed past baseline {base_delay:.1f}"
                    )
                elif cur_delay > base_delay:
                    warnings.append(
                        f"{name}/{lane}: median delay {cur_delay:.1f} min "
                        f"> baseline {base_delay:.1f} (within tolerance)"
                    )
            cur_fpr = result["false_alerts_per_kcm"]
            base_fpr = base["false_alerts_per_kcm"]
            if cur_fpr > base_fpr + fpr_tolerance:
                failures.append(
                    f"{name}/{lane}: false-alert rate {cur_fpr:.2f}/kcm "
                    f"regressed past baseline {base_fpr:.2f}"
                )
            elif cur_fpr > base_fpr:
                warnings.append(
                    f"{name}/{lane}: false-alert rate {cur_fpr:.2f}/kcm "
                    f"> baseline {base_fpr:.2f} (within tolerance)"
                )
    failures.extend(budget_failures(current))
    return warnings, failures


def render_report(report: dict) -> str:
    """Human-readable table of the matrix results."""
    lines: list[str] = []
    header = (
        f"{'scenario':<22} {'lane':<10} {'det':>5} {'rate':>6} "
        f"{'delay':>7} {'early':>7} {'fp':>4} {'prep':>5} {'scrub':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, scenario in report["scenarios"].items():
        for lane, result in scenario["results"].items():
            rate = result["detection_rate"]
            delay = result["median_delay_minutes"]
            early = result["earliness_vs_netscout_minutes"]
            scrub = result["scrub_overhead"]
            lines.append(
                f"{name:<22} {lane:<10} "
                f"{result['detected']:>2}/{result['events']:<2} "
                f"{rate if rate is not None else '-':>6} "
                f"{delay if delay is not None else '-':>7} "
                f"{early if early is not None else '-':>7} "
                f"{result['false_alerts']:>4} "
                f"{result.get('prep_alerts', 0):>5} "
                f"{scrub if scrub is not None else '-':>7}"
            )
    return "\n".join(lines)
