#!/usr/bin/env python3
"""End-to-end benchmark: datagram bytes in -> alerts out, attributed by layer.

Contract mode (what ``BENCHMARK.json`` runs, one workload per process)::

    python3 benchmarks/e2e/run.py --workload fleet_score --seed 7 --seconds 15 --trace 0

prints a readable report and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite mode runs every workload, untraced then traced, each in its own
subprocess, and writes one report file::

    python3 benchmarks/e2e/run.py --smoke --out smoke.json
    python3 benchmarks/e2e/run.py --suite --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
MANIFEST = REPO_ROOT / "BENCHMARK.json"
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 1.0
SMOKE_MIN_PASSES = 2
SETUP_REPEATS = 7
SETUP_BUDGET_S = 8.0
SETUP_PROBE_S = 0.05  # at least this much speed probe after each set-up


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_block() -> dict:
    import numpy

    return {
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PIN},
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    # BLAS threading decides the process backend (README "Sizing facts"):
    # pinned before numpy is first imported, and inherited by the shards.
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in BLAS_PIN:
        os.environ[var] = "1"
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"{src}/repro not found: run from a checkout of the repository")
    sys.path.insert(0, str(src))

    import e2e_measure as measure
    from e2e_trace import Tracer, counts_of, layer_unit, originals
    from e2e_workloads import WORKLOADS, build_engine, generate, load_artifacts

    workload = WORKLOADS[name]
    if workload.backend == "process" and usable_cpus() < workload.shards:
        raise SystemExit(
            f"{name} skipped: {workload.shards} process shards need "
            f">= {workload.shards} usable CPUs, this host offers {usable_cpus()}"
        )

    unpatched = originals()

    # Set-up = load the trained artifacts + generate and encode the bytes +
    # build the engine.  Repeated while it stays cheap and reported as the
    # median; first-run training is the build and is reported on its own.
    setups: list[dict] = []
    train_s = 0.0
    probe = measure.SpeedProbe()
    while len(setups) < SETUP_REPEATS and (
        not setups or sum(s["total"] for s in setups) + setups[-1]["total"] < SETUP_BUDGET_S
    ):
        gc.collect()
        start = time.perf_counter()
        artifacts, trained = load_artifacts()
        loaded = time.perf_counter()
        inputs = generate(workload, seed, smoke)
        generated = time.perf_counter()
        build_engine(
            artifacts, inputs, workload.shards, workload.backend
        ).close()
        built = time.perf_counter()
        train_s += trained
        total = built - start - trained
        iterations, spent = probe.run(max(measure.PROBE_SHARE * total, SETUP_PROBE_S))
        setups.append(
            {
                "load": loaded - start - trained,
                "generate": generated - loaded,
                "build": built - generated,
                "total": total,
                "scale": measure.PROBE_REF_S * iterations / spent,
            }
        )
    setup = {
        key: sorted(s[key] for s in setups)[len(setups) // 2] for key in setups[0]
    }

    untraced, with_trace = measure.run_passes(
        artifacts,
        inputs,
        workload,
        seconds,
        traced,
        SMOKE_MIN_PASSES if smoke else measure.MIN_PASSES,
    )
    timed = untraced + with_trace
    # Before the reference pass: its single shard stacks twice the windows.
    rss_mb = measure.peak_rss_mb()

    # Correctness, after the timed passes: the same bytes through the
    # plainest configuration, with the counting wrappers on.
    start = time.perf_counter()
    reference = measure.replay(
        artifacts, inputs, workload, reference=True, tracer=Tracer(), tag="ref"
    )
    verify_s = time.perf_counter() - start

    digest = measure.alert_digest(reference.alerts)
    checks = {
        "alerts_equal_reference": all(p.alerts == reference.alerts for p in timed),
        "work_counts_repeat": len({p.flows_all for p in timed}) == 1
        and all(counts_of(p.layers) == counts_of(with_trace[0].layers) for p in with_trace)
        and all(
            p.decisions == reference.decisions
            for p in with_trace
            if workload.backend == "inline"
        ),
        "flows_ingested_equal_generated": all(
            p.flows_all == inputs.flows for p in timed + [reference]
        ),
        "records_lost_zero": all(p.records_lost == 0 for p in timed + [reference]),
        "unrouted_zero": reference.unrouted == 0,
        "shards_healthy": all(p.healthy for p in timed + [reference]),
        "no_failed_minutes": all(p.failed_minutes == 0 for p in timed + [reference]),
        "wrappers_removed": all(
            now is unpatched[name] for name, now in originals().items()
        ),
    }
    if workload.restore:
        checks["alerts_fired"] = len(reference.alerts) >= 1

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "passes": len(timed),
        "ticks_per_pass": len(reference.tick_ms),
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": sum(len(p.tick_ms) for p in timed),
        "failed": sum(p.failed_minutes for p in timed),
        "error": next((p.error for p in timed + [reference] if p.error), None),
        "info": {
            "setup.train_s": train_s,
            "setup.load_s": setup["load"],
            "setup.generate_s": setup["generate"],
            "setup.build_s": setup["build"],
            "setup.repeats": len(setups),
            "host_speed": [measure.PROBE_REF_S / p.probe_s for p in untraced],
            "verify_s": verify_s,
            "world_seed": inputs.world_seed,
            "flows": inputs.flows,
            "decisions": reference.decisions,
            "alerts": len(reference.alerts),
            "alert_digest": digest,
            "host": host_block(),
        },
    }
    if traced:
        layers = measure.per_layer(with_trace, untraced)
        report["per_layer"] = {
            key: {"value": value, "unit": layer_unit(key)} for key, value in layers.items()
        }
    else:
        report["end_to_end"] = measure.end_to_end(
            untraced, reference.decisions, setups, rss_mb
        )
        p95 = report["end_to_end"]["minute_ms_p95"]["value"]
        report["info"]["duty_cycle_p95"] = p95 / measure.MINUTE_BUDGET_MS
        report["info"]["alert_minute_ms_p50"] = measure.alert_minute_ms_p50(untraced)
    return report


def stop_children() -> None:
    """Leave no process behind, on any path out of a run.

    ``ServeEngine.close`` joins its shards, but ``multiprocessing``'s
    resource tracker — spawned by the first shared-memory ring — outlives
    the interpreter unless it is stopped by hand; a shard of an engine that
    an exception skipped past is killed here too.  Every child is waited for.
    """
    import multiprocessing

    # Shards first: a fork holds a copy of the tracker's pipe open.
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it
    # Anything else whose parent is this process (a tracker without _stop).
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            parent = int(stat.read_text().rpartition(")")[2].split()[1])
            if parent == os.getpid():
                os.kill(int(stat.parent.name), signal.SIGKILL)
                os.waitpid(int(stat.parent.name), 0)
        except (OSError, ValueError):  # raced with an exit
            pass


def render(report: dict) -> str:
    lines = [
        f"# {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
        f"passes={report['passes']}  ticks/pass={report['ticks_per_pass']}"
    ]
    for name, entry in report.get("end_to_end", {}).items():
        lines.append(
            f"{name:<22} {entry['value']:>14.4f} {entry['unit']:<5} "
            f"(passes min {entry['min']:.4f} max {entry['max']:.4f}; raw {entry['raw']:.4f})"
        )
    for name, entry in report.get("per_layer", {}).items():
        lines.append(f"{name:<52} {entry['value']:>16.4f} {entry['unit']}")
    lines.append("info " + json.dumps(report["info"], sort_keys=True))
    lines.append("checks " + json.dumps(report["checks"], sort_keys=True))
    if report["error"]:
        lines.append(report["error"])
    return "\n".join(lines)


def contract_line(report: dict) -> str:
    metrics = report.get("per_layer") or report["end_to_end"]
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )


# ----------------------------------------------------------------------
# every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_suite(names: list[str], seed: int, seconds: float, smoke: bool, out: Path | None) -> int:
    suite = {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    status = 0
    part = HERE / ".work" / f"suite-{os.getpid()}.json"
    part.parent.mkdir(exist_ok=True)
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(part),
            ]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if not part.is_file():
                # Refused (too few CPUs) or crashed: reported, never a zero.
                print(f"# {name} trace={trace}: no result (exit {proc.returncode})")
                print(proc.stderr.strip())
                suite["workloads"].setdefault(name, {})["skipped"] = proc.stderr.strip()
                status = status or proc.returncode
                continue
            report = json.loads(part.read_text())
            part.unlink()
            print(render(report))
            status = status or proc.returncode
            slot = suite["workloads"].setdefault(name, {})
            slot["traced" if trace else "untraced"] = report
    if out is not None:
        out.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    return status


# ----------------------------------------------------------------------
# compare two suite reports
# ----------------------------------------------------------------------
def compare(path_a: Path, path_b: Path) -> int:
    """Apply BENCHMARK.json's bounds to B against A.  A metric whose
    pass-to-pass spread exceeds its bound is ``unresolved`` rather than
    unchanged, unless every pass of one side beats every pass of the other."""
    sys.path.insert(0, str(HERE))
    from e2e_trace import is_count

    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    bounds = {m["name"]: m for m in json.loads(MANIFEST.read_text())["end_to_end"]}
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    bad = 0
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name, {})
        if "untraced" not in wa or "untraced" not in wb:
            print(f"{name:<15} skipped in one of the reports")
            continue
        for metric, spec in bounds.items():
            ea, eb = wa["untraced"]["end_to_end"][metric], wb["untraced"]["end_to_end"][metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (eb["value"] - ea["value"]) / ea["value"]
            spread = max((e["max"] - e["min"]) / e["value"] for e in (ea, eb))
            separated = eb["max"] < ea["min"] or eb["min"] > ea["max"]
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                bad += 1
            elif spread > spec["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{name:<15} {metric:<18} A {ea['value']:>12.4f} B {eb['value']:>12.4f} "
                f"{spec['unit']:<4} worse by {worse:+.3f} (bound {spec['bound']}, "
                f"pass spread {spread:.3f}) {verdict}"
            )
        if not same_inputs:
            continue
        for key in ("alert_digest", "alerts", "decisions", "flows"):
            if wa["untraced"]["info"][key] != wb["untraced"]["info"][key]:
                print(f"{name:<15} {key} differs")
                bad += 1
        if "traced" in wa and "traced" in wb:
            la, lb = wa["traced"]["per_layer"], wb["traced"]["per_layer"]
            for metric in la:
                if is_count(metric) and la[metric]["value"] != lb[metric]["value"]:
                    print(f"{name:<15} {metric} differs: {la[metric]['value']} vs {lb[metric]['value']}")
                    bad += 1
    for report in (a, b):
        for name, slot in report["workloads"].items():
            for kind in ("untraced", "traced"):
                if kind in slot and not slot[kind]["correct"]:
                    print(f"{name:<15} {kind} run was not correct")
                    bad += 1
    print("compare:", "FAILED" if bad else "ok")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (contract mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tens of minutes per workload")
    parser.add_argument("--suite", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--out", type=Path, help="also write the full report as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    manifest = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else manifest["run_seconds"]
    if args.workload is None:
        if not (args.smoke or args.suite):
            parser.error("give --workload, --suite, --smoke or --compare")
        return run_suite(names, args.seed, seconds, args.smoke, args.out)

    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    # A terminated run unwinds like a failed one, through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    finally:
        stop_children()
    if args.out is not None:
        args.out.write_text(json.dumps(report, sort_keys=True) + "\n")
    print(render(report))
    print(contract_line(report))
    return 0 if report["correct"] and not report["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
