"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``census``   — generate a trace and print the §3 observational analyses.
``pipeline`` — run the full train/calibrate/detect pipeline and print the
               headline metrics.
``compare``  — four-system comparison (NetScout / FastNetMon / RF / Xatu)
               at one overhead bound.
``train``    — train a per-attack-type model registry and save it to disk.
``bench``    — the offline benches the end-to-end suite cannot see:
               training throughput (``--suite train``) and peak RSS at
               10k–1M customers (``--suite scale``), tracked via
               ``BENCH_<suite>.json`` (docs/PERFORMANCE.md); ``--check``
               compares against the committed baseline (host mismatches
               warn rather than fail).
``serve``    — run the sharded, checkpointable serving engine over a
               replayed deployment (``--shards``, ``--checkpoint-dir``,
               ``--restart-at``; see docs/SERVING.md).
``metrics``  — render a ``--telemetry`` JSON file (top-style table,
               Prometheus exposition, or raw JSON), or ``--selftest``
               the exporters.

``train``, ``pipeline``, and ``bench`` accept ``--telemetry <path>``:
the run executes with the ``repro.obs`` switch enabled and writes a
telemetry snapshot (metrics + span trace) there (docs/OBSERVABILITY.md).

Every command accepts ``--seed``, ``--days``, ``--customers``, and
``--epochs`` to size the run; defaults finish in well under a minute.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np


def _build_scenario(args):
    from .eval.presets import tiny_scenario

    if getattr(args, "config", None):
        from .synth import load_scenario_file

        return load_scenario_file(args.config)
    scenario = tiny_scenario(seed=args.seed)
    return replace(
        scenario,
        total_days=args.days,
        n_customers=args.customers,
    )


def _build_pipeline_config(args):
    from .eval.presets import bench_pipeline_config

    return bench_pipeline_config(
        seed=args.seed,
        overhead_bound=args.overhead_bound,
        scenario=_build_scenario(args),
        epochs=args.epochs,
    )


def cmd_census(args) -> int:
    from .eval import (
        prep_signal_census,
        render_table,
        split_table,
        transition_matrix,
    )
    from .synth import TraceGenerator

    trace = TraceGenerator(_build_scenario(args)).materialize()
    print(f"{len(trace.events)} attacks over {trace.horizon} minutes\n")

    census = prep_signal_census(trace)
    rows = [
        ["blocklisted", float(np.median([c.blocklisted_fraction for c in census]))],
        ["previous attackers", float(np.median([c.previous_attacker_fraction for c in census]))],
        ["spoofed", float(np.median([c.spoofed_fraction for c in census]))],
    ]
    print(render_table(["signal", "median attacker fraction"], rows,
                       title="Attack preparation signals (Fig 4a)"))

    matrix, types, pairs = transition_matrix(trace)
    print(f"\n{pairs} consecutive pairs; same-type share per active type:")
    for i, t in enumerate(types):
        if matrix[i].sum() > 0:
            print(f"  {t.value:<18} {matrix[i, i]:.0%}")

    table = split_table(trace)
    print()
    print(render_table(
        ["type", "train", "val", "test"],
        [[k, v["train"], v["val"], v["test"]] for k, v in table.items() if sum(v.values())],
        title="Attack counts per split (Table 2)",
    ))
    return 0


def _write_cli_telemetry(path: str) -> None:
    """Snapshot the global obs registry + tracer into one JSON file."""
    from .obs import get_registry, get_tracer, write_telemetry

    out = write_telemetry(path, get_registry().snapshot(), get_tracer().snapshot())
    print(f"wrote telemetry to {out}")


def _lossy_export(trace, stop: int):
    """Yield ``(minute, datagrams)`` for ``trace`` minutes ``[0, stop)``.

    One exporter's view of the trace: 30-record v5-style datagrams from a
    single codec (so flow sequence numbers run on across an engine
    restart), every 17th dropped after encoding — deterministic export
    loss, so the collector's gap accounting has something to count.
    """
    from .netflow import DatagramCodec
    from .synth import as_trace_source

    codec = DatagramCodec(engine_id=1)
    sent = 0
    for sl in as_trace_source(trace).iter_minutes(0, stop):
        arrived = []
        for lo in range(0, len(sl.batch), 30):
            blob = codec.encode(sl.batch[lo : lo + 30], unix_secs=sl.minute * 60)
            sent += 1
            if sent % 17:
                arrived.append(blob)
        yield sl.minute, arrived


def _replay_online_minutes(pipeline, minutes: int = 10) -> None:
    """Feed-health replay for the telemetry snapshot.

    Streams the first ``minutes`` of the pipeline's trace
    (:func:`_lossy_export`) into a cold :class:`~repro.core.OnlineXatu`
    built from the trained artefacts — populating the ``online.*`` and
    ``netflow.*`` series alongside the ``train.*`` ones.  The head, not the
    tail: the trace re-streams its generator, which simulates every minute
    before the ones it yields.
    """
    from .netflow import FlowCollector
    from .scenarios.matrix import TrainedArtifacts

    model = pipeline._trained_model
    scaler = pipeline._trained_scaler
    threshold = pipeline._calibrated_threshold
    if model is None or threshold is None:
        registry = getattr(pipeline, "registry", None)
        if registry is None:
            return
        entry = registry.entry_for(None)
        model, scaler, threshold = entry.model, entry.scaler, entry.threshold
    trace = pipeline.trace
    online = TrainedArtifacts(
        model_config=model.config,
        model_state=model.state_dict(),
        scaler=scaler,
        threshold=threshold,
        train_seed=pipeline.config.seed,
        epochs=pipeline.config.train.epochs,
    ).make_online(
        trace, {c.address: c.customer_id for c in trace.world.customers}
    )
    collector = FlowCollector()
    minutes = min(minutes, trace.horizon)
    alerts = 0
    for minute, datagrams in _lossy_export(trace, minutes):
        for blob in datagrams:
            collector.ingest_datagram_batch(blob)
        alerts += len(online.step(minute, collector.drain_batch()))
    health = collector.feed_health()
    print(f"online replay    {minutes} minutes, "
          f"{health.records_received} records "
          f"({health.records_lost} lost, {health.loss_rate:.1%}), "
          f"{alerts} alerts")


def _telemetry_context(telemetry_path):
    """The obs switch for a CLI run: ``telemetry()`` when a snapshot was
    requested (restores the previous switch state even on a raising run,
    so the process-global flag never leaks), else a no-op."""
    from contextlib import nullcontext

    if not telemetry_path:
        return nullcontext()
    from .obs import telemetry

    return telemetry()


def cmd_pipeline(args) -> int:
    from .core import XatuPipeline

    telemetry_path = getattr(args, "telemetry", None)
    with _telemetry_context(telemetry_path):
        pipeline = XatuPipeline(_build_pipeline_config(args))
        result = pipeline.run()
        print(f"threshold        {result.calibration.threshold:.3g}")
        print(f"effectiveness    median {result.effectiveness.median:.1%} "
              f"(p10 {result.effectiveness.low:.1%}, p90 {result.effectiveness.high:.1%})")
        print(f"detection delay  median {result.delay.median:+.1f} min")
        print(f"overhead         p75 {result.overhead.high:.2%} "
              f"(bound {args.overhead_bound:.2%})")
        print(f"alerts           {len(result.detection.alerts)} "
              f"({sum(1 for a in result.detection.alerts if a.event_id >= 0)} matched)")
        if telemetry_path:
            _replay_online_minutes(pipeline)
            _write_cli_telemetry(telemetry_path)
    return 0


def cmd_compare(args) -> int:
    from .eval import HeadlineExperiment, render_table

    experiment = HeadlineExperiment(_build_pipeline_config(args))
    rows = experiment.sweep([args.overhead_bound])
    print(render_table(
        ["system", "eff median", "delay median", "overhead p75"],
        [[m.system, m.effectiveness_median, m.delay_median, m.overhead_p75] for m in rows],
        title=f"Comparison at overhead bound {args.overhead_bound:.2%}",
    ))
    return 0


def cmd_train(args) -> int:
    from .scenarios.matrix import _train_registry
    from .synth import TraceGenerator

    telemetry_path = getattr(args, "telemetry", None)
    with _telemetry_context(telemetry_path):
        trace = TraceGenerator(_build_scenario(args)).materialize()
        registry, _cdet_alerts = _train_registry(trace, args.epochs)
        entries = registry.entries
        registry.save(args.out)
        print(f"saved {len(entries)} models to {args.out}:")
        for key, entry in entries.items():
            losses = entry.train_result.train_losses if entry.train_result else []
            trend = f"{losses[0]:.3f}->{losses[-1]:.3f}" if losses else "n/a"
            print(f"  {key:<18} events={entry.n_train_events:<4} loss {trend}")
        if telemetry_path:
            _write_cli_telemetry(telemetry_path)
    return 0


def cmd_evasion(args) -> int:
    """§8 limitation check: normal vs fully-evasive attackers."""
    from dataclasses import replace as dc_replace

    from .core import XatuPipeline
    from .eval import render_table

    base = _build_pipeline_config(args)
    evasive = dc_replace(
        base,
        scenario=dc_replace(
            base.scenario, fresh_sources=True, skip_preparation=True
        ),
    )
    rows = []
    for name, config in (("normal", base), ("evasive (§8)", evasive)):
        result = XatuPipeline(config).run()
        rows.append([
            name, result.effectiveness.median, result.delay.median,
            result.overhead.high,
        ])
    print(render_table(
        ["attackers", "eff median", "delay median", "overhead p75"],
        rows, title="§8 limitation: evasive attackers minimize auxiliary signals",
    ))
    return 0


def cmd_golden(args) -> int:
    """Record or check the differential-correctness golden fixture."""
    from .testing import GoldenSpec, check_golden, record_golden

    if args.action == "record":
        spec = GoldenSpec(seed=args.seed, epochs=args.epochs)
        path = record_golden(args.path, spec)
        print(f"recorded golden fixture at {path} (seed {spec.seed}, "
              f"{spec.epochs} epochs)")
        return 0
    report = check_golden(args.path)
    print(report.render())
    return 0 if report.ok else 1


def cmd_scenarios(args) -> int:
    """Run/check the adversarial+drift scenario matrix (SCENARIOS.json)."""
    from pathlib import Path

    from .scenarios import (
        CI_SCENARIOS,
        DETECTOR_LANES,
        MatrixConfig,
        all_specs,
        budget_failures,
        compare_reports,
        load_report,
        render_report,
        run_matrix,
        write_report,
    )

    if args.action == "list":
        for spec in all_specs():
            marker = "ci" if spec.name in CI_SCENARIOS else "  "
            mode = "attacks" if spec.expect_alerts else "attack-free"
            print(f"{marker} {spec.name:<22} {spec.family:<12} [{mode}]")
            print(f"     {spec.description}")
        return 0

    if args.only and args.band:
        print("pass either --only or --band, not both")
        return 2
    if args.only:
        names = list(args.only)
    elif args.band:
        names = [spec.name for spec in all_specs() if spec.family == args.band]
        if not names:
            print(f"no scenarios in band {args.band!r}")
            return 2
    elif args.ci:
        names = list(CI_SCENARIOS)
    else:
        names = None  # the full catalogue
    config = MatrixConfig(
        detectors=tuple(args.detectors) if args.detectors else DETECTOR_LANES,
        epochs=args.epochs,
        train_seed=args.train_seed,
        serve_shards=args.shards,
    )
    report = run_matrix(
        names, config, progress=lambda message: print(f"  {message}", flush=True)
    )
    print(render_report(report))
    if args.report_out:
        # A side copy of the fresh report (e.g. as a CI artifact),
        # independent of whether this invocation may touch the baseline.
        import json as _json

        Path(args.report_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report_out).write_text(
            _json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"fresh report saved to {args.report_out}")

    if args.action == "check":
        # Compare-only mode: never overwrite the committed baseline.  The
        # CI subset gates only the (scenario, lane) pairs it actually ran.
        baseline_path = Path(args.out) / "SCENARIOS.json"
        if not baseline_path.exists():
            print(f"\nno baseline at {baseline_path}; nothing to check against")
            return 2
        warnings, failures = compare_reports(report, load_report(baseline_path))
        for message in warnings:
            print(f"warning: {message}")
        for message in failures:
            print(f"REGRESSION: {message}")
        if failures:
            return 1
        print(f"\ncheck against {baseline_path}: OK ({len(warnings)} warning(s))")
        return 0

    failures = budget_failures(report)
    for message in failures:
        print(f"BUDGET: {message}")
    out = write_report(report, args.out)
    print(f"\nwrote {out}")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    """Run one offline bench suite, then ``--check`` it or write BENCH_<suite>.json."""
    from pathlib import Path

    from .bench import SUITES, compare, gates, load_bench_json, write_bench_json

    suite_cases, run, render = SUITES[args.suite]
    cases = tuple(args.only) if args.only else None
    unknown = [c for c in cases or () if c not in suite_cases]
    if unknown:
        print(f"unknown {args.suite} case(s): {', '.join(unknown)}; "
              f"choose from {', '.join(suite_cases)}")
        return 2
    with _telemetry_context(args.telemetry):
        payload = run(smoke=args.smoke, cases=cases)
        if args.telemetry:
            _write_cli_telemetry(args.telemetry)
    print(render(payload))
    failures = gates(payload)
    for message in failures:
        print(f"GATE: {message}")
    baseline_path = Path(args.out) / f"BENCH_{args.suite}.json"
    if not args.check:
        print(f"\nwrote {write_bench_json(payload, args.out)}")
    elif not baseline_path.exists():
        print(f"\nno baseline at {baseline_path}; nothing to check against")
    else:
        warnings, regressions = compare(payload, load_bench_json(baseline_path))
        for message in warnings:
            print(f"warning: {message}")
        for message in regressions:
            print(f"REGRESSION: {message}")
        failures += regressions
        if not failures:
            print(f"\ncheck against {baseline_path}: OK "
                  f"({len(warnings)} warning(s))")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Run the sharded serving engine over a replayed synthetic deployment.

    Quick-trains a model registry on the scenario (or loads one from
    ``--models``), then streams the trace through the datagram codec into
    a :class:`~repro.serve.ServeEngine` — periodic checkpoints, optional
    induced restart (``--restart-at``), incumbent alerts broadcast to all
    shards, and a merged ordered alert stream (``--alerts-out``).
    """
    import json
    import time as time_mod

    from .core import XatuModelRegistry, alerts_to_records
    from .scenarios.matrix import TrainedArtifacts, _train_registry
    from .serve import ServeConfig, ServeEngine
    from .synth import TraceGenerator

    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if args.backend == "process" and not any(os.environ.get(v) for v in pins):
        # Measured (docs/SERVING.md): unpinned, forked shards lose to inline;
        # pinned, the fan-out still costs a fixed ~1.2 ms a minute.
        print("serve: warning: --backend process with none of " + "/".join(pins)
              + " set — every shard's BLAS pool competes for the same cores; "
              "export OPENBLAS_NUM_THREADS=1 before starting, and below ~5 "
              "watched customers per shard prefer --backend inline: the "
              "fan-out's fixed ~1.2 ms a minute outweighs what it overlaps "
              "(docs/SERVING.md)",
              file=sys.stderr)
    if args.checkpoint_dir is None and (
        args.restart_at is not None or args.checkpoint_every
    ):
        print("serve: --restart-at and --checkpoint-every require --checkpoint-dir")
        return 2
    config = ServeConfig(
        shards=args.shards,
        backend=args.backend,
        transport=args.transport,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        inference_dtype=args.inference_dtype,
    )

    telemetry_path = getattr(args, "telemetry", None)
    with _telemetry_context(telemetry_path):
        trace = TraceGenerator(_build_scenario(args)).materialize()
        if args.models:
            from .detect import NetScoutDetector

            registry = XatuModelRegistry.load(args.models)
            cdet_alerts = [
                a for a in NetScoutDetector().detect(trace) if a.event_id >= 0
            ]
        else:
            registry, cdet_alerts = _train_registry(trace, args.epochs)
        entry = registry.entry_for(None)
        # make_online gives every shard its own model object (same
        # weights), so process shards never share mutable nn state.
        artifacts = TrainedArtifacts(
            model_config=entry.model.config,
            model_state=entry.model.state_dict(),
            scaler=entry.scaler,
            threshold=args.threshold if args.threshold is not None else entry.threshold,
            train_seed=args.seed,
            epochs=args.epochs,
        )
        customer_of = {c.address: c.customer_id for c in trace.world.customers}

        def factory(partition):
            return artifacts.make_online(trace, partition)

        horizon = trace.horizon if args.minutes is None else min(
            args.minutes, trace.horizon
        )
        by_detect: dict[int, list] = {}
        by_end: dict[int, list] = {}
        for record in alerts_to_records(trace, cdet_alerts):
            by_detect.setdefault(record.detect_minute, []).append(record)
            by_end.setdefault(record.end_minute, []).append(record.customer_id)

        engine = ServeEngine(factory, customer_of, config)
        merged = []
        start_wall = time_mod.perf_counter()
        for minute, datagrams in _lossy_export(trace, horizon):
            for blob in datagrams:
                engine.ingest_datagram(blob)
            for record in by_detect.get(minute, []):
                engine.ingest_cdet_alert(record)
            for customer_id in by_end.get(minute, []):
                engine.ingest_mitigation_end(customer_id, minute)
            engine.tick(minute)
            merged.extend(engine.poll_alerts())
            if args.restart_at is not None and minute == args.restart_at:
                engine.checkpoint()
                engine.close()
                print(f"induced restart at minute {minute}: "
                      f"rebuilding engine from checkpoint")
                engine = ServeEngine(factory, customer_of, config)
                restored = engine.restore()
                print(f"restored minute {restored}")
        elapsed = time_mod.perf_counter() - start_wall
        if args.checkpoint_dir:
            final = engine.checkpoint()
            print(f"final checkpoint  {final}")
        stats = engine.stats()
        health = engine.feed_health()
        engine.close()

        if args.alerts_out:
            lines = [
                json.dumps(
                    {"minute": a.minute, "customer": a.customer_id,
                     "survival": a.survival},
                    sort_keys=True,
                )
                for a in merged
            ]
            from pathlib import Path

            Path(args.alerts_out).write_text("\n".join(lines) + "\n")
            print(f"wrote {len(merged)} alerts to {args.alerts_out}")
        print(f"served            {horizon} minutes on {args.shards} shard(s) "
              f"[{args.backend}] in {elapsed:.2f}s "
              f"({horizon / elapsed:.1f} min/s)")
        print(f"alerts            {len(merged)} merged")
        print(f"feed health       {health.records_received} records, "
              f"{health.records_lost} lost ({health.loss_rate:.1%}), "
              f"{stats['degraded_minutes']} degraded minute(s)")
        print(f"checkpoints       {stats['checkpoints_written']}")
        if telemetry_path:
            _write_cli_telemetry(telemetry_path)
    return 0


def cmd_metrics(args) -> int:
    """Render a telemetry JSON file, or --selftest the exporters."""
    if args.selftest:
        from .obs import selftest

        problems = selftest()
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        print("obs exporters selftest: OK")
        if not args.path:
            return 0
    if not args.path:
        print("metrics: provide a telemetry JSON path (or --selftest)")
        return 2
    from .obs import load_telemetry, render_top, snapshot_from_json, to_prometheus
    from .obs.tracing import SpanNode

    payload = load_telemetry(args.path)
    snapshot = snapshot_from_json(payload)
    tree = SpanNode.from_json(payload["trace"]) if payload.get("trace") else None
    if args.format == "prom":
        print(to_prometheus(snapshot), end="")
    elif args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(render_top(snapshot, tree, payload.get("host")))
    return 0


def cmd_report(args) -> int:
    from .eval import build_report

    report = build_report(_build_scenario(args))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"wrote {len(report)} chars to {args.out}")
    else:
        print(report)
    return 0


def cmd_lint(args) -> int:
    """Run xatulint (repro.analysis) over the tree and gate on findings.

    One pass: every file is parsed once and every rule runs, the per-file
    XL rules and the project-wide XF002 alike.

    Exit codes: 0 clean (baselined findings don't count), 1 when the gate
    fails — any new finding or stale baseline entry under ``--strict``,
    new *error*-severity findings otherwise — and 2 on usage errors.
    """
    import json
    from pathlib import Path

    from .analysis.baseline import Baseline
    from .analysis.framework import (
        Severity,
        all_rules,
        analyze_paths,
        iter_python_files,
        relative_path,
    )

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.severity:<7}  {rule.name}")
            if rule.description:
                print(f"       {rule.description}")
        return 0

    root = Path.cwd()
    findings = analyze_paths(args.paths, root=root, rules=rules)
    inventory = [rule.id for rule in rules]
    # Baseline entries are judged only for files this run read: linting
    # a subtree neither flags nor drops the entries of the rest.
    scope = {relative_path(p, root) for p in iter_python_files(args.paths, root)}

    baseline_path = root / args.baseline
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    if args.write_baseline:
        written = Baseline.from_findings(findings, previous=baseline, scope=scope)
        written.save(baseline_path, rules=inventory)
        print(f"wrote {len(written)} entr{'y' if len(written) == 1 else 'ies'} "
              f"to {baseline_path}")
        print("edit the file and replace every placeholder reason before "
              "committing")
        return 0

    if not args.no_baseline:
        for warning in baseline.stamp_warnings(inventory):
            print(f"lint: warning: {warning}", file=sys.stderr)
    new, suppressed = baseline.partition(findings)
    stale = baseline.unused_entries(findings, scope=scope)

    if args.format == "json":
        payload = {
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                    "fix_hint": f.fix_hint,
                }
                for f in new
            ],
            "baselined": len(suppressed),
            "stale_baseline_entries": [e.to_json() for e in stale],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.render())
        for entry in stale:
            print(f"{entry.path}: stale baseline entry {entry.rule} "
                  f"({entry.line_text!r}) — the finding is gone; delete it")
        counts = f"{len(new)} new finding(s), {len(suppressed)} baselined"
        if stale:
            counts += f", {len(stale)} stale baseline entr" + (
                "y" if len(stale) == 1 else "ies")
        print(f"lint: {counts}")

    if args.strict:
        return 1 if (new or stale) else 0
    errors = [f for f in new if f.severity == Severity.ERROR]
    return 1 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Xatu (CoNEXT 2022) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, extra in (
        ("census", cmd_census, []),
        ("pipeline", cmd_pipeline, ["bound"]),
        ("compare", cmd_compare, ["bound"]),
        ("train", cmd_train, ["out"]),
        ("report", cmd_report, ["report_out"]),
        ("evasion", cmd_evasion, ["bound"]),
    ):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=3)
        p.add_argument("--config", default=None,
                       help="JSON scenario config file (overrides size flags)")
        p.add_argument("--days", type=float, default=16.0,
                       help="compressed days (120 minutes each)")
        p.add_argument("--customers", type=int, default=8)
        p.add_argument("--epochs", type=int, default=5)
        if "bound" in extra or name in ("pipeline", "compare"):
            p.add_argument("--overhead-bound", type=float, default=0.1)
        else:
            p.set_defaults(overhead_bound=0.1)
        if "out" in extra:
            p.add_argument("--out", default="xatu_models")
        if "report_out" in extra:
            p.add_argument("--out", default=None,
                           help="write the markdown report here (default: stdout)")
        if name in ("pipeline", "train"):
            p.add_argument("--telemetry", default=None, metavar="PATH",
                           help="enable repro.obs and write the telemetry "
                           "snapshot (metrics + span trace) to this JSON file")
        p.set_defaults(func=func)

    golden = sub.add_parser(
        "golden",
        help="record/check the differential-correctness golden fixture",
        description="Golden end-to-end traces: `record` freezes a "
        "deterministic training/detection run to disk; `check` re-runs it "
        "against the current code and diffs every array (see docs/TESTING.md).",
    )
    golden.add_argument("action", choices=["record", "check"])
    golden.add_argument("--path", default="tests/fixtures/golden",
                        help="fixture directory (manifest.json + arrays.npz)")
    golden.add_argument("--seed", type=int, default=7,
                        help="recipe seed (record only)")
    golden.add_argument("--epochs", type=int, default=2,
                        help="training epochs in the recipe (record only)")
    golden.set_defaults(func=cmd_golden)

    bench = sub.add_parser(
        "bench",
        help="the offline benches: training throughput and peak RSS at scale",
        description="Offline benches for what the end-to-end suite "
        "(BENCHMARK.json) never runs: 'train' times an LSTM training step, "
        "pooling and a training epoch, each fused vs the pre-fusion tape, "
        "plus the telemetry overhead of an epoch; 'scale' streams seeded "
        "compressed days at 10k/100k/1M customers and gates peak RSS.  "
        "Results go to BENCH_<suite>.json (see docs/PERFORMANCE.md).",
    )
    bench.add_argument("--suite", choices=("train", "scale"), default="train",
                       help="benchmark suite (default: train)")
    bench.add_argument("--smoke", action="store_true",
                       help="CI mode: tiny sizes and 1 rep (train), the "
                       "10k/100k cells at 30 minutes (scale)")
    bench.add_argument("--out", default="benchmarks/results",
                       help="directory for the result JSON")
    bench.add_argument("--only", nargs="*", default=None,
                       help="subset of cases (train) or cells (scale) to run")
    bench.add_argument("--check", action="store_true",
                       help="compare against the committed BENCH_<suite>.json "
                       "instead of overwriting it; host mismatches and smoke "
                       "runs demote regressions to warnings")
    bench.add_argument("--telemetry", default=None, metavar="PATH",
                       help="enable repro.obs during the run and write the "
                       "telemetry snapshot to this JSON file")
    bench.set_defaults(func=cmd_bench)

    scenarios = sub.add_parser(
        "scenarios",
        help="run the adversarial/drift scenario matrix or check regressions",
        description="Scenario matrix: paper attack types, adversarial "
        "families (carpet bombing, pulse waves, multi-vector, adaptive "
        "prep), and benign-drift stressors, each driven through the CDet "
        "simulators, the online Xatu detector, and the sharded serving "
        "lane.  `run` writes the versioned SCENARIOS.json report; `check` "
        "compares a fresh run against the committed baseline; `list` "
        "prints the catalogue (see docs/TESTING.md).",
    )
    scenarios.add_argument("action", choices=["run", "check", "list"])
    scenarios.add_argument("--only", nargs="*", default=None,
                           help="subset of scenarios to run")
    scenarios.add_argument("--band", default=None,
                           choices=("paper", "adversarial", "drift", "scale"),
                           help="run every scenario of one family (e.g. "
                           "--band scale for the large-universe cells)")
    scenarios.add_argument("--ci", action="store_true",
                           help="the reduced deterministic CI subset")
    scenarios.add_argument("--detectors", nargs="*", default=None,
                           help="detector lanes (default: all four)")
    scenarios.add_argument("--epochs", type=int, default=3,
                           help="training epochs for the shared artifacts")
    scenarios.add_argument("--train-seed", type=int, default=42,
                           help="seed of the shared training scenario")
    scenarios.add_argument("--shards", type=int, default=2,
                           help="shard count for the xatu_serve lane")
    scenarios.add_argument("--out", default="benchmarks/results",
                           help="directory holding SCENARIOS.json")
    scenarios.add_argument("--report-out", default=None, metavar="PATH",
                           help="also save the fresh report JSON here "
                           "(never touches the baseline; for CI artifacts)")
    scenarios.set_defaults(func=cmd_scenarios)

    serve = sub.add_parser(
        "serve",
        help="run the sharded, checkpointable serving engine over a replay",
        description="Streaming deployment: shard the customer universe, "
        "feed minute batches through the flow collector, merge per-shard "
        "alerts into one ordered stream, checkpoint/restore the full "
        "online state (see docs/SERVING.md).",
    )
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument("--config", default=None,
                       help="JSON scenario config file (overrides size flags)")
    serve.add_argument("--days", type=float, default=4.0,
                       help="compressed days (120 minutes each; must exceed "
                       "the scenario's 2 prep days)")
    serve.add_argument("--customers", type=int, default=8)
    serve.add_argument("--epochs", type=int, default=2,
                       help="quick-training epochs when no --models given")
    serve.add_argument("--shards", type=int, default=1,
                       help="worker shards (customer_id %% shards)")
    serve.add_argument("--backend", choices=["inline", "process"],
                       default="inline", help="shard execution backend")
    serve.add_argument("--transport", choices=["shm", "pipe"], default="shm",
                       help="process-backend payload transport: shared-memory "
                       "rings (default; falls back to pipe when unavailable) "
                       "or pickled pipe messages — byte-identical outputs "
                       "either way")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory for versioned state checkpoints")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="snapshot every N minutes (0 disables periodic)")
    serve.add_argument("--restart-at", type=int, default=None, metavar="MINUTE",
                       help="induce a kill+restore at this minute "
                       "(requires --checkpoint-dir)")
    serve.add_argument("--inference-dtype", choices=["float32", "float64"],
                       default=None,
                       help="reduced-precision inference policy for the "
                       "shard detectors (default: full float64)")
    serve.add_argument("--minutes", type=int, default=None,
                       help="serve only the first N minutes of the trace")
    serve.add_argument("--threshold", type=float, default=None,
                       help="override the calibrated survival threshold")
    serve.add_argument("--models", default=None,
                       help="load a saved model registry instead of training")
    serve.add_argument("--alerts-out", default=None, metavar="PATH",
                       help="write the merged alert stream as JSON lines")
    serve.add_argument("--telemetry", default=None, metavar="PATH",
                       help="enable repro.obs during the run and write the "
                       "telemetry snapshot to this JSON file")
    serve.set_defaults(func=cmd_serve)

    metrics = sub.add_parser(
        "metrics",
        help="render a --telemetry JSON file or selftest the exporters",
        description="Telemetry viewer: top-style console table (default), "
        "Prometheus text exposition, or raw JSON.  --selftest exercises "
        "every exporter on a synthetic registry (see docs/OBSERVABILITY.md).",
    )
    metrics.add_argument("path", nargs="?", default=None,
                         help="telemetry JSON written by --telemetry")
    metrics.add_argument("--format", choices=["top", "prom", "json"],
                         default="top", help="output rendering")
    metrics.add_argument("--selftest", action="store_true",
                         help="check the exporters and exit")
    metrics.set_defaults(func=cmd_metrics)

    lint = sub.add_parser(
        "lint",
        help="run xatulint (domain-aware static analysis) over the tree",
        description="One pass of per-file and interprocedural rules for "
        "the bugs no runtime gate catches: global-switch leaks, bare "
        "excepts, seed streams shared by two owners (see "
        "docs/ANALYSIS.md).  "
        "Known-intentional findings live in lint-baseline.json with "
        "written reasons; the gate fails only on new ones.",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--strict", action="store_true",
                      help="fail on any new finding or stale baseline "
                      "entry, regardless of severity (the CI gate)")
    lint.add_argument("--baseline", default="lint-baseline.json",
                      help="baseline suppression file (repo-relative)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline to cover current findings "
                      "(keeps existing reasons and every entry for a file "
                      "outside the linted paths; new entries get a TODO)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="report rendering")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
