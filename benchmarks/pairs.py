#!/usr/bin/env python3
"""Alternating parent/change pairs of one e2e workload (choosing-metrics §8).

    python3 benchmarks/pairs.py --parent ../parent-checkout --workload fleet_score -n 10

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once
in the parent checkout and once in this one, in its own process, alternating
which side goes first.  Per end-to-end metric it prints each side's median
and quartiles, wins/ties, and whether a gain may be claimed: the change wins
at least nine tenths of the pairs (ties count for neither side) *and* the
medians differ, in the metric's better direction, by more than the distance
between the parent's quartiles.  Every run is listed, and written to
``--out`` when given.  Exits non-zero if any run reports ``correct: false``.

    python3 benchmarks/pairs.py --parent ../parent-checkout --neutral

is the procedure for a change that claims *no* gain: every ``BENCHMARK.json``
workload (3 pairs each unless ``-n``), and per metric a verdict instead of
the gain rule — ``worse than bound`` (the change's median is worse than the
parent's by more than the metric's bound; also exits non-zero), else
``unresolved`` (the parent's own quartiles are further apart than the bound,
and not every run of the change beat every run of the parent: these runs
cannot tell), else ``ok``.

``--trace-layers share.checkpoint,serve.state.write_checkpoint.self_ms_per_min``
adds one *traced* run per side to every pair (after the untraced two, same
alternation) and prints each named per-layer metric's median per side under
the end-to-end table: where a claimed saving sits (choosing-metrics §6.6).
Layer numbers come from traced runs and never enter a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def run_once(
    checkout: Path, workload: str, seed: int, smoke: bool = False, trace: int = 0
) -> dict:
    """One contract run in ``checkout``; the last stdout line is its result."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace)]
    proc = subprocess.run(
        cmd + ["--smoke"] * smoke, cwd=checkout, capture_output=True, text=True
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{checkout}: {' '.join(cmd)} printed no result (exit {proc.returncode})\n{proc.stderr}"
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs: list[dict], specs: list[dict], neutral: bool = False) -> list[str]:
    """One line per metric, ending in the gain rule's answer — or, with
    ``neutral``, in ``ok`` / ``worse than bound`` / ``unresolved``."""
    lines = []
    for spec in specs:
        name = spec["name"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gap = sign * (pm - cm)  # > 0: the change's median is better
        iqr = p3 - p1
        decided = len(runs) - ties
        clean_sweep = max(sign * c for c in change) < min(sign * p for p in parent)
        if not neutral:
            gain = decided > 0 and wins >= 0.9 * decided and gap > iqr
            verdict = f"wins {wins}/{len(runs)}, ties {ties}; parent IQR {iqr:.3f} "
            verdict += f"{'<' if gap > iqr else '>='} gap; gain {'yes' if gain else 'no'}"
        elif -gap > spec["bound"] * pm:
            verdict = "worse than bound"
        elif iqr > spec["bound"] * pm and not clean_sweep:
            verdict = f"unresolved (parent IQR {iqr / pm:.1%} of its median)"
        else:
            verdict = "ok"
        lines.append(
            f"{name:<18} parent {pm:>11.3f} [{p1:.3f}, {p3:.3f}]  "
            f"change {cm:>11.3f} [{c1:.3f}, {c3:.3f}] {spec['unit']:<4} "
            f"change better by {gap / pm:+.1%} (bound {spec['bound']:.0%}); {verdict}"
        )
    return lines


def parse_layers(text: str, known: list[str]) -> list[str]:
    """``--trace-layers``: comma-separated ``BENCHMARK.json`` per-layer names."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if not names or unknown or len(set(names)) != len(names):
        raise ValueError(
            f"--trace-layers wants distinct per_layer names from BENCHMARK.json; "
            f"got {text!r}" + (f" (unknown: {', '.join(unknown)})" if unknown else "")
        )
    return names


def layer_lines(runs: list[dict], names: list[str]) -> list[str]:
    """Per named layer metric, each side's median over the pairs' traced runs."""
    lines = [f"per-layer medians of {len(runs)} traced run(s) a side (no verdict):"]
    for name in names:
        parent, change = (
            statistics.median(r["traced"][side]["metrics"][name]["value"] for r in runs)
            for side in ("parent", "change")
        )
        ratio = f"{change / parent:.2f}x" if parent else "-"
        unit = runs[0]["traced"]["parent"]["metrics"][name]["unit"]
        lines.append(f"{name:<52} parent {parent:>12.4f}  change {change:>12.4f} {unit:<6} {ratio}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", default="fleet_score")
    parser.add_argument("--neutral", action="store_true", help="every workload, verdicts against the bounds")
    parser.add_argument("-n", "--pairs", type=int, help="pairs per workload (default 10; 3 with --neutral)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, help="also write every run as JSON")
    parser.add_argument("--trace-layers", help="comma-separated per-layer metrics: adds a traced run per side per pair")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": REPO_ROOT}
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]] if args.neutral else [args.workload]
    pairs = args.pairs or (3 if args.neutral else 10)
    layers: list[str] = []
    if args.trace_layers is not None:
        try:
            layers = parse_layers(args.trace_layers, [m["name"] for m in manifest["per_layer"]])
        except ValueError as exc:
            parser.error(str(exc))
    for side, checkout in sides.items():
        if not (checkout / RUNNER).is_file():
            parser.error(f"{side}: {checkout / RUNNER} not found")
        # Untimed: trains and caches the artifacts of a tree that has none
        # (a run that trains in-process reads ~2x the warm peak RSS).
        run_once(checkout, workloads[0], args.seed, smoke=True)

    runs: dict[str, list[dict]] = {}
    summary: list[str] = []
    for workload in workloads:
        runs[workload] = []
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            result = {side: run_once(sides[side], workload, args.seed) for side in order}
            if layers:
                result["traced"] = {
                    side: run_once(sides[side], workload, args.seed, trace=1) for side in order
                }
            runs[workload].append(result)
            print(
                f"{workload} pair {pair + 1:>2} ({order[0]} first)  "
                + "  ".join(
                    f"{side} {result[side]['metrics']['us_per_decision']['value']:.1f} us/decision"
                    f"{'' if result[side]['correct'] else ' NOT CORRECT'}"
                    for side in ("parent", "change")
                ),
                flush=True,
            )
        summary.append(f"# {workload}  seed={args.seed}  pairs={pairs}")
        summary += summarise(runs[workload], manifest["end_to_end"], args.neutral)
        if layers:
            summary += layer_lines(runs[workload], layers)
    print("\n".join(summary))
    if args.out is not None:
        args.out.write_text(json.dumps({"seed": args.seed, "runs": runs}, indent=1) + "\n")
    incorrect = sum(
        not run["correct"] or run["failed"] > 0
        for results in runs.values()
        for result in results
        for run in (result["parent"], result["change"], *result.get("traced", {}).values())
    )
    if incorrect:
        print(f"{incorrect} run(s) reported correct: false or failed minutes")
    worse = sum(line.endswith("worse than bound") for line in summary)
    if worse:
        print(f"{worse} metric(s) worse than bound")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
