"""``benchmarks/pairs.py``: the alternating-pairs claim rule, on fake runs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(us: float, rate: float, correct: bool = True) -> dict:
    """A contract line: ``us`` in every lower-is-better metric, ``rate`` in the rest."""
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            m["name"]: {"value": us if m["better"] == "lower" else rate, "unit": m["unit"]}
            for m in manifest["end_to_end"]
        },
    }


SPECS = [
    {"name": "us_per_decision", "unit": "us", "better": "lower", "bound": 0.2},
    {"name": "served_min_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr(pairs):
    parent = [360.0 + i for i in range(10)]  # IQR 4.5
    clear = [{"parent": _run(p, 50.0), "change": _run(p - 40.0, 50.0)} for p in parent]
    lower, higher = pairs.summarise(clear, SPECS)
    assert "wins 10/10, ties 0" in lower and lower.endswith("gain yes")
    assert "wins 0/10, ties 10" in higher and higher.endswith("gain no")  # all ties

    eight = [dict(r) for r in clear]
    for r in eight[:2]:
        r["change"] = _run(r["parent"]["metrics"]["us_per_decision"]["value"] + 1.0, 50.0)
    assert "wins 8/10" in pairs.summarise(eight, SPECS)[0]
    assert pairs.summarise(eight, SPECS)[0].endswith("gain no")

    inside = [{"parent": _run(p, 50.0), "change": _run(p - 2.0, 55.0)} for p in parent]
    lower, higher = pairs.summarise(inside, SPECS)
    assert "wins 10/10" in lower and lower.endswith("gain no")  # 2.0 < IQR 4.5
    assert "wins 10/10" in higher and higher.endswith("gain yes")  # higher is better


def test_neutral_verdicts_are_worse_than_bound_unresolved_or_ok(pairs):
    parent = [360.0 + i for i in range(4)]  # median 361.5, IQR 1.5

    def verdicts(change_us, change_rate, parent_us=parent):
        runs = [
            {"parent": _run(p, 50.0), "change": _run(c, change_rate)}
            for p, c in zip(parent_us, change_us)
        ]
        return [line.split("; ")[-1] for line in pairs.summarise(runs, SPECS, neutral=True)]

    assert verdicts([p * 1.19 for p in parent], 50.0 / 1.19) == ["ok", "ok"]  # inside 20 %
    assert verdicts([p * 0.5 for p in parent], 500.0) == ["ok", "ok"]  # better is never worse
    assert verdicts([p * 1.21 for p in parent], 50.0) == ["worse than bound", "ok"]
    assert verdicts(parent, 39.0) == ["ok", "worse than bound"]  # higher is better
    noisy = [200.0, 300.0, 400.0, 500.0]  # IQR 150 of median 350: wider than the bound
    lower, higher = verdicts(noisy, 50.0, parent_us=noisy)
    assert lower.startswith("unresolved") and higher == "ok"
    assert verdicts([2 * p for p in noisy], 50.0, parent_us=noisy)[0] == "worse than bound"
    assert verdicts([150.0] * 4, 50.0, parent_us=noisy)[0] == "ok"  # every run beats every parent run


def test_neutral_runs_every_workload_and_fails_on_a_metric_past_its_bound(
    pairs, monkeypatch, capsys, tmp_path
):
    (tmp_path / pairs.RUNNER).parent.mkdir(parents=True)
    (tmp_path / pairs.RUNNER).touch()  # the parent "checkout"
    calls = []

    def fake_run_once(checkout, workload, seed, smoke=False):
        calls.append((workload, smoke))
        slow = workload == "carpet_durable" and checkout != tmp_path
        return _run(400.0 if slow else 300.0, 50.0)

    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    status = pairs.main(["--parent", str(tmp_path), "--neutral"])
    out = capsys.readouterr().out
    workloads = ["fleet_score", "flood_ingest", "carpet_durable", "fleet_process"]
    assert [w for w, smoke in calls if not smoke][::6] == workloads  # 3 pairs x 2 sides each
    assert status == 1
    assert "worse than bound" in out.split("# carpet_durable")[1].split("#")[0]
    assert "worse than bound" not in out.split("# fleet_process")[1].split("metric(s)")[0]


def test_an_incorrect_run_fails_the_command_and_sides_alternate(pairs, monkeypatch, capsys):
    calls = []

    def fake_run_once(checkout, workload, seed, smoke=False):
        calls.append((checkout.name, smoke))
        return _run(300.0, 50.0, correct=not (len(calls) == 5))

    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    assert pairs.main(["--parent", str(REPO_ROOT), "-n", "2"]) == 1
    out = capsys.readouterr().out
    assert "NOT CORRECT" in out and "1 run(s) reported correct: false" in out
    assert [smoke for _name, smoke in calls] == [True, True, False, False, False, False]
    assert "pair  1 (parent first)" in out and "pair  2 (change first)" in out


def test_trace_layers_adds_a_traced_run_per_side_and_stays_out_of_the_verdict(
    pairs, monkeypatch, capsys, tmp_path
):
    """``--trace-layers``: names are checked against ``BENCHMARK.json``, every
    pair gets one traced run per side after its untraced two (same
    alternation), the medians print under the end-to-end table, and the gain
    verdicts are what they are without the flag."""
    known = ["share.checkpoint", "serve.state.write_checkpoint.self_ms_per_min", "trace.coverage"]
    assert pairs.parse_layers(" share.checkpoint, trace.coverage ,", known) == [
        "share.checkpoint", "trace.coverage",
    ]
    for bad in ("", " , ", "share.checkpoint,share.checkpoint", "share.checkpoint,minute_ms_p95"):
        with pytest.raises(ValueError, match="per_layer names"):
            pairs.parse_layers(bad, known)

    calls = []

    def fake_run_once(checkout, workload, seed, smoke=False, trace=0):
        side = "parent" if checkout == tmp_path else "change"
        calls.append((side, smoke, trace))
        if not trace:
            return _run(300.0 if side == "parent" else 200.0, 50.0)
        nth = sum(c == (side, False, 1) for c in calls)  # this side's traced runs so far
        share = {"parent": [0.26, 0.30], "change": [0.13, 0.15]}[side][nth - 1]
        return {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {
                "share.checkpoint": {"value": share, "unit": "share"},
                "trace.coverage": {"value": 0.998, "unit": "share"},
            },
        }

    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    (tmp_path / pairs.RUNNER).parent.mkdir(parents=True)
    (tmp_path / pairs.RUNNER).touch()  # the parent "checkout"
    argv = ["--parent", str(tmp_path), "--workload", "carpet_durable", "-n", "2"]
    assert pairs.main([*argv, "--trace-layers", "share.checkpoint,trace.coverage"]) == 0
    out = capsys.readouterr().out
    assert [c for c in calls if not c[1]] == [
        ("parent", False, 0), ("change", False, 0), ("parent", False, 1), ("change", False, 1),
        ("change", False, 0), ("parent", False, 0), ("change", False, 1), ("parent", False, 1),
    ]
    table, layers = out.split("per-layer medians of 2 traced run(s) a side (no verdict):")
    assert "share.checkpoint" in layers and "0.50x" in layers  # medians 0.28 and 0.14
    assert "trace.coverage" in layers and "1.00x" in layers
    assert "share.checkpoint" not in table
    verdicts = [line for line in table.splitlines() if "; gain " in line]
    del calls[:]
    assert pairs.main(argv) == 0
    plain = capsys.readouterr().out
    assert [line for line in plain.splitlines() if "; gain " in line] == verdicts
    assert "per-layer" not in plain and all(trace == 0 for _side, _smoke, trace in calls)

    with pytest.raises(SystemExit):
        pairs.main([*argv, "--trace-layers", "share.nonsense"])
    assert "unknown: share.nonsense" in capsys.readouterr().err
