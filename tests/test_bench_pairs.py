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
