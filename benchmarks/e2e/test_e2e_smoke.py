"""Smoke test of the end-to-end benchmark (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Every workload
runs in its own subprocess at smoke size, twice, so the whole module takes
about two minutes.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
INLINE = ("fleet_score", "flood_ingest", "carpet_durable")


def _load(module: str):
    """Import a sibling module of the runner (they are not a package)."""
    sys.path.insert(0, str(HERE))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(HERE))


def _smoke(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / f"smoke-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _smoke(tmp, "a"), _smoke(tmp, "b")


def _reports(suite: dict):
    for name, slot in suite["workloads"].items():
        if "skipped" in slot:  # fleet_process on a single-CPU host
            assert name == "fleet_process", slot["skipped"]
            continue
        yield name, slot["untraced"], slot["traced"]


def test_manifest_names_every_workload_and_no_other():
    workloads = _load("e2e_workloads").WORKLOADS
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def test_every_named_metric_is_present_with_unit_and_finite(smoke_runs):
    suite, _ = smoke_runs
    for name, untraced, traced in _reports(suite):
        for kind, report in (("end_to_end", untraced), ("per_layer", traced)):
            got = report[kind]
            assert list(got) and set(got) == {m["name"] for m in MANIFEST[kind]}, name
            for spec in MANIFEST[kind]:
                entry = got[spec["name"]]
                assert entry["unit"] == spec["unit"], (name, spec["name"])
                assert math.isfinite(entry["value"]), (name, spec["name"])
        for spec in MANIFEST["end_to_end"]:
            assert untraced["end_to_end"][spec["name"]]["value"] > 0, (name, spec["name"])


def test_runs_are_correct_and_wrappers_are_removed(smoke_runs):
    for suite in smoke_runs:
        for name, untraced, traced in _reports(suite):
            for report in (untraced, traced):
                assert report["correct"], (name, report["checks"], report["error"])
                assert report["failed"] == 0 and report["attempted"] >= 1
                assert report["checks"]["wrappers_removed"]
    carpet = smoke_runs[0]["workloads"]["carpet_durable"]["untraced"]
    assert carpet["info"]["alerts"] >= 1


def test_trace_accounts_for_the_measured_wall(smoke_runs):
    suite, _ = smoke_runs
    for name, _untraced, traced in _reports(suite):
        if name in INLINE:
            assert traced["per_layer"]["trace.coverage"]["value"] >= 0.95, name


def test_two_smoke_runs_agree_on_counts_and_digests(smoke_runs):
    is_count = _load("e2e_trace").is_count
    first, second = smoke_runs
    for (name, ua, ta), (_name, ub, tb) in zip(_reports(first), _reports(second)):
        for key in ("alert_digest", "alerts", "decisions", "flows", "world_seed"):
            assert ua["info"][key] == ub["info"][key], (name, key)
        for metric, entry in ta["per_layer"].items():
            if is_count(metric):
                assert entry["value"] == tb["per_layer"][metric]["value"], (name, metric)
    # fleet_process serves fleet_score's exact bytes: same alert stream.
    if "untraced" in first["workloads"]["fleet_process"]:
        assert (
            first["workloads"]["fleet_process"]["untraced"]["info"]["alert_digest"]
            == first["workloads"]["fleet_score"]["untraced"]["info"]["alert_digest"]
        )
