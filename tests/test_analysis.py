"""xatulint: per-rule positive/negative fixtures, baseline round-trip,
inline suppressions, and the meta-tests that the repo lints clean and
that serving never loads the linter.

Every rule gets at least one snippet that MUST fire and one that MUST
stay silent — the negatives are as load-bearing as the positives, since
an over-eager rule erodes trust in the gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.framework import (
    Severity,
    all_rules,
    analyze_source,
    get_rule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(source: str, rel_path: str = "src/repro/fixture.py") -> list:
    return analyze_source(textwrap.dedent(source), rel_path)


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


def fires(rule_id: str, source: str, rel_path: str = "src/repro/fixture.py"):
    found = rule_ids(lint(source, rel_path))
    assert rule_id in found, f"{rule_id} should fire; got {found}"


def silent(rule_id: str, source: str, rel_path: str = "src/repro/fixture.py"):
    found = rule_ids(lint(source, rel_path))
    assert rule_id not in found, f"{rule_id} should stay silent; got {found}"


# ----------------------------------------------------------------------
# registry sanity
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_rules_registered(self):
        # One inventory for both families.
        assert [r.id for r in all_rules()] == [
            "XF001", "XF002", "XF003", "XF004",
            "XL001", "XL003", "XL004", "XL005", "XL008", "XL009", "XL010",
        ]

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.name and rule.description and rule.fix_hint
            assert rule.severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)

    def test_get_rule(self):
        assert get_rule("XL001").name == "tape-mutation"


# ----------------------------------------------------------------------
# XL001 — tape mutation
# ----------------------------------------------------------------------
class TestTapeMutation:
    def test_subscript_write_fires(self):
        fires("XL001", "t.data[...] = new_values\n")

    def test_subscript_augassign_fires(self):
        fires("XL001", "t.data[0] += 1\n")

    def test_attribute_augassign_fires(self):
        fires("XL001", "p.data -= lr * grad\n")

    def test_ufunc_out_fires(self):
        fires("XL001", "np.add(a, b, out=t.data)\n")

    def test_rebind_is_fine(self):
        # Rebinding the attribute makes a fresh array; the old tape
        # node's buffer is untouched.
        silent("XL001", "t.data = np.zeros(3)\n")

    def test_plain_array_write_is_fine(self):
        silent("XL001", "x[0] = 1\nbuf += delta\n")


# ----------------------------------------------------------------------
# XF004 on single-file inputs (the class keeps the per-file rule's name)
# ----------------------------------------------------------------------
class TestInferenceOutsideNoGrad:
    def test_predict_without_guard_fires(self):
        fires("XF004", """
            def predict_scores(model, x):
                t = Tensor(x)
                return model.forward(t)
        """)

    def test_with_no_grad_is_fine(self):
        silent("XF004", """
            def predict_scores(model, x):
                with no_grad():
                    t = Tensor(x)
                    return model.forward(t)
        """)

    def test_decorator_is_fine(self):
        silent("XF004", """
            @no_grad
            def infer_batch(model, x):
                return model.forward(Tensor(x))
        """)

    def test_non_inference_name_is_fine(self):
        silent("XF004", """
            def train_step(model, x):
                return model.forward(Tensor(x))
        """)

    def test_pure_numpy_inference_is_fine(self):
        silent("XF004", """
            def infer_fast(w, x):
                return np.tanh(x @ w)
        """)


# ----------------------------------------------------------------------
# XL003 — global switch leaks
# ----------------------------------------------------------------------
class TestGlobalSwitchLeak:
    def test_bare_toggle_fires(self):
        fires("XL003", """
            def run(path):
                set_enabled(True)
                do_work()
                set_enabled(False)
        """)

    def test_try_finally_is_fine(self):
        silent("XL003", """
            def run(path):
                set_enabled(True)
                try:
                    do_work()
                finally:
                    set_enabled(False)
        """)

    def test_toggle_inside_if_before_try_finally_is_fine(self):
        # The toggle sits under `if`, so the restoring try/finally is a
        # sibling of the *if*, not of the call statement — the rule must
        # climb enclosing statements (the cli.py --telemetry shape).
        silent("XL003", """
            def run(path):
                if path:
                    set_enabled(True)
                try:
                    do_work()
                finally:
                    if path:
                        set_enabled(False)
        """)

    def test_context_manager_plumbing_is_fine(self):
        silent("XL003", """
            class telemetry:
                def __enter__(self):
                    set_enabled(True)
                    return self

                def __exit__(self, *exc):
                    set_enabled(False)
        """)

    def test_defining_module_is_exempt(self):
        silent("XL003", "def set_enabled(flag):\n    set_enabled(flag)\n",
               rel_path="src/repro/obs/registry.py")

    def test_grad_flag_poke_fires(self):
        fires("XL003", "_MODE.grad_enabled = False\n")


# ----------------------------------------------------------------------
# XL004 — unseeded randomness
# ----------------------------------------------------------------------
class TestUnseededRandomness:
    def test_global_numpy_draw_fires(self):
        fires("XL004", "noise = np.random.normal(0.0, 1.0, size=8)\n")

    def test_stdlib_draw_fires(self):
        fires("XL004", "jitter = random.random()\n")

    def test_seeded_generator_is_fine(self):
        silent("XL004", """
            rng = np.random.default_rng(7)
            noise = rng.normal(0.0, 1.0, size=8)
        """)

    def test_seeded_stdlib_rng_is_fine(self):
        silent("XL004", "r = random.Random(3)\njitter = r.random()\n")


# ----------------------------------------------------------------------
# XL005 — wall clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_in_core_fires(self):
        fires("XL005", "stamp = time.time()\n",
              rel_path="src/repro/core/fixture.py")

    def test_perf_counter_is_fine(self):
        silent("XL005", "t0 = time.perf_counter()\n",
               rel_path="src/repro/serve/fixture.py")

    def test_out_of_scope_path_is_fine(self):
        # Host-metadata stamping in eval/bench/obs is legitimate.
        silent("XL005", "stamp = time.time()\n",
               rel_path="src/repro/eval/fixture.py")


# ----------------------------------------------------------------------
# XL008 — mutable defaults
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_list_default_fires(self):
        fires("XL008", "def f(items=[]):\n    return items\n")

    def test_dict_kwonly_default_fires(self):
        fires("XL008", "def f(*, cache={}):\n    return cache\n")

    def test_none_default_is_fine(self):
        silent("XL008", "def f(items=None, key=()):\n    return items\n")


# ----------------------------------------------------------------------
# XL009 — bare except
# ----------------------------------------------------------------------
class TestBareExcept:
    def test_bare_except_fires(self):
        fires("XL009", """
            try:
                work()
            except:
                pass
        """)

    def test_typed_except_is_fine(self):
        silent("XL009", """
            try:
                work()
            except Exception:
                pass
        """)


# ----------------------------------------------------------------------
# XL010 — alert-order hazards
# ----------------------------------------------------------------------
class TestAlertOrderHazard:
    def test_raw_values_iteration_fires(self):
        fires("XL010", """
            def merge_alerts(by_shard):
                out = []
                for alerts in by_shard.values():
                    out.extend(alerts)
                return out
        """)

    def test_comprehension_fires(self):
        fires("XL010", """
            def poll_alerts(pending):
                return [a for a in pending.values()]
        """)

    def test_sorted_iteration_is_fine(self):
        silent("XL010", """
            def merge_alerts(by_shard):
                out = []
                for shard, alerts in sorted(by_shard.items()):
                    out.extend(alerts)
                return out
        """)

    def test_non_alert_function_is_fine(self):
        silent("XL010", """
            def summarize(counts):
                return [v for v in counts.values()]
        """)


# ----------------------------------------------------------------------
# framework behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_syntax_error_becomes_xl000(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["XL000"]
        assert findings[0].severity == Severity.ERROR

    def test_inline_suppression_specific(self):
        silent("XL009", """
            try:
                work()
            except:  # xatulint: ignore[XL009]
                pass
        """)

    def test_inline_suppression_wrong_rule_still_fires(self):
        fires("XL009", """
            try:
                work()
            except:  # xatulint: ignore[XL001]
                pass
        """)

    def test_inline_suppression_blanket(self):
        silent("XL008", "def f(items=[]):  # xatulint: ignore\n    return items\n")

    def test_findings_sorted_deterministically(self):
        source = """
            def f(items=[]):
                try:
                    work()
                except:
                    pass
        """
        first = lint(source)
        second = lint(source)
        assert [f.render() for f in first] == [f.render() for f in second]
        keys = [(f.path, f.line, f.col, f.rule) for f in first]
        assert keys == sorted(keys)

    def test_fingerprint_survives_line_shift(self):
        base = "def f(items=[]):\n    return items\n"
        shifted = "import os\n\n\n" + base
        (a,) = lint(base)
        (b,) = lint(shifted)
        assert a.line != b.line
        assert a.fingerprint == b.fingerprint


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = lint("def f(items=[]):\n    return items\n")
        baseline = Baseline.from_findings(findings)
        path = baseline.save(tmp_path / "baseline.json")
        loaded = Baseline.load(path)
        assert len(loaded) == len(findings)
        new, suppressed = loaded.partition(findings)
        assert new == [] and len(suppressed) == len(findings)

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_stale_entries_reported(self):
        stale = BaselineEntry("XL008", "src/gone.py", "def f(x=[]):", "why")
        baseline = Baseline([stale])
        assert baseline.unused_entries([]) == [stale]

    def test_write_baseline_keeps_out_of_scope_entries(self, tmp_path, monkeypatch):
        # A rewrite from a subtree carries over, reasons included, the
        # entries of every file it did not read.
        from repro.cli import main

        entries = []
        for name in ("a", "b"):
            (tmp_path / f"{name}.py").write_text("def f(x=[]):\n    return x\n")
            entries.append(BaselineEntry("XL008", f"{name}.py", "def f(x=[]):", name))
        Baseline(entries).save(tmp_path / "lint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-baseline", "a.py"]) == 0
        assert Baseline.load(tmp_path / "lint-baseline.json").entries == entries

    def test_write_baseline_keeps_reasons(self, tmp_path):
        findings = lint("def f(items=[]):\n    return items\n")
        first = Baseline.from_findings(findings)
        entry = first.entries[0]
        documented = Baseline(
            [BaselineEntry(entry.rule, entry.path, entry.line_text, "documented")]
        )
        rewritten = Baseline.from_findings(findings, previous=documented)
        assert rewritten.entries[0].reason == "documented"


# ----------------------------------------------------------------------
# the repo itself must lint clean
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_lints_clean_against_baseline(self, src_findings):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        new, _ = baseline.partition(src_findings)
        assert new == [], "new lint findings:\n" + "\n".join(
            f.render() for f in new
        )
        stale = baseline.unused_entries(src_findings)
        assert stale == [], "stale baseline entries: " + ", ".join(
            f"{e.path}:{e.rule}" for e in stale
        )

    def test_cli_lint_strict_exits_clean(self, cli_over_src, capsys):
        assert cli_over_src(["lint", "--strict"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_cli_lint_sarif_is_valid_json(self, cli_over_src, capsys):
        assert cli_over_src(["lint", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert ids == [r.id for r in all_rules()]
        # baselined findings ride along as suppressed results
        assert run["results"] and all(
            "suppressions" in r for r in run["results"]
        ), "clean repo: every SARIF result should be a baselined suppression"

    def test_cli_lint_subtree_ignores_out_of_scope_baseline(
        self, monkeypatch, capsys
    ):
        # Baseline entries live in nn/core files; linting serve/ alone
        # must not report them as stale.
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--strict", "src/repro/serve"]) == 0
        assert "stale" not in capsys.readouterr().out

    def test_every_baseline_entry_has_a_reason(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert len(baseline) > 0
        for entry in baseline.entries:
            assert entry.reason and "TODO" not in entry.reason, (
                f"{entry.path}:{entry.rule} has no written reason"
            )


def test_serve_import_leaves_the_linter_unloaded():
    # repro.nn imports the sanitizer through repro.analysis; that must
    # not drag the linter onto the serving path.
    code = (
        "import json, sys, repro.serve; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('repro.analysis'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert json.loads(out) == ["repro.analysis", "repro.analysis.sanitizer"]
