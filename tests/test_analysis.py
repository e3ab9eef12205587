"""xatulint: per-rule positive/negative fixtures, baseline round-trip,
inline suppressions, and the meta-tests that the repo lints clean and
that serving never loads the linter.

Every rule gets at least one snippet that MUST fire and one that MUST
stay silent — the negatives are as load-bearing as the positives, since
an over-eager rule erodes trust in the gate — plus one fixture named for
the mutant that keeps the rule alive: the bug of docs/ANALYSIS.md's
mutant audit that no runtime gate catches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitized
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.framework import (
    ANALYZER_VERSION,
    Severity,
    all_rules,
    analyze_source,
    get_rule,
)
from repro.nn import Tensor

REPO_ROOT = Path(__file__).resolve().parents[1]


# One finding (XL009 at line 3), for the framework and baseline tests.
BARE_EXCEPT = "try:\n    work()\nexcept:\n    pass\n"


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
        assert [r.id for r in all_rules()] == ["XL003", "XL009"]

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.name and rule.description and rule.fix_hint
            assert rule.severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)

    def test_get_rule(self):
        assert get_rule("XL003").name == "global-switch-leak"


# ----------------------------------------------------------------------
# Tape mutation: the sanitizer is the one guard
# ----------------------------------------------------------------------
class TestTapeMutation:
    """Rule XL001 is retired (docs/ANALYSIS.md, "Mutant audit"): its
    mutant fails the sanitized CI lane.  Each write shape it matched must
    raise at the mutation site under ``REPRO_SANITIZE``; each shape it let
    pass must stay legal."""

    @pytest.fixture(autouse=True)
    def _sanitize(self):
        with sanitized(True):
            yield

    @staticmethod
    def tape_node():
        return Tensor(np.ones(3), requires_grad=True) * 2.0

    def test_subscript_write_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data[...] = np.zeros(3)

    def test_subscript_augassign_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data[0] += 1

    def test_attribute_augassign_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data -= 0.1 * np.ones(3)

    def test_ufunc_out_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            np.add(t.data, 1.0, out=t.data)

    def test_rebind_is_fine(self):
        # Rebinding the attribute makes a fresh array; the old tape
        # node's buffer is untouched.
        t = self.tape_node()
        t.data = np.zeros(3)
        assert t.data.flags.writeable

    def test_plain_array_write_is_fine(self):
        # Only recorded-op outputs freeze: the array an op read stays
        # writable.
        x = np.ones(3)
        y = Tensor(x, requires_grad=True) * 2.0
        assert not y.data.flags.writeable
        x[0] = 5.0
        x += 1.0
        assert x.tolist() == [6.0, 2.0, 2.0]


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

    def test_bench_obs_toggle_without_finally_fires(self):
        # The audit mutant: bench/train.py's telemetry-on epoch without its
        # try/finally.  A raising fit() leaves telemetry on for every later
        # bench case; no test, golden or smoke fails on it.
        fires("XL003", """
            def _make_train_epoch_obs(sizes, enabled):
                from ..obs import set_enabled

                fit = _make_train_epoch(sizes, fused=True)

                def run():
                    previous = set_enabled(enabled)
                    fit()
                    set_enabled(previous)

                return run
        """, rel_path="src/repro/bench/train.py")


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

    def test_shard_execute_bare_except_fires(self):
        # The audit mutant: the one shard dispatch catching everything.
        # Error replies read the same, so every gate passes, but a Ctrl-C
        # in a forked shard becomes an error reply instead of a shutdown.
        fires("XL009", """
            def _execute(detector, message, reader=None):
                try:
                    result = detector.step(*message[1:])
                    return ("ok", result)
                except:
                    exc = sys.exc_info()[1]
                    return ("error", f"{type(exc).__name__}: {exc}")
        """, rel_path="src/repro/serve/shard.py")

    def test_typed_except_is_fine(self):
        silent("XL009", """
            try:
                work()
            except Exception:
                pass
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
            except:  # xatulint: ignore[XL003]
                pass
        """)

    def test_inline_suppression_blanket(self):
        silent("XL009", """
            try:
                work()
            except:  # xatulint: ignore
                pass
        """)

    def test_findings_sorted_deterministically(self):
        source = """
            def f():
                set_enabled(True)
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
        base = BARE_EXCEPT
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
        findings = lint(BARE_EXCEPT)
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
        stale = BaselineEntry("XL009", "src/gone.py", "except:", "why")
        baseline = Baseline([stale])
        assert baseline.unused_entries([]) == [stale]

    def test_write_baseline_keeps_out_of_scope_entries(self, tmp_path, monkeypatch):
        # A rewrite from a subtree carries over, reasons included, the
        # entries of every file it did not read.
        from repro.cli import main

        entries = []
        for name in ("a", "b"):
            (tmp_path / f"{name}.py").write_text(BARE_EXCEPT)
            entries.append(BaselineEntry("XL009", f"{name}.py", "except:", name))
        Baseline(entries).save(tmp_path / "lint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-baseline", "a.py"]) == 0
        assert Baseline.load(tmp_path / "lint-baseline.json").entries == entries

    def test_write_baseline_keeps_reasons(self, tmp_path):
        findings = lint(BARE_EXCEPT)
        first = Baseline.from_findings(findings)
        entry = first.entries[0]
        documented = Baseline(
            [BaselineEntry(entry.rule, entry.path, entry.line_text, "documented")]
        )
        rewritten = Baseline.from_findings(findings, previous=documented)
        assert rewritten.entries[0].reason == "documented"


# ----------------------------------------------------------------------
# baseline stamp
# ----------------------------------------------------------------------
class TestBaselineStamp:
    def test_save_stamps_analyzer_and_rules(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().save(path, rules=["XL001", "XF001"])
        payload = json.loads(path.read_text())
        assert payload["analyzer"] == ANALYZER_VERSION
        assert payload["rules"] == ["XF001", "XL001"]

    def test_old_unstamped_baseline_warns(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 1, "entries": []}')
        baseline = Baseline.load(path)
        warnings = baseline.stamp_warnings(["XL001"])
        assert warnings and "stamp" in warnings[0]

    def test_outdated_rule_inventory_warns(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "analyzer": ANALYZER_VERSION,
                    "rules": ["XL001"],
                    "entries": [],
                }
            )
        )
        baseline = Baseline.load(path)
        warnings = baseline.stamp_warnings(["XL001", "XF009"])
        assert warnings and "XF009" in warnings[0]

    def test_current_stamp_is_quiet(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline().save(path, rules=["XL001"])
        assert Baseline.load(path).stamp_warnings(["XL001"]) == []


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

    def test_cli_lint_subtree_ignores_out_of_scope_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # The ledger's one entry is for b.py, which no longer has the
        # finding: linting a.py alone must not report it as stale, and
        # linting b.py must.
        from repro.cli import main

        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 2\n")
        Baseline([BaselineEntry("XL009", "b.py", "except:", "planted")]).save(
            tmp_path / "lint-baseline.json"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--strict", "a.py"]) == 0
        assert "stale" not in capsys.readouterr().out
        assert main(["lint", "--strict", "b.py"]) == 1
        assert "stale" in capsys.readouterr().out

    def test_every_baseline_entry_has_a_reason(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.stamp_warnings([r.id for r in all_rules()]) == []
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
