"""xatuflow: symbol table, call graph, CFG, and the XF002 project-wide
rule.

The positive fixtures here are deliberately *interprocedural* — a
stream minted in a helper is tracked across the call — so they
demonstrate exactly what the shallow per-file XL rules cannot see.
Negatives are as load-bearing as positives: the exclusive-branch and
sequential-draw cases pin the FP-avoidance design.  The spoof-stream
case is the mutant of docs/ANALYSIS.md's audit that no runtime gate
catches.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import framework
from repro.analysis.baseline import Baseline
from repro.analysis.flow import (
    SymbolGraph,
    SymbolTable,
    build_cfg,
    module_name_for,
)
from repro.analysis.framework import (
    ANALYZER_VERSION,
    all_rules,
    analyze_sources,
    get_rule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FLOW_RULE_IDS = {r.id for r in all_rules() if r.id.startswith("XF")}


def _dedented(sources: dict[str, str]) -> dict[str, str]:
    return {path: textwrap.dedent(src) for path, src in sources.items()}


def graph_of(sources: dict[str, str]) -> SymbolGraph:
    return SymbolGraph(SymbolTable.from_sources(_dedented(sources)))


def run_checker(rule_id: str, sources: dict[str, str]):
    return analyze_sources(_dedented(sources), rules=[get_rule(rule_id)])


def fires(rule_id: str, sources: dict[str, str]):
    findings = run_checker(rule_id, sources)
    assert findings, f"{rule_id} should fire"
    return findings


def silent(rule_id: str, sources: dict[str, str]):
    findings = run_checker(rule_id, sources)
    assert findings == [], f"{rule_id} should stay silent; got " + "\n".join(
        f.render() for f in findings
    )


# ----------------------------------------------------------------------
# symbol table
# ----------------------------------------------------------------------
class TestSymbolTable:
    def test_module_name_for(self):
        assert module_name_for("src/repro/core/model.py") == "repro.core.model"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("tools/gen.py") == "tools.gen"

    def test_collects_functions_classes_methods(self):
        sg = graph_of(
            {
                "src/pkg/mod.py": """
                def helper():
                    pass

                class Widget:
                    def __init__(self):
                        pass

                    def spin(self):
                        pass
                """
            }
        )
        table = sg.table
        assert "pkg.mod:helper" in table.functions
        assert "pkg.mod:Widget" in table.classes
        assert "pkg.mod:Widget.spin" in table.functions

    def test_resolves_through_import_alias(self):
        sg = graph_of(
            {
                "src/pkg/a.py": "def target():\n    pass\n",
                "src/pkg/b.py": "from pkg.a import target as t\n",
            }
        )
        mod_b = sg.table.modules["pkg.b"]
        resolved = sg.table.resolve(mod_b, "t")
        assert resolved is not None and resolved.qualname == "pkg.a:target"

    def test_resolves_relative_import(self):
        sg = graph_of(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "def target():\n    pass\n",
                "src/pkg/b.py": "from .a import target\n",
            }
        )
        mod_b = sg.table.modules["pkg.b"]
        resolved = sg.table.resolve(mod_b, "target")
        assert resolved is not None and resolved.qualname == "pkg.a:target"

    def test_resolves_one_hop_reexport(self):
        sg = graph_of(
            {
                "src/pkg/__init__.py": "from .a import target\n",
                "src/pkg/a.py": "def target():\n    pass\n",
                "src/other.py": "from pkg import target\n",
            }
        )
        mod = sg.table.modules["other"]
        resolved = sg.table.resolve(mod, "target")
        assert resolved is not None and resolved.qualname == "pkg.a:target"

    def test_method_of_walks_bases(self):
        sg = graph_of(
            {
                "src/pkg/m.py": """
                class Base:
                    def go(self):
                        pass

                class Child(Base):
                    pass
                """
            }
        )
        child = sg.table.classes["pkg.m:Child"]
        method = sg.table.method_of(child, "go")
        assert method is not None and method.qualname == "pkg.m:Base.go"


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_direct_and_self_edges(self):
        sg = graph_of(
            {
                "src/pkg/m.py": """
                def helper():
                    pass

                class Engine:
                    def run(self):
                        self.step()
                        helper()

                    def step(self):
                        pass
                """
            }
        )
        callees = {s.callee for s in sg.graph.callees_of("pkg.m:Engine.run")}
        assert callees == {"pkg.m:Engine.step", "pkg.m:helper"}

    def test_cross_module_edge_through_import(self):
        sg = graph_of(
            {
                "src/pkg/a.py": "def target():\n    pass\n",
                "src/pkg/b.py": """
                from pkg.a import target

                def caller():
                    target()
                """,
            }
        )
        callees = {s.callee for s in sg.graph.callees_of("pkg.b:caller")}
        assert callees == {"pkg.a:target"}

    def test_constructor_edge_records_class(self):
        sg = graph_of(
            {
                "src/pkg/m.py": """
                class Widget:
                    def __init__(self):
                        pass

                def make():
                    return Widget()
                """
            }
        )
        (site,) = sg.graph.callees_of("pkg.m:make")
        assert site.callee == "pkg.m:Widget.__init__"

    def test_unique_name_fallback_marked_heuristic(self):
        sg = graph_of(
            {
                "src/pkg/m.py": """
                class Only:
                    def very_unique_method(self):
                        pass

                def caller(obj):
                    obj.very_unique_method()
                """
            }
        )
        (site,) = sg.graph.callees_of("pkg.m:caller")
        assert site.heuristic
        assert site.callee == "pkg.m:Only.very_unique_method"


# ----------------------------------------------------------------------
# CFG
# ----------------------------------------------------------------------
class TestCfg:
    def _cfg(self, source: str):
        import ast

        tree = ast.parse(textwrap.dedent(source))
        func = tree.body[0]
        return func, build_cfg(func)

    def test_if_else_branches_are_exclusive(self):
        func, cfg = self._cfg(
            """
            def f(cond):
                if cond:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        if_stmt = func.body[0]
        then_block = cfg.block_of(if_stmt.body[0])
        else_block = cfg.block_of(if_stmt.orelse[0])
        assert then_block != else_block
        assert not cfg.reaches(then_block, else_block)
        assert not cfg.reaches(else_block, then_block)

    def test_sequential_statements_reach(self):
        func, cfg = self._cfg(
            """
            def f(cond):
                if cond:
                    a = 1
                b = 2
                if not cond:
                    c = 3
            """
        )
        first = cfg.block_of(func.body[0].body[0])
        last = cfg.block_of(func.body[2].body[0])
        assert cfg.reaches(first, last)

    def test_loop_body_is_on_a_cycle(self):
        func, cfg = self._cfg(
            """
            def f(items):
                total = 0
                for item in items:
                    total += item
                return total
            """
        )
        body_block = cfg.block_of(func.body[1].body[0])
        top_block = cfg.block_of(func.body[0])
        assert cfg.in_loop(body_block)
        assert not cfg.in_loop(top_block)

    def test_return_terminates_path(self):
        func, cfg = self._cfg(
            """
            def f(cond):
                if cond:
                    return 1
                return 2
            """
        )
        ret_block = cfg.block_of(func.body[0].body[0])
        after_block = cfg.block_of(func.body[1])
        assert not cfg.reaches(ret_block, after_block)


# ----------------------------------------------------------------------
# XF002 seed-stream discipline
# ----------------------------------------------------------------------
class TestSeedStreams:
    def test_double_consumption_fires(self):
        fires(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                def setup(seed):
                    ss = np.random.SeedSequence(seed)
                    a = np.random.default_rng(ss)
                    b = np.random.default_rng(ss)
                    return a, b
                """
            },
        )

    def test_exclusive_branches_silent(self):
        # one stream, two consumers — but on exclusive control-flow
        # paths, so exactly one executes: this is the scenario.py shape.
        silent(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                def setup(seed, budget):
                    ss = np.random.SeedSequence(seed)
                    if budget:
                        rng = np.random.default_rng(ss)
                    else:
                        rng = np.random.default_rng(ss)
                    return rng
                """
            },
        )

    def test_generator_shared_across_comprehension_fires(self):
        fires(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                class Sampler:
                    def __init__(self, rate, rng):
                        self.rate = rate
                        self.rng = rng

                def build(rates, seed):
                    rng = np.random.default_rng(seed)
                    return [Sampler(r, rng) for r in rates]
                """
            },
        )

    def test_stream_minted_in_helper_tracked_across_call(self):
        # The Generator identity flows through make_rng()'s return
        # summary; the double hand-off is only visible interprocedurally.
        findings = fires(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                def make_rng(seed):
                    return np.random.default_rng(seed)
                """,
                "src/pkg/b.py": """
                from pkg.a import make_rng

                class Owner:
                    def __init__(self, rng):
                        self.rng = rng

                def build(seed):
                    rng = make_rng(seed)
                    first = Owner(rng)
                    second = Owner(rng)
                    return first, second
                """,
            },
        )
        assert any("second time" in f.message for f in findings)

    def test_sequential_draws_are_not_consumption(self):
        # Passing a generator to plain functions that draw from it is
        # the explicit-rng idiom — deterministic, not a hand-off.
        silent(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                def noise(rng, n):
                    return rng.normal(size=n)

                def build(seed):
                    rng = np.random.default_rng(seed)
                    a = noise(rng, 4)
                    b = noise(rng, 8)
                    return a, b
                """
            },
        )

    def test_spoof_stream_from_plan_seed_fires(self):
        # The audit mutant: TraceGenerator seeding its spoof stream from
        # the plan's child.  Plan and spoof draws then correlate, yet every
        # golden, scenario and byte-identity gate passes.
        fires(
            "XF002",
            {
                "src/repro/synth/scenario.py": """
                import numpy as np

                class TraceGenerator:
                    def __init__(self, seed):
                        root = np.random.SeedSequence(seed)
                        plan_ss, traffic_ss, benign_ss, sampler_ss, spoof_ss = (
                            root.spawn(5)
                        )
                        self._plan_rng = np.random.default_rng(plan_ss)
                        self._traffic_rng = np.random.default_rng(traffic_ss)
                        self._spoof_rng = np.random.default_rng(plan_ss)
                """
            },
        )

    def test_spawned_children_one_owner_each_silent(self):
        silent(
            "XF002",
            {
                "src/pkg/a.py": """
                import numpy as np

                class Owner:
                    def __init__(self, rng):
                        self.rng = rng

                def build(seed):
                    root = np.random.SeedSequence(seed)
                    a_ss, b_ss = root.spawn(2)
                    return Owner(np.random.default_rng(a_ss)), Owner(
                        np.random.default_rng(b_ss)
                    )
                """
            },
        )


# ----------------------------------------------------------------------
# the repo itself must be clean under the project-wide rules
# ----------------------------------------------------------------------
class TestRepoIsDeepClean:
    def test_src_deep_lints_clean_against_baseline(self, src_findings):
        deep = [f for f in src_findings if f.rule in FLOW_RULE_IDS]
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        new, _suppressed = baseline.partition(deep)
        assert new == [], "new deep findings:\n" + "\n".join(
            f.render() for f in new
        )
        stale = [
            e for e in baseline.unused_entries(deep) if e.rule in FLOW_RULE_IDS
        ]
        assert stale == [], "stale deep baseline entries: " + ", ".join(
            f"{e.path}:{e.rule}" for e in stale
        )

    def test_cli_lint_deep_strict_exits_clean(
        self, cli_over_src, src_findings, monkeypatch, capsys
    ):
        # No flag asks for the project-wide rules: plain `lint --strict`
        # hands every XF rule to the one analysis pass.
        passed = []

        def analyze_paths(paths, root=None, rules=None):
            passed.append({r.id for r in rules})
            return src_findings

        monkeypatch.setattr(framework, "analyze_paths", analyze_paths)
        assert cli_over_src(["lint", "--strict"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out
        assert len(passed) == 1 and FLOW_RULE_IDS <= passed[0]


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
