"""xatuflow symbol layer: module/import resolution into one project table.

The flow checkers need to answer "what does this name mean *here*" across
file boundaries.  This module is the linter's one parser: it parses every
analyzed file once — a file that does not parse becomes an XL000 finding
— and builds:

* :class:`ModuleInfo` — one parsed module: its
  :class:`~repro.analysis.framework.FileContext` (tree, lines, parent map,
  shared with the per-file XL rules), its import alias map (``np`` →
  ``numpy``, ``OnlineXatu`` → ``repro.core.online.OnlineXatu``), top-level
  functions, and classes;
* :class:`FunctionInfo` / :class:`ClassInfo` — one symbol each, addressed
  by *qualname* (``repro.core.model:XatuModel.hazards_np``);
* :class:`SymbolTable` — the project-wide index with the resolution
  helpers the call-graph builder leans on (:meth:`SymbolTable.resolve`
  follows import chains, including one-hop re-exports through package
  ``__init__`` modules).

Resolution is deliberately best-effort: an unresolved name returns
``None`` and the caller over- or under-approximates as its checker
requires.  Nothing here imports the analyzed code — it is all source-level,
so the table builds in milliseconds and never executes repo modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable

from ..framework import (
    FileContext,
    Finding,
    Severity,
    dotted_name,
    iter_python_files,
    relative_path,
)

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
    "module_name_for",
]


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/core/model.py`` → ``repro.core.model``; package
    ``__init__.py`` files name the package itself.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method: the unit the call graph connects."""

    qualname: str  # "repro.core.model:XatuModel.hazards_np"
    module: str  # dotted module name
    cls: str | None  # owning class name, None for module-level
    name: str  # bare function name
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ClassInfo:
    """One class with its method map and (unresolved) base names."""

    qualname: str  # "repro.serve.shard:ShardWorker"
    module: str
    name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: its file context, imports, and member indexes."""

    name: str
    ctx: FileContext
    # local alias -> fully dotted target ("np" -> "numpy",
    # "OnlineXatu" -> "repro.core.online.OnlineXatu")
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def rel_path(self) -> str:
        return self.ctx.rel_path


def _package_of(module: str, rel_path: str) -> str:
    """The package a module's relative imports resolve against."""
    if rel_path.endswith("__init__.py"):
        return module  # the package itself
    return module.rsplit(".", 1)[0] if "." in module else ""


class SymbolTable:
    """Project-wide symbol index over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        # rel_path -> the file's context: every parsed file, for the
        # per-file rules and the inline-suppression filter
        self.files: dict[str, FileContext] = {}
        # XL000: one finding per file that does not parse
        self.errors: list[Finding] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        # bare method name -> every FunctionInfo carrying it (the
        # unique-name fallback the call-graph resolver uses).
        self.method_index: dict[str, list[FunctionInfo]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, root: Path, paths: Iterable[str | Path] | None = None
    ) -> "SymbolTable":
        """Parse every ``.py`` file under ``paths`` (default: ``src``)
        relative to ``root`` into one table."""
        root = Path(root)
        table = cls()
        for path in iter_python_files(paths or ["src"], root):
            table.add_source(relative_path(path, root), path.read_text())
        table.finalize()
        return table

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "SymbolTable":
        """Build from in-memory ``{rel_path: source}`` (the test entry)."""
        table = cls()
        for rel, source in sorted(sources.items()):
            table.add_source(rel, source)
        table.finalize()
        return table

    def add_source(self, rel: str, source: str) -> None:
        """Parse one file into the table, or record its XL000 finding."""
        rel = PurePosixPath(rel).as_posix()
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            self.errors.append(
                Finding(
                    rule="XL000",
                    severity=Severity.ERROR,
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            return
        ctx = FileContext(rel, source, tree)
        self.files[rel] = ctx
        mod = ModuleInfo(name=module_name_for(rel), ctx=ctx)
        package = _package_of(mod.name, rel)
        for node in tree.body:
            self._collect(mod, node, package)
        self.modules[mod.name] = mod

    def _collect(self, mod: ModuleInfo, node: ast.stmt, package: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # relative import: climb `level - 1` packages above ours
                anchor = package.split(".") if package else []
                climb = node.level - 1
                anchor = anchor[: len(anchor) - climb] if climb else anchor
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{mod.name}:{node.name}",
                module=mod.name,
                cls=None,
                name=node.name,
                node=node,
            )
            mod.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            cinfo = ClassInfo(
                qualname=f"{mod.name}:{node.name}",
                module=mod.name,
                name=node.name,
                bases=[dotted_name(b) for b in node.bases],
            )
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    finfo = FunctionInfo(
                        qualname=f"{mod.name}:{node.name}.{sub.name}",
                        module=mod.name,
                        cls=node.name,
                        name=sub.name,
                        node=sub,
                    )
                    cinfo.methods[sub.name] = finfo
            mod.classes[node.name] = cinfo

    def finalize(self) -> None:
        """Build the flat qualname and method-name indexes."""
        self.functions.clear()
        self.classes.clear()
        self.method_index.clear()
        for mod in self.modules.values():
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
            for cinfo in mod.classes.values():
                self.classes[cinfo.qualname] = cinfo
                for meth in cinfo.methods.values():
                    self.functions[meth.qualname] = meth
                    self.method_index.setdefault(meth.name, []).append(meth)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(
        self, mod: ModuleInfo, dotted: str, _depth: int = 0
    ) -> "FunctionInfo | ClassInfo | ModuleInfo | None":
        """Resolve a dotted name as seen from ``mod`` to a table symbol.

        Handles module-local names, import aliases, dotted module-member
        access, ``Class.method``, and one-hop re-exports through package
        ``__init__`` import chains.  Returns ``None`` for anything outside
        the table (numpy, stdlib, unresolvable dynamics).
        """
        if not dotted or _depth > 4:
            return None
        head, _, rest = dotted.partition(".")
        # 1. module-local symbol
        target: FunctionInfo | ClassInfo | ModuleInfo | None = None
        if head in mod.functions:
            target = mod.functions[head]
        elif head in mod.classes:
            target = mod.classes[head]
        elif head in mod.imports:
            imported = mod.imports[head]
            target = self._resolve_absolute(imported, _depth + 1)
        elif head in self.modules:
            target = self.modules[head]
        if target is None:
            return None
        if not rest:
            return target
        return self._member(target, rest, _depth + 1)

    def _resolve_absolute(
        self, dotted: str, _depth: int = 0
    ) -> "FunctionInfo | ClassInfo | ModuleInfo | None":
        """Resolve a fully dotted target against the table."""
        if _depth > 4:
            return None
        if dotted in self.modules:
            return self.modules[dotted]
        if "." in dotted:
            owner, _, member = dotted.rpartition(".")
            owner_sym = self._resolve_absolute(owner, _depth + 1)
            if owner_sym is not None:
                return self._member(owner_sym, member, _depth + 1)
        return None

    def _member(
        self,
        owner: "FunctionInfo | ClassInfo | ModuleInfo",
        dotted: str,
        _depth: int,
    ) -> "FunctionInfo | ClassInfo | ModuleInfo | None":
        head, _, rest = dotted.partition(".")
        target: FunctionInfo | ClassInfo | ModuleInfo | None = None
        if isinstance(owner, ModuleInfo):
            if head in owner.functions:
                target = owner.functions[head]
            elif head in owner.classes:
                target = owner.classes[head]
            elif head in owner.imports:
                # re-export: `from .online import OnlineXatu` in __init__
                target = self._resolve_absolute(owner.imports[head], _depth + 1)
            elif f"{owner.name}.{head}" in self.modules:
                target = self.modules[f"{owner.name}.{head}"]
        elif isinstance(owner, ClassInfo):
            target = self.method_of(owner, head)
        if target is None or not rest:
            return target
        return self._member(target, rest, _depth + 1)

    def method_of(self, cinfo: ClassInfo, name: str) -> FunctionInfo | None:
        """Find ``name`` on ``cinfo`` or (table-resolvable) base classes."""
        seen: set[str] = set()
        stack = [cinfo]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            mod = self.modules.get(current.module)
            if mod is None:
                continue
            for base in current.bases:
                resolved = self.resolve(mod, base)
                if isinstance(resolved, ClassInfo):
                    stack.append(resolved)
        return None

    def module_of(self, fn: FunctionInfo) -> ModuleInfo:
        return self.modules[fn.module]

    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.cls is None:
            return None
        return self.modules[fn.module].classes.get(fn.cls)
