"""Per-function control-flow graphs for the xatuflow checker.

A :class:`CFG` is a list of basic blocks (statement runs with no internal
branching) plus successor edges.  Two derived queries carry XF002:

* :meth:`CFG.reaches` — can execution flow from block ``a`` to block
  ``b``?  The seed-stream checker (XF002) uses this to tell *exclusive*
  consumptions (an ``if``/``else`` pair, one branch taken) from
  *sequential* ones (both executed — a double spend);
* :meth:`CFG.in_loop` — does a block sit on a cycle?  One consumption
  site inside a loop body executes many times.

The builder covers the statement forms the analyzed code uses — ``if``,
``while``/``for`` (+ ``else``), ``try``/``except``/``finally``, ``with``,
``return``/``raise``/``break``/``continue`` — and over-approximates the
rest (an unknown compound statement falls through).  Exceptional edges
are approximated: every ``try`` body block may jump to each handler.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "build_cfg"]


@dataclass
class Block:
    """One basic block: a run of statements executed straight through
    (:meth:`CFG.block_of` maps each statement to its block)."""

    index: int
    successors: set[int] = field(default_factory=set)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._block_of_stmt: dict[int, int] = {}  # id(stmt) -> block index
        self._reach_cache: dict[int, set[int]] = {}

    # -- construction helpers ------------------------------------------
    def new_block(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def add_stmt(self, block: Block, stmt: ast.stmt) -> None:
        self._block_of_stmt[id(stmt)] = block.index

    def link(self, src: Block, dst: Block) -> None:
        src.successors.add(dst.index)

    # -- queries --------------------------------------------------------
    def block_of(self, stmt: ast.stmt) -> int | None:
        return self._block_of_stmt.get(id(stmt))

    def _reachable_from(self, start: int) -> set[int]:
        cached = self._reach_cache.get(start)
        if cached is not None:
            return cached
        seen: set[int] = set()
        stack = list(self.blocks[start].successors)
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(self.blocks[idx].successors)
        self._reach_cache[start] = seen
        return seen

    def reaches(self, a: int, b: int) -> bool:
        """True when execution can flow from block ``a`` into block ``b``
        (strictly: via at least one edge; a block reaches itself only
        through a cycle)."""
        return b in self._reachable_from(a)

    def in_loop(self, idx: int) -> bool:
        return self.reaches(idx, idx)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG of one function body (nested defs are opaque
    single statements — they execute at definition time, not inline)."""
    cfg = CFG()
    entry = cfg.new_block()
    exit_block = cfg.new_block()
    final = _build_body(cfg, func.body, entry, exit_block, loops=[])
    if final is not None:
        cfg.link(final, exit_block)
    return cfg


def _build_body(
    cfg: CFG,
    body: list[ast.stmt],
    current: Block,
    exit_block: Block,
    loops: list[tuple[Block, Block]],  # (loop_head, loop_exit) stack
) -> Block | None:
    """Thread ``body`` starting at ``current``; return the fall-through
    block, or ``None`` if every path terminated (return/raise/...)."""
    for stmt in body:
        if current is None:
            # Dead code after a terminator; attach to a fresh orphan
            # block so statements still map to *some* block.
            current = cfg.new_block()
        if isinstance(stmt, ast.If):
            cfg.add_stmt(current, stmt)
            then_block = cfg.new_block()
            cfg.link(current, then_block)
            then_end = _build_body(cfg, stmt.body, then_block, exit_block, loops)
            if stmt.orelse:
                else_block = cfg.new_block()
                cfg.link(current, else_block)
                else_end = _build_body(
                    cfg, stmt.orelse, else_block, exit_block, loops
                )
            else:
                else_end = current  # condition false: fall through
            join = cfg.new_block()
            alive = False
            for end in (then_end, else_end):
                if end is not None:
                    cfg.link(end, join)
                    alive = True
            current = join if alive else None
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg.new_block()
            cfg.add_stmt(head, stmt)
            cfg.link(current, head)
            body_block = cfg.new_block()
            after = cfg.new_block()
            cfg.link(head, body_block)
            cfg.link(head, after)  # zero-iteration / loop-done edge
            body_end = _build_body(
                cfg, stmt.body, body_block, exit_block, loops + [(head, after)]
            )
            if body_end is not None:
                cfg.link(body_end, head)  # back edge
            if stmt.orelse:
                _build_body(cfg, stmt.orelse, after, exit_block, loops)
            current = after
        elif isinstance(stmt, ast.Try):
            body_block = cfg.new_block()
            cfg.link(current, body_block)
            body_end = _build_body(cfg, stmt.body, body_block, exit_block, loops)
            ends: list[Block | None] = [body_end]
            for handler in stmt.handlers:
                h_block = cfg.new_block()
                # Approximate: any block of the try body may raise into
                # the handler; linking from the body entry suffices for
                # reachability queries.
                cfg.link(body_block, h_block)
                ends.append(
                    _build_body(cfg, handler.body, h_block, exit_block, loops)
                )
            if stmt.orelse and body_end is not None:
                body_end = _build_body(
                    cfg, stmt.orelse, body_end, exit_block, loops
                )
                ends[0] = body_end
            join = cfg.new_block()
            alive = False
            for end in ends:
                if end is not None:
                    cfg.link(end, join)
                    alive = True
            if stmt.finalbody:
                fin_start = join if alive else cfg.new_block()
                fin_end = _build_body(
                    cfg, stmt.finalbody, fin_start, exit_block, loops
                )
                current = fin_end
            else:
                current = join if alive else None
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            cfg.add_stmt(current, stmt)
            inner = cfg.new_block()
            cfg.link(current, inner)
            current = _build_body(cfg, stmt.body, inner, exit_block, loops)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.add_stmt(current, stmt)
            cfg.link(current, exit_block)
            current = None
        elif isinstance(stmt, ast.Break):
            cfg.add_stmt(current, stmt)
            if loops:
                cfg.link(current, loops[-1][1])
            current = None
        elif isinstance(stmt, ast.Continue):
            cfg.add_stmt(current, stmt)
            if loops:
                cfg.link(current, loops[-1][0])
            current = None
        else:
            cfg.add_stmt(current, stmt)
    return current
