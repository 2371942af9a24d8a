"""Control-flow graph construction over Python AST function bodies.

The advisor's dataflow passes run over a real CFG, not a flat AST walk:
branches, loops, ``try``/``except``/``finally``, and ``with`` blocks
all produce the edges you would expect, so a synchronization on one
arm of an ``if`` does not excuse the other arm, and a warm-up kernel
inside a loop is distinguished from one dominating the loop.

Granularity is one *simple statement per node*: every assignment,
expression statement, return, and compound-statement header (the
``if``/``while`` test, the ``for`` iterable, each ``with`` item)
becomes its own :class:`Node`.  This keeps the builder free of
block-splitting logic and gives the reaching-definitions pass natural
def sites.  Synthetic ``entry``/``exit``/``join`` nodes carry no AST.

Loops are recorded as :class:`Loop` regions (head node + body nodes),
which the sync-in-loop check consumes; dominators and postdominators
are computed on demand with the standard iterative dataflow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Statement classes that terminate a scope's straight-line flow.
_JUMPS = (ast.Return, ast.Break, ast.Continue, ast.Raise)


@dataclass
class Node:
    """One CFG node: a simple statement, a header expression, or a
    synthetic marker."""

    id: int
    kind: str  # "entry" | "exit" | "join" | "stmt" | "header"
    stmt: Optional[ast.stmt] = None
    expr: Optional[ast.expr] = None
    line: Optional[int] = None
    #: Target bound from the header's value (`for bind in expr`,
    #: `with expr as bind`); consumed by the dataflow transfer.
    bind: Optional[ast.expr] = None
    #: How the bind target relates to the header expression: "iter"
    #: binds the iterable's *element* (for-loops), "value" binds the
    #: expression itself (with-as).
    bind_mode: str = ""


@dataclass
class Loop:
    """One loop region: the head (test/iter node) and its body nodes."""

    head: int
    body: Set[int] = field(default_factory=set)


class CFG:
    """A function body's control-flow graph."""

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}
        self.succ: Dict[int, Set[int]] = {}
        self.pred: Dict[int, Set[int]] = {}
        self.entry = self._new("entry").id
        self.exit = self._new("exit").id
        self.loops: List[Loop] = []
        #: node id -> ids of every loop whose body contains it (innermost
        #: last), filled by the builder.
        self.loops_of: Dict[int, Tuple[int, ...]] = {}
        #: Entry (join) node ids of ``except`` handlers.
        self.handlers: Set[int] = set()

    # -- construction ---------------------------------------------------

    def _new(
        self,
        kind: str,
        stmt: Optional[ast.stmt] = None,
        expr: Optional[ast.expr] = None,
    ) -> Node:
        node = Node(
            id=len(self.nodes),
            kind=kind,
            stmt=stmt,
            expr=expr,
            line=getattr(stmt if stmt is not None else expr, "lineno", None),
        )
        self.nodes[node.id] = node
        self.succ[node.id] = set()
        self.pred[node.id] = set()
        return node

    def add_edge(self, src: int, dst: int) -> None:
        self.succ[src].add(dst)
        self.pred[dst].add(src)

    # -- queries --------------------------------------------------------

    def statement_nodes(self) -> List[Node]:
        """Every node carrying real source (stmt or header)."""
        return [n for n in self.nodes.values() if n.kind in ("stmt", "header")]

    def reachable(self, start: Optional[int] = None) -> Set[int]:
        """Node ids reachable from *start* (default: entry)."""
        stack = [self.entry if start is None else start]
        seen: Set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.succ[node] - seen)
        return seen

    def _dominators(
        self, root: int, edges: Dict[int, Set[int]]
    ) -> Dict[int, Set[int]]:
        """Iterative dominator sets over *edges* (pred for dom, succ for
        postdom on the reversed graph)."""
        ids = set(self.nodes)
        dom: Dict[int, Set[int]] = {n: set(ids) for n in ids}
        dom[root] = {root}
        changed = True
        while changed:
            changed = False
            for n in ids:
                if n == root:
                    continue
                preds = [dom[p] for p in edges[n]]
                new = set.intersection(*preds) if preds else set()
                new = new | {n}
                if new != dom[n]:
                    dom[n] = new
                    changed = True
        return dom

    def dominators(self) -> Dict[int, Set[int]]:
        """node -> set of nodes dominating it (from entry)."""
        return self._dominators(self.entry, self.pred)

    def postdominators(self) -> Dict[int, Set[int]]:
        """node -> set of nodes postdominating it (toward exit)."""
        return self._dominators(self.exit, self.succ)

    def innermost_loop(self, node: int) -> Optional[int]:
        """Index into :attr:`loops` of the node's innermost loop."""
        stack = self.loops_of.get(node, ())
        return stack[-1] if stack else None


class _Builder:
    """Recursive-descent CFG builder for one statement list."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: (break_target, continue_target) per open loop.
        self.loop_targets: List[Tuple[int, int]] = []
        #: Open loop indices (into cfg.loops), innermost last.
        self.loop_stack: List[int] = []
        #: Handler-entry node ids of every open ``try``; any node built
        #: inside the try body may transfer there.
        self.handler_stack: List[List[int]] = []

    # Each build method takes the set of "dangling" predecessor node
    # ids (frontier) and returns the new frontier.  An empty frontier
    # means flow cannot fall through (all paths jumped).

    def build(self, body: Sequence[ast.stmt], frontier: Set[int]) -> Set[int]:
        for stmt in body:
            frontier = self.statement(stmt, frontier)
        return frontier

    def _attach(self, node: Node, frontier: Set[int]) -> None:
        for src in frontier:
            self.cfg.add_edge(src, node.id)
        for loop_index in self.loop_stack:
            self.cfg.loops[loop_index].body.add(node.id)
        self.cfg.loops_of[node.id] = tuple(self.loop_stack)
        # Conservative exceptional edges: any statement inside a try
        # body may transfer control to each of its handlers.
        for handlers in self.handler_stack:
            for handler in handlers:
                self.cfg.add_edge(node.id, handler)

    def statement(self, stmt: ast.stmt, frontier: Set[int]) -> Set[int]:
        # An empty frontier (unreachable code) still gets nodes.
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return frontier  # nested scopes are separate CFGs
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        node = self.cfg._new("stmt", stmt=stmt)
        self._attach(node, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg.add_edge(node.id, self.cfg.exit)
            return set()
        if isinstance(stmt, ast.Break):
            self.cfg.add_edge(node.id, self.loop_targets[-1][0])
            return set()
        if isinstance(stmt, ast.Continue):
            self.cfg.add_edge(node.id, self.loop_targets[-1][1])
            return set()
        return {node.id}

    def _header(
        self,
        expr: ast.expr,
        frontier: Set[int],
        bind: Optional[ast.expr] = None,
        bind_mode: str = "",
    ) -> Node:
        node = self.cfg._new("header", expr=expr)
        node.bind = bind
        node.bind_mode = bind_mode
        self._attach(node, frontier)
        return node

    def _if(self, stmt: ast.If, frontier: Set[int]) -> Set[int]:
        test = self._header(stmt.test, frontier)
        then_out = self.build(stmt.body, {test.id})
        if stmt.orelse:
            else_out = self.build(stmt.orelse, {test.id})
        else:
            else_out = {test.id}
        return then_out | else_out

    def _loop_region(self) -> int:
        index = len(self.cfg.loops)
        self.cfg.loops.append(Loop(head=-1))
        return index

    def _loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, frontier: Set[int]
    ) -> Set[int]:
        index = self._loop_region()
        if isinstance(stmt, ast.While):
            head = self._header(stmt.test, frontier)
        else:
            head = self._header(
                stmt.iter, frontier, bind=stmt.target, bind_mode="iter"
            )
        self.cfg.loops[index].head = head.id
        after = self.cfg._new("join")
        self.loop_targets.append((after.id, head.id))
        self.loop_stack.append(index)
        body_out = self.build(stmt.body, {head.id})
        self.loop_stack.pop()
        self.loop_targets.pop()
        for src in body_out:
            self.cfg.add_edge(src, head.id)  # back edge
        # Loop exit: the test fails / the iterator runs out (always
        # possible statically), plus any `else` clause on normal exit.
        exit_frontier = {head.id}
        if stmt.orelse:
            exit_frontier = self.build(stmt.orelse, exit_frontier)
        self._attach(after, exit_frontier)
        return {after.id}

    def _try(self, stmt: ast.Try, frontier: Set[int]) -> Set[int]:
        handler_entries: List[int] = []
        handler_joins: List[Node] = []
        for handler in stmt.handlers:
            entry = self.cfg._new("join")
            self.cfg.handlers.add(entry.id)
            handler_entries.append(entry.id)
            handler_joins.append(entry)
        self.handler_stack.append(handler_entries)
        body_out = self.build(stmt.body, frontier)
        self.handler_stack.pop()
        if stmt.orelse:
            body_out = self.build(stmt.orelse, body_out)
        outs: Set[int] = set(body_out)
        for handler, entry in zip(stmt.handlers, handler_joins):
            outs |= self.build(handler.body, {entry.id})
        if stmt.finalbody:
            outs = self.build(stmt.finalbody, outs)
        return outs

    def _with(self, stmt: ast.With | ast.AsyncWith, frontier: Set[int]) -> Set[int]:
        for item in stmt.items:
            node = self._header(
                item.context_expr, frontier, bind=item.optional_vars,
                bind_mode="value",
            )
            frontier = {node.id}
        return self.build(stmt.body, frontier)


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build the CFG of one function (or module) body."""
    cfg = CFG()
    frontier = _Builder(cfg).build(list(body), {cfg.entry})
    for src in frontier:
        cfg.add_edge(src, cfg.exit)
    if not frontier and not cfg.pred[cfg.exit]:
        # Degenerate bodies (e.g. `while True: pass`): keep exit linked
        # so postdominator computation stays well-defined.
        cfg.add_edge(cfg.entry, cfg.exit)
    return cfg
