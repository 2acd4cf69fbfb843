"""Control-flow graphs and intraprocedural dataflow for repro-lint.

The per-line rules of PR 2 see one statement at a time; the protocol
rules (WAL/ack ordering, breaker outcome recording, stale reads across
an RPC) are *path* properties: an ``append`` is fine on the branch that
fsyncs and a bug on the branch that returns.  This module gives rules
the machinery to ask path questions:

* :func:`build_cfg` turns one ``FunctionDef`` into a :class:`CFG` of
  :class:`BasicBlock`\\ s.  Branch tests (``if``/``while`` conditions)
  are their own *elements* inside a block, and the outgoing edges are
  labelled ``true``/``false`` with the test node, so an analysis can be
  branch-sensitive for simple conditions;
* every block records the handler entries an exception raised inside
  it may jump to (:attr:`BasicBlock.exc_targets`), approximating "any
  statement in a ``try`` may raise to its handlers"; uncaught raises
  flow to a dedicated :attr:`CFG.raise_exit` block, kept separate from
  :attr:`CFG.exit` because exiting on an exception never *acks*
  anything — protocol obligations are excused there;
* :func:`definitions` / :func:`uses` / :func:`store_targets` extract
  the names a statement binds and reads and the targets it stores to.

Every traversal the rules need is one of three primitives, each
written once here:

* :func:`walk_scope` — the nodes of one function scope: nested ``def``
  bodies are never entered (they are scopes of their own), lambda
  bodies are entered or not as the caller says (a lambda runs in the
  frame's dynamic extent but not *at* the element that builds it).
  :func:`calls_in` and :func:`uses` are filters over it, as are the
  call-graph and set-iteration walks;
* one CFG per function per run: rules never call :func:`build_cfg`
  themselves, they ask the :class:`~repro.analysis.core.FileContext`
  that owns the tree (:meth:`~repro.analysis.core.FileContext.cfg`),
  which builds it on first request and dies with the run;
* :func:`solve` — one forward dataflow over sets of facts with a
  per-element transfer function, solved once per function: the
  yield-point rules carry values and pending writes tagged with the
  first yield they crossed, the typestate rules of
  :mod:`repro.analysis.protocol` open obligations, and each reads its
  convictions off the fixpoint with :func:`replay`.

Precision notes, honest edition: the CFG is statement-granular, and an
exception edge leaves a block with every fact the block held inside it
(an exception may fire between any two elements, so a handler sees the
facts from before a mid-block discharge as well as after it);
``while True`` gets no false edge (otherwise every infinite dispatch
loop would leak a phantom exit path); ``finally`` bodies are built
once on the merged normal+exceptional path rather than duplicated per
continuation.  All approximations widen the path set — rules built on
"does a bad path exist" may report a path the runtime cannot take, and
the pragma mechanism is the escape hatch — but they never hide one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

#: AST node types treated as a function scope of their own.
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Edge:
    """One control transfer.  ``kind`` is ``normal``, ``true``/``false``
    (branch edges, ``test`` holds the condition node), or ``exc``
    (exception propagation into a handler or out of the function)."""

    dst: "BasicBlock"
    kind: str = "normal"
    test: ast.expr | None = None


class BasicBlock:
    """A straight-line run of elements with labelled out-edges.

    ``elements`` holds AST nodes in execution order: plain statements,
    plus pseudo-elements for branch tests (the bare ``ast.expr`` of an
    ``if``/``while``) and loop headers (the ``ast.For`` node itself,
    standing for "bind the next item").
    """

    __slots__ = ("bid", "elements", "out_edges", "exc_targets")

    def __init__(self, bid: int):
        self.bid = bid
        self.elements: list[ast.AST] = []
        self.out_edges: list[Edge] = []
        self.exc_targets: list["BasicBlock"] = []

    def __repr__(self) -> str:  # debugging aid, not part of the API
        kinds = [f"{e.kind}->{e.dst.bid}" for e in self.out_edges]
        return f"<block {self.bid} [{len(self.elements)} el] {kinds}>"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, fn: ast.AST):
        self.fn = fn
        self.blocks: list[BasicBlock] = []
        self.entry: BasicBlock = self._new_block()
        self.exit: BasicBlock = self._new_block()
        self.raise_exit: BasicBlock = self._new_block()

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def connect(self, src: BasicBlock, dst: BasicBlock, kind: str = "normal",
                test: ast.expr | None = None) -> None:
        src.out_edges.append(Edge(dst, kind, test))

    # -- queries ----------------------------------------------------------

    def elements(self) -> Iterator[tuple[BasicBlock, int, ast.AST]]:
        """Every (block, index, element) in deterministic block order."""
        for block in self.blocks:
            for index, element in enumerate(block.elements):
                yield block, index, element

    @cached_property
    def calls(self) -> dict[int, list[ast.Call]]:
        """id(element) -> :func:`calls_in` of it, for every element:
        taken once, since every CFG rule asks for every element's."""
        return {id(element): list(calls_in(element))
                for _, _, element in self.elements()}


# -- construction ------------------------------------------------------------


class _Builder:
    """Recursive-descent CFG construction with loop and handler stacks."""

    def __init__(self, fn: ast.AST):
        self.cfg = CFG(fn)
        self.current = self.cfg.entry
        # (continue target, break target) per enclosing loop
        self.loops: list[tuple[BasicBlock, BasicBlock]] = []
        # handler entries of enclosing try statements, innermost last;
        # an unmatched exception may also skip every handler, so blocks
        # always keep raise_exit as a target too
        self.handlers: list[list[BasicBlock]] = []

    # Every block inherits the handler context live at its creation.
    def _new_block(self) -> BasicBlock:
        block = self.cfg._new_block()
        for frame in self.handlers:
            block.exc_targets.extend(frame)
        block.exc_targets.append(self.cfg.raise_exit)
        return block

    def build(self) -> CFG:
        self.cfg.entry.exc_targets.append(self.cfg.raise_exit)
        self._body(self.cfg.fn.body)
        if self.current is not None:
            self.cfg.connect(self.current, self.cfg.exit)
        # materialize exception edges once per (block, target) pair
        for block in self.cfg.blocks:
            if block in (self.cfg.exit, self.cfg.raise_exit):
                continue
            seen: set[int] = set()
            for target in block.exc_targets:
                if target.bid not in seen:
                    seen.add(target.bid)
                    self.cfg.connect(block, target, kind="exc")
        return self.cfg

    def _body(self, statements: list[ast.stmt]) -> None:
        for statement in statements:
            if self.current is None:
                # dead code after return/raise/break: still build it so
                # rules can see its elements, but leave it unreachable
                self.current = self._new_block()
            self._statement(statement)

    def _append(self, node: ast.AST) -> None:
        self.current.elements.append(node)

    # -- statement dispatch ----------------------------------------------

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, (ast.While,)):
            self._while(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, ast.Try) or node.__class__.__name__ == "TryStar":
            self._try(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Return):
            self._append(node)
            self.cfg.connect(self.current, self.cfg.exit)
            self.current = None
        elif isinstance(node, ast.Raise):
            self._append(node)
            for target in self.current.exc_targets:
                self.cfg.connect(self.current, target, kind="exc")
            self.current = None
        elif isinstance(node, ast.Break):
            self._append(node)
            if self.loops:
                self.cfg.connect(self.current, self.loops[-1][1])
            self.current = None
        elif isinstance(node, ast.Continue):
            self._append(node)
            if self.loops:
                self.cfg.connect(self.current, self.loops[-1][0])
            self.current = None
        elif isinstance(node, ast.Match):
            self._match(node)
        else:
            # simple statements — including nested function/class
            # definitions, which are opaque single elements here (their
            # bodies get their own CFGs via FileContext.function_cfgs)
            self._append(node)

    def _if(self, node: ast.If) -> None:
        self._append(node.test)
        head = self.current
        then_block = self._new_block()
        self.cfg.connect(head, then_block, kind="true", test=node.test)
        self.current = then_block
        self._body(node.body)
        then_end = self.current
        join = self._new_block()
        if node.orelse:
            else_block = self._new_block()
            self.cfg.connect(head, else_block, kind="false", test=node.test)
            self.current = else_block
            self._body(node.orelse)
            if self.current is not None:
                self.cfg.connect(self.current, join)
        else:
            self.cfg.connect(head, join, kind="false", test=node.test)
        if then_end is not None:
            self.cfg.connect(then_end, join)
        self.current = join

    @staticmethod
    def _always_true(test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _while(self, node: ast.While) -> None:
        head = self._new_block()
        self.cfg.connect(self.current, head)
        head.elements.append(node.test)
        after = self._new_block()
        body = self._new_block()
        self.cfg.connect(head, body, kind="true", test=node.test)
        infinite = self._always_true(node.test)
        self.loops.append((head, after))
        self.current = body
        self._body(node.body)
        if self.current is not None:
            self.cfg.connect(self.current, head)
        self.loops.pop()
        if not infinite:
            if node.orelse:
                orelse = self._new_block()
                self.cfg.connect(head, orelse, kind="false", test=node.test)
                self.current = orelse
                self._body(node.orelse)
                if self.current is not None:
                    self.cfg.connect(self.current, after)
            else:
                self.cfg.connect(head, after, kind="false", test=node.test)
        self.current = after

    def _for(self, node: ast.For | ast.AsyncFor) -> None:
        # evaluate the iterable once, then loop through the header,
        # which re-binds the target on every iteration
        head = self._new_block()
        self.cfg.connect(self.current, head)
        head.elements.append(node)   # the For node = "bind next item"
        after = self._new_block()
        body = self._new_block()
        self.cfg.connect(head, body, kind="true")
        self.loops.append((head, after))
        self.current = body
        self._body(node.body)
        if self.current is not None:
            self.cfg.connect(self.current, head)
        self.loops.pop()
        if node.orelse:
            orelse = self._new_block()
            self.cfg.connect(head, orelse, kind="false")
            self.current = orelse
            self._body(node.orelse)
            if self.current is not None:
                self.cfg.connect(self.current, after)
        else:
            self.cfg.connect(head, after, kind="false")
        self.current = after

    def _try(self, node) -> None:
        after = self._new_block()
        handler_entries = [self._new_block() for _ in node.handlers]
        # body blocks may jump to this try's handlers at any point
        self.handlers.append(handler_entries)
        body_entry = self._new_block()
        self.cfg.connect(self.current, body_entry)
        self.current = body_entry
        self._body(node.body)
        if node.orelse and self.current is not None:
            self._body(node.orelse)
        body_end = self.current
        self.handlers.pop()

        ends: list[BasicBlock] = []
        if body_end is not None:
            ends.append(body_end)
        for handler, entry in zip(node.handlers, handler_entries):
            entry.elements.append(handler)   # the except clause itself
            self.current = entry
            self._body(handler.body)
            if self.current is not None:
                ends.append(self.current)

        if node.finalbody:
            final = self._new_block()
            for end in ends:
                self.cfg.connect(end, final)
            self.current = final
            self._body(node.finalbody)
            if self.current is not None:
                self.cfg.connect(self.current, after)
        else:
            for end in ends:
                self.cfg.connect(end, after)
        self.current = after

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        self._append(node)   # the With node = evaluate+bind context items
        self._body(node.body)

    def _match(self, node: ast.Match) -> None:
        subject = self.current
        subject.elements.append(node.subject)
        after = self._new_block()
        for case in node.cases:
            case_block = self._new_block()
            self.cfg.connect(subject, case_block)
            self.current = case_block
            self._body(case.body)
            if self.current is not None:
                self.cfg.connect(self.current, after)
        self.cfg.connect(subject, after)   # no case may match
        self.current = after


def build_cfg(fn: ast.AST) -> CFG:
    """Build the CFG of one function definition.  Rules do not call
    this: :meth:`repro.analysis.core.FileContext.cfg` builds each
    function's graph once per run and shares it."""
    return _Builder(fn).build()


# -- the scope walk ----------------------------------------------------------


def walk_scope(roots: Iterable[ast.AST], lambdas: bool) -> Iterator[ast.AST]:
    """Every node under ``roots`` that belongs to the enclosing
    function's scope.

    A nested ``def`` is yielded (it is a statement of this scope) but
    never entered — its body, decorators and defaults included — since
    it is a scope, a graph node and a CFG of its own.  Lambda bodies
    are entered only when ``lambdas`` is true: they run in this frame's
    dynamic extent (the call graph wants their calls) but not *at* the
    element that builds them (a dataflow step must not see their reads).
    """
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FUNCTION_NODES) \
                or (not lambdas and isinstance(node, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _evaluated_at(element: ast.AST) -> list[ast.AST]:
    """The sub-trees a CFG element evaluates itself.  ``For``/``With``
    and ``except`` pseudo-elements stand for their header expressions
    only (iterable / context items / caught types), since the body
    statements are separate elements; a nested def or class is
    opaque."""
    if isinstance(element, (ast.For, ast.AsyncFor)):
        return [element.iter]
    if isinstance(element, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in element.items]
    if isinstance(element, ast.ExceptHandler):
        return [element.type] if element.type else []
    if isinstance(element, FUNCTION_NODES + (ast.ClassDef,)):
        return []
    return [element]


# -- definitions and uses ----------------------------------------------------


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    # attribute / subscript targets mutate objects, not local names


def definitions(element: ast.AST) -> list[str]:
    """Local names this element binds."""
    names: list[str] = []
    if isinstance(element, ast.Assign):
        for target in element.targets:
            names.extend(_target_names(target))
    elif isinstance(element, (ast.AugAssign, ast.AnnAssign)):
        names.extend(_target_names(element.target))
    elif isinstance(element, (ast.For, ast.AsyncFor)):
        names.extend(_target_names(element.target))
    elif isinstance(element, (ast.With, ast.AsyncWith)):
        for item in element.items:
            if item.optional_vars is not None:
                names.extend(_target_names(item.optional_vars))
    elif isinstance(element, ast.ExceptHandler):
        if element.name:
            names.append(element.name)
    elif isinstance(element, FUNCTION_NODES + (ast.ClassDef,)):
        names.append(element.name)
    # walrus assignments can hide anywhere in an expression
    for node in ast.walk(element if not isinstance(element, FUNCTION_NODES)
                         else element.args):
        if isinstance(node, ast.NamedExpr):
            names.extend(_target_names(node.target))
    return names


def store_targets(element: ast.AST) -> Iterator[ast.expr]:
    """The targets an assignment element stores to, one tuple level
    unpacked.  A bare annotation (``x: int``) stores nothing; an
    augmented assign stores to (and re-reads) its one target."""
    if isinstance(element, ast.Assign):
        for target in element.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from target.elts
            else:
                yield target
    elif isinstance(element, ast.AugAssign) or (
            isinstance(element, ast.AnnAssign) and element.value is not None):
        yield element.target


def evaluated_nodes(element: ast.AST) -> Iterator[ast.AST]:
    """The nodes one element evaluates itself, not those of nested defs
    or lambda bodies."""
    return walk_scope(_evaluated_at(element), lambdas=False)


def uses(element: ast.AST) -> set[str]:
    """Local names this element reads (loads).  A nested scope's reads
    — a lambda's included — are not this element's."""
    return {node.id for node in evaluated_nodes(element)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def calls_in(element: ast.AST) -> Iterator[ast.Call]:
    """Call nodes one element performs itself."""
    for node in evaluated_nodes(element):
        if isinstance(node, ast.Call):
            yield node


def reads_any(node: ast.AST, names: set[str]) -> bool:
    """Does anything under ``node`` load one of ``names``?  Nested
    scopes count: a closure that reads a name reads it for its frame."""
    return any(isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
               and sub.id in names for sub in ast.walk(node))


def callee_name(func: ast.expr) -> str:
    """The last name of what a call calls (``f`` / ``a.b.f`` -> ``f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The exception names an ``except`` clause catches, as written
    (``errors.NodeDown`` -> ``NodeDown``); ``*`` for a bare ``except``."""
    if handler.type is None:
        return {"*"}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {name for node in nodes if (name := callee_name(node))}


_WORD = re.compile(r"[A-Z]?[a-z0-9]+|[A-Z]+(?![a-z])")


def names_word(name: str, words: frozenset[str]) -> bool:
    """Is one of ``words`` a whole word of ``name``?  Words split at
    ``.``, ``_`` and CamelCase humps, case-folded: ``_commit_wal``,
    ``repro.common.wal.WriteAheadLog`` and ``MigrationJournal`` hold
    ``wal`` / ``journal``; ``walk``, ``swallow`` and ``wall_clock`` do
    not."""
    return any(word.lower() in words for word in _WORD.findall(name))


# -- the forward dataflow ----------------------------------------------------

#: A per-element transfer function: the facts before an element -> the
#: facts after it.  :func:`replay` also hands it a list to record the
#: element's convictions in; :func:`solve` does not.
Step = Callable[..., frozenset]


def solve(cfg: CFG, step: Step,
          edge: Callable[[BasicBlock, Edge, frozenset], frozenset]
          | None = None) -> list[frozenset]:
    """The least fixpoint of one forward problem over sets of facts: the
    facts that enter each block, indexed by block id.

    Every block is stepped once, in block order (dead code gens facts
    too), and again only when the facts that enter it grow.  A normal
    edge carries the facts the block ends with; an exception edge every
    fact the block passed through, those it was entered with included,
    since the raise may come before any element's effect.
    ``edge(block, out_edge, facts)`` may rewrite what one edge carries
    (a gated obligation opens on its admitted edge).  The exit blocks
    are never stepped; ``into[cfg.exit.bid]`` is what reached the
    normal exit.
    """
    exits = {cfg.exit.bid, cfg.raise_exit.bid}
    into = [frozenset()] * len(cfg.blocks)
    pending = set(range(len(cfg.blocks))) - exits
    while pending:
        block = cfg.blocks[min(pending)]
        pending.remove(block.bid)
        facts = passed = into[block.bid]
        for element in block.elements:
            facts = step(element, facts)
            passed |= facts
        for out in block.out_edges:
            carried = passed if out.kind == "exc" else facts
            if edge is not None:
                carried = edge(block, out, carried)
            if not carried <= into[out.dst.bid]:
                into[out.dst.bid] |= carried
                pending |= {out.dst.bid} - exits
    return into


def replay(cfg: CFG, into: list[frozenset], step: Step) -> list:
    """Step every element once more, in block order, from the facts the
    fixpoint ``into`` gives its block, as ``step(element, facts,
    found)``: the convictions each records in ``found`` from the facts
    that really reach it, in that order."""
    found: list = []
    for block in cfg.blocks:
        if block is not cfg.exit and block is not cfg.raise_exit:
            facts = into[block.bid]
            for element in block.elements:
                facts = step(element, facts, found)
    return found


def receiver_name(func: ast.expr) -> str:
    """Simple name of the object a method is called on (``a.b.append``
    -> ``b``; ``wal.append`` -> ``wal``)."""
    if not isinstance(func, ast.Attribute):
        return ""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Subscript):
        inner = value.value
        if isinstance(inner, ast.Attribute):
            return inner.attr
        if isinstance(inner, ast.Name):
            return inner.id
    return ""
