"""Bottom-up per-function effect summaries over the call graph.

Each function in the :class:`~repro.analysis.callgraph.Project` gets a
:class:`Summary` computed callees-first (SCC condensation order, with
a fixpoint iteration inside recursive components):

* **may-raise** — exception type names that can escape the function:
  its own ``raise`` sites plus every callee's may-raise set, minus
  whatever the enclosing ``try`` handlers at each site catch.  Catch
  tests run against the *merged* hierarchy: scanned classes resolve
  through their recorded bases, builtin exceptions through the real
  ``issubclass``, so ``except LookupError`` catches a ``KeyError``
  raised three frames down and ``except ReproError`` catches every
  scanned subclass.
* **blocks** — which blocking primitives the function transitively
  reaches: ``rpc`` (``SimNetwork.invoke``/``send`` and their
  attribute-named wrappers), ``sleep``, ``fsync``.
* **yield-points** — the statement-level sites at which the function
  may *yield* to the cooperative scheduler: direct blocking primitives
  plus every call/ref site whose callee transitively blocks.  In the
  simulation every such site is a linearization point — arbitrary
  other events interleave while the primitive runs — so the atomicity
  rules treat the yield-point set as "where shared state may change
  under you".
* **mutations** — every site where the function mutates a ``self``
  path, however spelled, with its line, kind and whether it sits in an
  ``except`` handler (:func:`mutations_at` is the one classifier).
* **writes-self** — the coupled-state subset of the mutations (no
  augmented assigns, which bump one cell, and no compensation in an
  ``except`` handler), propagated through bare ``self.method()``
  calls only: a collaborator call (``self.store.put(...)``) writes the
  collaborator's state, not this object's.
* **retries** — whether the function transitively re-sends failed
  work: a ``call_with_retries(...)`` call, or a retry-shaped loop whose
  handler catches a transport error and goes round again
  (:func:`retry_catch`), here or in any callee, called or passed by
  reference.
* **drops-deadline** — assuming the function *receives* a deadline
  (a ``deadline``/``budget`` parameter, or one it constructs), does
  that budget flow into every transitive network call?  Flow is
  tracked as a taint set: the deadline names themselves plus every
  local assigned from an expression that reads a tainted name
  (``timeout = deadline.clamp(t)`` taints ``timeout``).  A call that
  reaches an RPC or retries, and reads no tainted name, is a *drop*;
  the witness chain runs from that call down to the concrete site.
  ``reads_deadline`` says whether the function reads its budget
  anywhere, which is what splits the drops between the
  ``deadline-dropped`` and ``unbounded-rpc`` rules.

Every raise, block, retry, yield point and dropped deadline carries one
deterministic witness chain of :class:`~repro.analysis.core.Frame`\\ s
so rules can report *entry point → offending call* without
re-deriving paths.

Precision notes, honest edition: handler matching is
position-insensitive (a ``try`` catches for its whole body, including
statements before the handler could bind), bare ``raise`` re-raises
the handler's static catch set, implicit raises (``d[k]`` →
``KeyError``) are invisible — only explicit ``raise`` sites seed the
analysis — and functions passed by reference count as called at the
passing site.  Within an SCC the fixpoint only *grows* sets, so
recursion converges; witness chains are first-written-wins, which the
deterministic visit order makes reproducible.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    Project,
    bare_name,
    deadline_params,
    scope_calls,
)
from repro.analysis.core import TRANSPORT_ERROR_NAMES, Frame
from repro.analysis.flow import callee_name, caught_names, reads_any

#: Effects the blocks analysis tracks, keyed by CallSite.kind.
BLOCKING_KINDS = ("rpc", "sleep", "fsync")

#: Methods that change the container they are called on, and the
#: ``heapq``/``bisect`` functions that change their first argument.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "discard", "add", "clear", "update",
    "setdefault", "sort", "reverse"})
_MUTATOR_FUNCTIONS = frozenset({
    "heappush", "heappop", "heappushpop", "heapreplace", "heapify",
    "insort", "insort_left", "insort_right"})
#: Mutators whose result the caller owns: the value left shared state
#: in one atomic step, so a local bound from it cannot go stale.
TAKES = frozenset({"pop", "popleft", "popitem", "heappop"})
#: The mutation kinds that are coupled-state writes (writes-self).
WRITE_KINDS = frozenset({"store", "del", "call", "take"})


@dataclass(frozen=True)
class YieldPoint:
    """One site in a function at which the cooperative scheduler may
    run arbitrary other events before control returns."""

    line: int
    #: id() of the ``ast.Call`` node in this function's tree (stable
    #: for the lifetime of the parsed Project; not serializable)
    node_id: int
    #: sorted subset of BLOCKING_KINDS the site transitively reaches
    kinds: tuple[str, ...]
    #: display name of what is called at the site
    callee: str
    #: the blocking kind when the site *is* the primitive itself
    #: (``net.invoke``/``clock.sleep``/``wal.fsync``); None when the
    #: yield is inherited through a call edge
    direct: str | None
    #: witness: this site -> ... -> concrete blocking primitive
    chain: tuple[Frame, ...]


@dataclass
class Summary:
    """The interprocedural facts one function exports to its callers."""

    qualname: str
    #: exception type name -> witness chain down to the raise site
    raises: dict[str, tuple[Frame, ...]] = field(default_factory=dict)
    #: effect name ("rpc"/"sleep"/"fsync") -> witness chain to the site
    blocks: dict[str, tuple[Frame, ...]] = field(default_factory=dict)
    #: witness chain to a retrying context (empty: the function does
    #: not retry, itself or below)
    retries: tuple[Frame, ...] = ()
    #: witness chains, one per call site where the held deadline stops
    #: bounding transitive network work (empty: all of it is bounded,
    #: or there is none)
    drops_deadline: tuple[tuple[Frame, ...], ...] = ()
    #: the function reads a deadline it holds somewhere in its body
    reads_deadline: bool = False
    #: every site where this function may yield to the scheduler,
    #: sorted by (line, callee) for deterministic reporting
    yield_points: tuple[YieldPoint, ...] = ()
    #: the self-path mutation sites in this function's body, in walk
    #: order, then its bare self-calls whose summary writes self
    mutations: tuple[Mutation, ...] = ()
    #: self-rooted attribute paths ("scn", "proxy.ramp_percent") the
    #: function writes, itself or through bare self-calls
    writes_self: set[str] = field(default_factory=set)


class Hierarchy:
    """Subtype tests across scanned classes and builtin exceptions."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: scanned-class qualname -> (scanned base qualnames,
        #: unresolved base names assumed builtin)
        self.bases: dict[str, tuple[list[str], list[str]]] = {}
        for qual, cls in graph.classes.items():
            builtin_bases: list[str] = []
            resolved = set(cls.base_names)
            for base in cls.node.bases:
                name = callee_name(base)
                if name and not any(r.endswith("." + name) or r == name
                                    for r in resolved):
                    builtin_bases.append(name)
            self.bases[qual] = (cls.base_names, builtin_bases)

    @staticmethod
    def _builtin(name: str) -> type | None:
        obj = getattr(builtins, name, None)
        return obj if isinstance(obj, type) else None

    def is_subtype(self, sub: str, sup: str) -> bool:
        """May an exception of (scanned qualname or builtin name)
        ``sub`` be caught by ``except sup``?"""
        if sub == sup:
            return True
        if sub in self.bases:
            seen: set[str] = set()
            stack = [sub]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                if current == sup or current.rsplit(".", 1)[-1] == sup:
                    return True
                scanned, builtin_names = self.bases.get(current, ([], []))
                stack.extend(scanned)
                for name in builtin_names:
                    if self._builtin_subtype(name, sup):
                        return True
            return False
        return self._builtin_subtype(sub, sup)

    def _builtin_subtype(self, sub: str, sup: str) -> bool:
        sub_type = self._builtin(sub)
        sup_type = self._builtin(sup.rsplit(".", 1)[-1])
        if sub_type is None or sup_type is None:
            return False
        try:
            return issubclass(sub_type, sup_type)
        except TypeError:
            return False

    def caught_by(self, raised: str,
                  handler_stack: tuple[frozenset[str], ...]) -> bool:
        for specs in handler_stack:
            for spec in specs:
                if spec == "*" or self.is_subtype(raised, spec):
                    return True
        return False


# -- per-function site extraction --------------------------------------------


def self_param_name(fn: FunctionInfo) -> str | None:
    """The receiver parameter name of a method, None for functions."""
    if fn.cls is None:
        return None
    args = fn.node.args
    positional = [*args.posonlyargs, *args.args]
    if not positional:
        return None
    return positional[0].arg


def owning_method(fn: FunctionInfo, graph: CallGraph) -> FunctionInfo:
    """The method a function belongs to: itself, or the method a def is
    nested in (a closure's ``self`` is its method's)."""
    while fn.cls is None and fn.parent in graph.functions:
        fn = graph.functions[fn.parent]
    return fn


def self_path(node: ast.AST, self_name: str) -> str | None:
    """The dotted attribute path an expression names under ``self``,
    looking through subscripts and the results of methods called on a
    path (``self.a[k].b`` -> ``"a.b"``, ``self.x.setdefault(k, [])`` ->
    ``"x"``), or None when it is not rooted at ``self``."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and not isinstance(node.func.value, ast.Name):
            node = node.func.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == self_name and parts:
        return ".".join(reversed(parts))
    return None


def mutations_at(node: ast.AST, self_name: str) -> list[tuple[str, str]]:
    """The one mutation classifier: ``(path, kind)`` for every self
    path this AST node itself (not a child) mutates.  Kinds: ``store``
    (one tuple level unpacked), ``rmw`` (augmented assign), ``del``,
    ``call`` (a :data:`MUTATORS` method on a self path, or a function
    given one) and ``take`` (a :data:`TAKES` call)."""
    if isinstance(node, ast.Call):
        func = node.func
        name = callee_name(func)
        if name in MUTATORS and isinstance(func, ast.Attribute):
            path = self_path(func.value, self_name)
        elif name in _MUTATOR_FUNCTIONS and node.args:
            path = self_path(node.args[0], self_name)
        else:
            return []
        return [(path, "take" if name in TAKES else "call")] if path else []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
            and node.value is not None:
        targets = [node.target]
    else:
        return []
    kind = {ast.AugAssign: "rmw", ast.Delete: "del"}.get(type(node), "store")
    unpacked = [elt for target in targets for elt in (
        target.elts if isinstance(target, (ast.Tuple, ast.List))
        else [target])]
    return [(path, kind) for target in unpacked
            if (path := self_path(target, self_name)) is not None]


_RETRY_TARGET = re.compile(r"attempt|retry|retries|round|tries", re.IGNORECASE)


def retry_catch(loop: ast.AST) -> set[str]:
    """The transport errors a retry-shaped loop catches and goes round
    again on, from its first such handler; empty when it has none (or
    is not a loop at all).

    Retry-shaped: a ``while``, a ``for`` over ``range(...)``, or a
    ``for`` whose target is named like ``attempt``/``retry``/``round``/
    ``tries`` (a fan-out ``for node in replicas`` is not).  A ``range``
    loop whose ``try`` body reads its index sends a different request
    each time round, so that ``try`` is a fan-out's too (``for i in
    range(n): send(i)``), unless the index is named like a retry.  The
    handler goes round again when it neither raises, returns nor
    breaks."""
    index: set[str] = set()
    if isinstance(loop, ast.For):
        named = isinstance(loop.target, ast.Name) \
            and bool(_RETRY_TARGET.search(loop.target.id))
        ranged = isinstance(loop.iter, ast.Call) \
            and isinstance(loop.iter.func, ast.Name) \
            and loop.iter.func.id == "range"
        shaped = named or ranged
        if ranged and not named and isinstance(loop.target, ast.Name):
            index = {loop.target.id}
    else:
        shaped = isinstance(loop, ast.While)
    if not shaped:
        return set()
    for node in ast.walk(loop):
        if not isinstance(node, ast.Try) or index and any(
                reads_any(stmt, index) for stmt in node.body):
            continue
        for handler in node.handlers:
            caught = caught_names(handler) & TRANSPORT_ERROR_NAMES
            if caught and not any(
                    isinstance(sub, (ast.Raise, ast.Return, ast.Break))
                    for stmt in handler.body for sub in ast.walk(stmt)):
                return caught
    return set()


@dataclass(frozen=True)
class Mutation:
    """One site at which a function mutates a self path."""

    path: str
    #: a :func:`mutations_at` kind, or ``self-call`` for a bare
    #: ``self.method()`` call whose summary writes self
    kind: str
    line: int
    #: inside an ``except`` handler body (compensation)
    in_except: bool
    #: id() of the AST node that mutates (the statement or call)
    node_id: int


@dataclass(frozen=True)
class _RaiseSite:
    names: tuple[str, ...]
    line: int
    handlers: tuple[frozenset[str], ...]


class _SiteCollector:
    """One pass over a function body recording, for every ``raise`` and
    every call node, the stack of enclosing handler catch-sets, and
    every self mutation site with whether a handler body holds it."""

    def __init__(self, fn: FunctionInfo, self_name: str | None):
        self.imports = fn.module.ctx.imports
        self.raises: list[_RaiseSite] = []
        #: id(call node) -> (handler stack, inside a handler body?)
        self.call_handlers: dict[
            int, tuple[tuple[frozenset[str], ...], bool]] = {}
        #: direct self.<path> mutation sites, in walk order
        self.mutations: list[Mutation] = []
        #: lines of the retry loops (:func:`retry_catch`), in walk order
        self.retry_loops: list[int] = []
        self._self_name = self_name
        self._walk(list(ast.iter_child_nodes(fn.node)), (), None)

    def _spec_names(self, handler: ast.ExceptHandler) -> frozenset[str]:
        """What a handler catches; a bare one, or one it cannot name,
        catches all."""
        names = caught_names(handler)
        if not names or "*" in names:
            return frozenset({"*"})
        return frozenset(map(self._resolve, names))

    def _resolve(self, name: str) -> str:
        return self.imports.names.get(name) or name

    def _raised_names(self, node: ast.Raise,
                      handler: tuple[frozenset[str], str | None] | None
                      ) -> tuple[str, ...]:
        handler_types = handler[0] if handler else None
        handler_var = handler[1] if handler else None
        exc = node.exc
        if exc is None:
            # bare re-raise: the handler's static catch set escapes
            return tuple(sorted(handler_types or ()))
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            if handler_var is not None and exc.id == handler_var:
                # ``raise e`` inside ``except X as e`` re-raises X
                return tuple(sorted(handler_types or ()))
            return (self._resolve(exc.id),)
        if isinstance(exc, ast.Attribute):
            dotted = self.imports.resolve_call(exc)
            return (dotted or exc.attr,)
        return ()

    def _walk(self, nodes: list[ast.AST],
              stack: tuple[frozenset[str], ...],
              handler: tuple[frozenset[str], str | None] | None) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue                      # separate graph nodes
            if isinstance(node, ast.Raise):
                names = tuple(n for n in
                              self._raised_names(node, handler) if n)
                if names:
                    self.raises.append(
                        _RaiseSite(names, node.lineno, stack))
                # walk the constructor args too (calls may raise)
                self._walk(list(ast.iter_child_nodes(node)), stack, handler)
                continue
            if isinstance(node, ast.Try) or \
                    node.__class__.__name__ == "TryStar":
                specs = tuple(self._spec_names(h) for h in node.handlers)
                merged: frozenset[str] = frozenset().union(*specs) \
                    if specs else frozenset()
                self._walk(list(node.body), stack + ((merged,)
                           if merged else ()), handler)
                for except_clause, spec in zip(node.handlers, specs):
                    self._walk(list(except_clause.body), stack,
                               (spec, except_clause.name))
                self._walk(list(node.orelse), stack, handler)
                self._walk(list(node.finalbody), stack, handler)
                continue
            if isinstance(node, ast.Call):
                self.call_handlers[id(node)] = (stack, handler is not None)
            elif retry_catch(node):
                self.retry_loops.append(node.lineno)
            if self._self_name is not None:
                self.mutations.extend(
                    Mutation(path, kind, node.lineno, handler is not None,
                             id(node))
                    for path, kind in mutations_at(node, self._self_name))
            self._walk(list(ast.iter_child_nodes(node)), stack, handler)


# -- deadline taint ----------------------------------------------------------


def _name_assigns(fn: FunctionInfo) -> list[tuple[str, ast.expr]]:
    """``(name, value)`` of every one-name assignment in the function."""
    return [(node.targets[0].id, node.value) for node in ast.walk(fn.node)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)]


def _deadline_sources(fn: FunctionInfo,
                      assigns: list[tuple[str, ast.expr]]) -> set[str]:
    """Names through which this function holds a request budget: its
    deadline parameters, and locals bound from ``Deadline(...)``,
    ``resilience.Deadline(...)`` or ``Deadline.after(...)``."""
    names = set(deadline_params(fn.node))
    for target, value in assigns:
        if isinstance(value, ast.Call) and "Deadline" in (
                callee_name(value.func),
                callee_name(getattr(value.func, "value", value.func))):
            names.add(target)
    return names


def _taint_closure(assigns: list[tuple[str, ast.expr]],
                   sources: set[str]) -> set[str]:
    """Locals reachable from the deadline by assignment dataflow
    (flow-insensitive: one pass per growth round)."""
    tainted = set(sources)
    while grown := {target for target, value in assigns
                    if target not in tainted and reads_any(value, tainted)}:
        tainted |= grown
    return tainted


# -- the bottom-up computation -----------------------------------------------


def _summarize_once(fn: FunctionInfo, graph: CallGraph,
                    summaries: dict[str, Summary],
                    hierarchy: Hierarchy) -> Summary:
    """One round of the transfer function; callee summaries default to
    empty inside an unconverged SCC."""
    out = Summary(qualname=fn.qualname)
    self_name = self_param_name(owning_method(fn, graph))
    collector = _SiteCollector(fn, self_name)
    calls = {id(call): call for call in scope_calls(fn)}

    # own raise sites
    for site in collector.raises:
        for name in site.names:
            if hierarchy.caught_by(name, site.handlers):
                continue
            out.raises.setdefault(
                name, (fn.frame(site.line, f"raise {bare_name(name)}"),))

    sites = graph.callees(fn.qualname)

    # own shared-state writes (except-handler writes are compensation)
    mutations = collector.mutations
    out.writes_self = {site.path for site in mutations
                       if site.kind in WRITE_KINDS and not site.in_except}

    # blocking and retrying effects, yield points, propagated raises
    # and writes
    if collector.retry_loops:
        out.retries = (fn.frame(collector.retry_loops[0], "<retry loop>"),)
    yields: list[YieldPoint] = []
    for site in sites:
        if site.kind == "retry":
            out.retries = out.retries or (fn.frame(site.line, site.callee),)
            continue
        if site.kind in BLOCKING_KINDS:
            out.blocks.setdefault(
                site.kind, (fn.frame(site.line, site.callee),))
            yields.append(YieldPoint(
                line=site.line, node_id=site.node_id,
                kinds=(site.kind,), callee=site.callee, direct=site.kind,
                chain=(fn.frame(site.line, site.callee),)))
            continue
        callee = summaries.get(site.callee)
        if callee is None:
            continue
        handler_stack, in_except = collector.call_handlers.get(
            site.node_id, ((), False))
        for name, chain in callee.raises.items():
            if name in out.raises:
                continue
            if hierarchy.caught_by(name, handler_stack):
                continue
            out.raises[name] = \
                (fn.frame(site.line, site.callee),) + chain
        for effect, chain in callee.blocks.items():
            if effect not in out.blocks:
                out.blocks[effect] = \
                    (fn.frame(site.line, site.callee),) + chain
        if callee.retries and not out.retries:
            out.retries = (fn.frame(site.line, site.callee),) + callee.retries
        if callee.blocks:
            kinds = tuple(sorted(callee.blocks))
            yields.append(YieldPoint(
                line=site.line, node_id=site.node_id,
                kinds=kinds, callee=site.callee, direct=None,
                chain=(fn.frame(site.line, site.callee),)
                + callee.blocks[kinds[0]]))
        if callee.writes_self and self_name is not None \
                and _is_bare_self_call(calls.get(site.node_id), self_name):
            mutations.append(Mutation(min(callee.writes_self), "self-call",
                                      site.line, in_except, site.node_id))
            out.writes_self |= callee.writes_self
    out.mutations = tuple(mutations)
    out.yield_points = tuple(sorted(
        yields, key=lambda y: (y.line, y.callee, y.kinds)))

    # deadline threading, assuming this function holds a budget
    assigns = _name_assigns(fn)
    deadline_names = _deadline_sources(fn, assigns)
    if deadline_names:
        tainted = _taint_closure(assigns, deadline_names)
        out.reads_deadline = reads_any(fn.node, deadline_names)
        drops: list[tuple[Frame, ...]] = []
        flagged_lines: set[int] = set()
        for site in sites:
            node = calls.get(site.node_id)
            if node is not None and reads_any(node, tainted) \
                    or site.line in flagged_lines:
                continue
            callee = summaries.get(site.callee)
            if site.kind in ("rpc", "retry"):
                below: tuple[Frame, ...] = ()
            elif site.kind in ("call", "ref") and callee is not None \
                    and ("rpc" in callee.blocks or callee.retries):
                below = callee.blocks.get("rpc") or callee.retries
            else:
                continue
            flagged_lines.add(site.line)
            drops.append((fn.frame(site.line, site.callee),) + below)
        out.drops_deadline = tuple(drops)
    return out


def _is_bare_self_call(node: ast.Call | None, self_name: str) -> bool:
    """True for ``self.method(...)`` — the only call shape through
    which writes-self facts propagate to the caller's own state."""
    return (node is not None
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self_name)


def compute_summaries(project: Project) -> dict[str, Summary]:
    """Summaries for every function, callees-first with SCC fixpoints."""
    graph = project.graph
    hierarchy = Hierarchy(graph)
    summaries: dict[str, Summary] = {}
    for component in graph.sccs():
        if len(component) == 1 and not _self_recursive(graph, component[0]):
            fn = graph.functions.get(component[0])
            if fn is not None:
                summaries[fn.qualname] = _summarize_once(
                    fn, graph, summaries, hierarchy)
            continue
        # recursive component: iterate to fixpoint (sets only grow)
        for qual in component:
            summaries[qual] = Summary(qualname=qual)
        changed = True
        while changed:
            changed = False
            for qual in component:
                fn = graph.functions.get(qual)
                if fn is None:
                    continue
                new = _summarize_once(fn, graph, summaries, hierarchy)
                old = summaries[qual]
                if set(new.raises) != set(old.raises) \
                        or set(new.blocks) != set(old.blocks) \
                        or bool(new.retries) != bool(old.retries) \
                        or len(new.drops_deadline) != len(old.drops_deadline) \
                        or len(new.yield_points) != len(old.yield_points) \
                        or new.writes_self != old.writes_self:
                    changed = True
                summaries[qual] = new
    return summaries


def _self_recursive(graph: CallGraph, qualname: str) -> bool:
    return any(site.callee == qualname
               for site in graph.callees(qualname)
               if site.kind in ("call", "ref"))


def iter_public_boundary(project: Project) -> Iterator[FunctionInfo]:
    """The *public API boundary*: functions a user of a subsystem can
    reach from its package namespace.

    A symbol is part of the boundary when a package ``__init__``
    re-exports it (``from repro.x.y import Z``): exported module-level
    functions directly, and every public method of an exported class
    (plus inherited public methods of scanned bases).  Private modules
    can raise what they like internally; these functions are where the
    :mod:`repro.common.errors` taxonomy is the contract.
    """
    graph = project.graph
    exported = {dotted for ctx in project.contexts.values()
                if ctx.rel_path.endswith("__init__.py")
                for dotted in ctx.imports.names.values()}
    seen: set[str] = set()
    for dotted in sorted(exported):
        if dotted in graph.functions:
            info = graph.functions[dotted]
            if info.is_public and info.qualname not in seen:
                seen.add(info.qualname)
                yield info
        if dotted in graph.classes:
            for qual in graph.mro(dotted):
                for method in graph.classes[qual].methods.values():
                    if method.is_public and method.qualname not in seen:
                        seen.add(method.qualname)
                        yield method
