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
* **writes-self** — which ``self``-rooted attribute paths the function
  stores to (``self.x = …``, ``self.x[k] = …``, ``self.a.b = …``),
  propagated through bare ``self.method()`` calls only: a collaborator
  call (``self.store.put(...)``) does not count as writing *this*
  object's state.  Augmented assigns are excluded (counter bumps are
  not coupled-state transitions), as are stores inside ``except``
  handlers (compensation, not the happy path).
* **drops-deadline** — assuming the function *receives* a deadline
  (a ``deadline``/``budget`` parameter, or one it constructs), does
  that budget flow into every transitive RPC?  Flow is tracked as a
  taint set: the deadline names themselves plus every local assigned
  from an expression that reads a tainted name (``timeout =
  deadline.clamp(t)`` taints ``timeout``).  An RPC-reaching call that
  reads no tainted name is a *drop*; the witness chain runs from that
  call down to a concrete RPC site.

Every set carries one deterministic witness chain of
:class:`~repro.analysis.core.Frame`\\ s so rules can report *entry
point → offending call* without re-deriving paths.

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
from repro.analysis.core import Frame
from repro.analysis.flow import store_targets

#: Effects the blocks analysis tracks, keyed by CallSite.kind.
BLOCKING_KINDS = ("rpc", "sleep", "fsync")


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
    accepts_deadline: bool = False
    #: witness chains, one per call site where the received deadline
    #: stops bounding a transitive RPC (empty: every RPC is bounded,
    #: or there are none)
    drops_deadline: tuple[tuple[Frame, ...], ...] = ()
    #: every site where this function may yield to the scheduler,
    #: sorted by (line, callee) for deterministic reporting
    yield_points: tuple[YieldPoint, ...] = ()
    #: self-rooted attribute path ("scn", "proxy.ramp_percent") ->
    #: witness chain down to the store site
    writes_self: dict[str, tuple[Frame, ...]] = field(default_factory=dict)


class Hierarchy:
    """Subtype tests across scanned classes and builtin exceptions."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: scanned-class qualname -> (scanned base qualnames,
        #: unresolved base names assumed builtin)
        self._bases: dict[str, tuple[list[str], list[str]]] = {}
        for qual, cls in graph.classes.items():
            builtin_bases: list[str] = []
            resolved = set(cls.base_names)
            for base in cls.node.bases:
                name = base.id if isinstance(base, ast.Name) else \
                    base.attr if isinstance(base, ast.Attribute) else ""
                if name and not any(r.endswith("." + name) or r == name
                                    for r in resolved):
                    builtin_bases.append(name)
            self._bases[qual] = (cls.base_names, builtin_bases)

    @staticmethod
    def _builtin(name: str) -> type | None:
        obj = getattr(builtins, name, None)
        return obj if isinstance(obj, type) else None

    def is_subtype(self, sub: str, sup: str) -> bool:
        """May an exception of (scanned qualname or builtin name)
        ``sub`` be caught by ``except sup``?"""
        if sub == sup:
            return True
        if sub in self._bases:
            seen: set[str] = set()
            stack = [sub]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                if current == sup or current.rsplit(".", 1)[-1] == sup:
                    return True
                scanned, builtin_names = self._bases.get(current, ([], []))
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


def self_store_path(target: ast.AST, self_name: str) -> str | None:
    """The dotted attribute path a store target writes under ``self``
    (``self.a.b[k] = v`` -> ``"a.b"``), or None for non-self targets."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == self_name and parts:
        return ".".join(reversed(parts))
    return None


def self_stores(element: ast.AST, self_name: str) -> list[str]:
    """Dotted self paths an assignment element stores to."""
    paths = (self_store_path(target, self_name)
             for target in store_targets(element))
    return [path for path in paths if path is not None]


@dataclass(frozen=True)
class _StoreSite:
    path: str
    line: int
    in_except: bool


@dataclass(frozen=True)
class _RaiseSite:
    names: tuple[str, ...]
    line: int
    handlers: tuple[frozenset[str], ...]


class _SiteCollector:
    """One pass over a function body recording, for every ``raise`` and
    every call node, the stack of enclosing handler catch-sets."""

    def __init__(self, fn: FunctionInfo):
        self.fn = fn
        self.imports = fn.module.ctx.imports
        self.raises: list[_RaiseSite] = []
        #: id(call node) -> handler stack
        self.call_handlers: dict[int, tuple[frozenset[str], ...]] = {}
        #: direct self.<path> stores (augmented assigns excluded)
        self.stores: list[_StoreSite] = []
        self._self_name = self_param_name(fn)
        self._walk(list(ast.iter_child_nodes(fn.node)), (), None)

    def _spec_names(self, handler: ast.ExceptHandler) -> frozenset[str]:
        if handler.type is None:
            return frozenset({"*"})          # bare except catches all
        nodes = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        names: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(self._resolve(node.id))
            elif isinstance(node, ast.Attribute):
                dotted = self.imports.resolve_call(node)
                names.add(dotted or node.attr)
        return frozenset(names) if names else frozenset({"*"})

    def _resolve(self, name: str) -> str:
        dotted = self.imports.names.get(name)
        return dotted or name

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
                self.call_handlers[id(node)] = stack
            if self._self_name is not None and \
                    isinstance(node, (ast.Assign, ast.AnnAssign)):
                self.stores.extend(
                    _StoreSite(path, node.lineno, handler is not None)
                    for path in self_stores(node, self._self_name))
            self._walk(list(ast.iter_child_nodes(node)), stack, handler)


# -- deadline taint ----------------------------------------------------------


def _deadline_sources(fn: FunctionInfo) -> set[str]:
    """Names through which this function holds a request budget."""
    names = set(deadline_params(fn.node))
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            func = node.value.func
            labels: set[str] = set()
            if isinstance(func, ast.Name):
                labels.add(func.id)             # Deadline(...)
            elif isinstance(func, ast.Attribute):
                labels.add(func.attr)           # resilience.Deadline(...)
                if isinstance(func.value, ast.Name):
                    labels.add(func.value.id)   # Deadline.after(...)
            if "Deadline" in labels:
                names.add(node.targets[0].id)
    return names


def _taint_closure(fn: FunctionInfo, sources: set[str]) -> set[str]:
    """Locals reachable from the deadline by assignment dataflow
    (flow-insensitive: one pass per growth round)."""
    tainted = set(sources)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            if target in tainted:
                continue
            if _reads_any(node.value, tainted):
                tainted.add(target)
                changed = True
    return tainted


def _reads_any(expr: ast.AST, names: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in names:
            return True
    return False


# -- the bottom-up computation -----------------------------------------------


def _summarize_once(fn: FunctionInfo, graph: CallGraph,
                    summaries: dict[str, Summary],
                    hierarchy: Hierarchy) -> Summary:
    """One round of the transfer function; callee summaries default to
    empty inside an unconverged SCC."""
    out = Summary(qualname=fn.qualname,
                  accepts_deadline=bool(deadline_params(fn.node)))
    collector = _SiteCollector(fn)
    calls = {id(call): call for call in scope_calls(fn)}

    # own raise sites
    for site in collector.raises:
        for name in site.names:
            if hierarchy.caught_by(name, site.handlers):
                continue
            out.raises.setdefault(
                name, (fn.frame(site.line, f"raise {bare_name(name)}"),))

    sites = graph.callees(fn.qualname)
    self_name = self_param_name(fn)

    # own shared-state stores (except-handler stores are compensation)
    for store in collector.stores:
        if store.in_except:
            continue
        out.writes_self.setdefault(
            store.path,
            (fn.frame(store.line, f"write self.{store.path}"),))

    # blocking effects, yield points, propagated raises and writes
    yields: list[YieldPoint] = []
    for site in sites:
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
        handler_stack = collector.call_handlers.get(site.node_id, ())
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
        if callee.blocks:
            kinds = tuple(sorted(callee.blocks))
            yields.append(YieldPoint(
                line=site.line, node_id=site.node_id,
                kinds=kinds, callee=site.callee, direct=None,
                chain=(fn.frame(site.line, site.callee),)
                + callee.blocks[kinds[0]]))
        if callee.writes_self and self_name is not None \
                and _is_bare_self_call(calls.get(site.node_id), self_name):
            for path, chain in callee.writes_self.items():
                out.writes_self.setdefault(
                    path, (fn.frame(site.line, site.callee),) + chain)
    out.yield_points = tuple(sorted(
        yields, key=lambda y: (y.line, y.callee, y.kinds)))

    # deadline threading, assuming this function holds a budget
    deadline_names = _deadline_sources(fn)
    if deadline_names:
        tainted = _taint_closure(fn, deadline_names)
        reads_anywhere = _reads_any(fn.node, set(deadline_names))
        drops: list[tuple[Frame, ...]] = []
        flagged_lines: set[int] = set()
        for site in sites:
            node = calls.get(site.node_id)
            bounded = node is not None and _reads_any(node, tainted)
            if bounded or site.line in flagged_lines:
                continue
            if site.kind == "rpc":
                # a direct RPC that never sees the budget is the intra
                # deadline-dropped rule's territory when the deadline
                # is wholly unread; interprocedurally we flag it only
                # when the function *does* use the deadline elsewhere
                # but not at this hop
                if reads_anywhere:
                    flagged_lines.add(site.line)
                    drops.append((fn.frame(site.line, site.callee),))
                continue
            if site.kind not in ("call", "ref"):
                continue
            callee = summaries.get(site.callee)
            if callee is None or "rpc" not in callee.blocks:
                continue
            flagged_lines.add(site.line)
            drops.append((fn.frame(site.line, site.callee),)
                         + callee.blocks["rpc"])
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
                        or len(new.drops_deadline) != len(old.drops_deadline) \
                        or len(new.yield_points) != len(old.yield_points) \
                        or set(new.writes_self) != set(old.writes_self):
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
    exported: set[str] = set()
    for ctx in project.contexts.values():
        if not ctx.rel_path.endswith("__init__.py"):
            continue
        for name, dotted in ctx.imports.names.items():
            exported.add(dotted)
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
