"""Interprocedural atomicity rules over the yield-point summaries.

The cooperative simulation has exactly three ways to lose the CPU:
a simulated RPC, a ``sleep``, or a WAL ``fsync``.  Every such site is
a *yield point* — arbitrary other events run before control returns —
so any multi-step update that straddles one is a race, whether the
yield is in the function's own body or three call frames down.  The
effect-summary layer (:mod:`repro.analysis.summaries`) computes the
transitive yield-point set per function; the three rules here turn it
into convictions:

* ``atomicity-violation`` — the stale-read rule: a local read from
  mutable ``self`` state crosses a yield (a direct
  ``invoke``/``send``/``sleep``/``fsync``, or a call edge that blocks
  somewhere below) and then drives a branch or a shared-state write,
  with no revalidating re-read of the attribute after the yield.  The
  classic Espresso/Databus instance is a master checking its partition
  SCN, invoking a relay, then advancing based on the stale SCN.
  Re-reading after the call is exactly the fix, and a local bound
  *from* the yielding call (``v = self.net.invoke(...)``) is that
  re-read, not the bug.
* ``non-atomic-multi-write`` — two coupled shared-state writes
  separated by a yield with no journal/WAL record between them: the
  torn-state window the crash tests probe dynamically, as a static
  conviction.  Augmented assigns (counter bumps) and stores in
  ``except`` handlers (compensation) are not writes; a bare
  ``self.method()`` whose summary writes state *is*.
* ``yield-in-atomic-section`` — discharges the ``@atomic_section``
  decorator and ``# repro-atomic`` region markers: a marked function
  or region must contain no transitive yield point at all.

The first two walk the CFG path-sensitively (:func:`~repro.analysis.
flow.walk_paths`: a revalidation on one branch clears only that
branch), and all three attach the summary layer's witness chain, so a
conviction reads *read → yield via f → g → primitive → stale use*
without re-derivation.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    Project,
    scope_calls,
    short_name,
)
from repro.analysis.core import Finding, Frame, ProjectRule, register
from repro.analysis.flow import (
    CFG,
    STOP,
    calls_in,
    definitions,
    uses,
    walk_paths,
)
from repro.analysis.summaries import (
    Summary,
    YieldPoint,
    _is_bare_self_call,
    self_param_name,
    self_store_path,
    self_stores,
)

#: Dotted-path components that mark a call as a journaling/WAL record
#: (the durability act that makes a multi-write pair recoverable).
_JOURNAL = re.compile(r"journal|wal", re.IGNORECASE)

_ATOMIC_LINE = re.compile(r"#\s*repro-atomic\s*(?::\s*(begin|end))?\s*$")

_SKIP_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _construction_only(graph: CallGraph) -> frozenset[str]:
    """Functions reachable *only* from constructors, directly or through
    other construction-only functions — recovery/rebuild helpers that run
    before the node joins the schedule, so their yield points cannot
    interleave with live traffic.  A function with no known callers is
    public surface and stays in scope; call cycles conservatively stay
    in scope too (the fixpoint below never admits them)."""
    callers: dict[str, set[str]] = {}
    for caller in graph.functions:
        for site in graph.callees(caller):
            if site.kind in ("call", "ref"):
                callers.setdefault(site.callee, set()).add(caller)
    constructors = {qual for qual, fn in graph.functions.items()
                    if fn.name in _SKIP_METHODS}
    only: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual, srcs in callers.items():
            if qual in only or qual in constructors:
                continue
            if srcs and all(s in constructors or s in only for s in srcs):
                only.add(qual)
                changed = True
    return frozenset(only)


def _methods(project: Project) -> Iterator[tuple[FunctionInfo, Summary]]:
    """Methods with their summaries, deterministic order; constructors
    and construction-only helpers excluded (single-threaded setup
    cannot race)."""
    graph = project.graph
    summaries = project.summaries
    setup_only = _construction_only(graph)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.cls is None or fn.name in _SKIP_METHODS \
                or qualname in setup_only:
            continue
        summary = summaries.get(qualname)
        if summary is not None:
            yield fn, summary


def _tops(paths: Iterable[str]) -> set[str]:
    """The top-level attribute of each dotted self path."""
    return {path.split(".")[0] for path in paths}


def _mutated_attrs(graph: CallGraph, cls_qual: str) -> set[str]:
    """Top-level self attributes any method (in the MRO) stores outside
    ``__init__`` — the state that can actually change under a yield."""
    attrs: set[str] = set()
    for qual in graph.mro(cls_qual):
        info = graph.classes.get(qual)
        if info is None:
            continue
        for name, method in info.methods.items():
            if name in _SKIP_METHODS:
                continue
            self_name = self_param_name(method)
            if self_name is None:
                continue
            for node in ast.walk(method.node):
                if _is_write(node):
                    attrs |= _tops(self_stores(node, self_name))
    return attrs


def _self_load_paths(node: ast.AST, self_name: str) -> set[str]:
    """Full dotted self paths loaded in an expression (receiver loads
    like ``self.x.get(k)`` count; ``self.m(...)`` — the method lookup
    itself — does not)."""
    call_funcs = {id(n.func) for n in ast.walk(node)
                  if isinstance(n, ast.Call)}
    out: set[str] = set()
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in call_funcs):
            continue
        parts = [sub.attr]
        base = sub.value
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id == self_name:
            out.add(".".join(reversed(parts)))
    return out


def _reval_load_paths(element: ast.AST, self_name: str) -> set[str]:
    """Dotted self paths whose load counts as a revalidating re-read.
    For store statements only the right-hand side counts — the Load-ctx
    base of a subscript target (``self.x`` inside ``self.x[k] = v``) is
    part of the write, not a re-read.  An augmented assign additionally
    re-reads its own target (``self.x -= n`` is a read-modify-write)."""
    if isinstance(element, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = element.value
        out = _self_load_paths(value, self_name) if value is not None \
            else set()
        if isinstance(element, ast.AugAssign):
            path = self_store_path(element.target, self_name)
            if path is not None:
                out = out | {path}
        return out
    return _self_load_paths(element, self_name)


def _yield_at(element: ast.AST,
              yields: dict[int, YieldPoint]) -> YieldPoint | None:
    """The first yield point among the calls an element performs."""
    for call in calls_in(element):
        point = yields.get(id(call))
        if point is not None:
            return point
    return None


def _except_lines(fn_node: ast.AST) -> set[int]:
    """Line numbers of statements inside ``except`` handler bodies."""
    lines: set[int] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.ExceptHandler):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if hasattr(sub, "lineno"):
                        lines.add(sub.lineno)
    return lines


def _journal_call(call: ast.Call) -> bool:
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        if _JOURNAL.search(node.attr):
            return True
        node = node.value
    return isinstance(node, ast.Name) and bool(_JOURNAL.search(node.id))


def _durability_record(element: ast.AST,
                       yields: dict[int, YieldPoint]) -> bool:
    """True when the element makes a durability record that covers the
    preceding write: a call whose dotted path names a journal/WAL, a
    direct ``.fsync()``, or a yield point whose witness chain passes a
    journal-named frame (journaling through a helper)."""
    for call in calls_in(element):
        if _journal_call(call):
            return True
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "fsync":
            return True
        point = yields.get(id(call))
        if point is not None and (
                point.direct == "fsync"
                or any(_JOURNAL.search(frame.callee)
                       for frame in point.chain)):
            return True
    return False


def _blocks_on(point: YieldPoint) -> str:
    """``Relay.pull blocks on rpc at pkg/relay.py:40`` — the part of a
    message that names what yields and where the primitive sits."""
    primitive = point.chain[-1]
    return (f"{short_name(point.callee)} blocks on "
            f"{'/'.join(point.kinds)} at {primitive.path}:{primitive.line}")


# -- atomicity-violation -----------------------------------------------------


@register
class AtomicityViolationRule(ProjectRule):
    name = "atomicity-violation"
    summary = ("shared self-state read before a yield point drives a "
               "branch or write after it, without revalidation")
    rationale = ("Any call that blocks — an RPC, a sleep, a WAL fsync, "
                 "direct or however many frames down — is a yield point "
                 "at which peers mutate shared state; acting on a "
                 "pre-yield read afterwards is check-then-act across the "
                 "scheduler. Re-read the attribute after the yield "
                 "returns.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn, summary in _methods(project):
            yields = {y.node_id: y for y in summary.yield_points}
            if not yields:
                continue
            self_name = self_param_name(fn)
            if self_name is None:
                continue
            mutable = _mutated_attrs(project.graph, fn.cls.qualname)
            if not mutable:
                continue
            cfg = fn.module.ctx.cfg(fn.node)
            seen_lines: set[int] = set()
            for use in _stale_uses(cfg, yields, mutable, self_name):
                var, attr, point, element = use
                seen_lines.add(element.lineno)
                yield self.chain_finding(
                    project, fn.rel_path, element.lineno,
                    f"'{var}' was read from self.{attr} before the yield "
                    f"point on line {point.line} "
                    f"({_blocks_on(point)}) but is "
                    f"{'written back' if _is_write(element) else 'branched on'}"
                    f" after it without revalidation; re-read "
                    f"self.{attr} once control returns — any event may "
                    f"have changed it during the yield",
                    (fn.frame(element.lineno, f"stale use of '{var}'"),)
                    + point.chain)
            for path, point, element in _toctou_stores(
                    cfg, yields, mutable, self_name):
                if element.lineno in seen_lines:
                    continue        # already convicted via a stale local
                yield self.chain_finding(
                    project, fn.rel_path, element.lineno,
                    f"self.{path} is read before the yield point on line "
                    f"{point.line} ({_blocks_on(point)}) and written back "
                    f"on line {element.lineno} without re-reading it; "
                    f"any event may have advanced self.{path} during the "
                    f"yield — re-check it before the store",
                    (fn.frame(element.lineno,
                              f"unrevalidated store to self.{path}"),)
                    + point.chain)


def _is_write(element: ast.AST) -> bool:
    return isinstance(element, (ast.Assign, ast.AnnAssign, ast.AugAssign))


def _stale_uses(cfg: CFG, yields: dict[int, YieldPoint], mutable: set[str],
                self_name: str
                ) -> list[tuple[str, str, YieldPoint, ast.AST]]:
    """Stale uses of every local bound from mutable shared state.  The
    path walk starts just after the binding and carries the first
    yield point crossed; after it, a re-read of ``self.<attr>``
    revalidates and ends the path, as does any rebinding of the local,
    and a branch test or shared-state write that reads the local is a
    stale use."""
    found: list[tuple[str, str, YieldPoint, ast.AST]] = []
    for block, index, element in cfg.elements():
        for var, attr in _tracked_defs(element, mutable, self_name, yields):
            reported: set[int] = set()

            def step(current: ast.AST, crossed: YieldPoint | None):
                if crossed is not None:
                    if attr in _tops(_reval_load_paths(current, self_name)):
                        return STOP     # revalidated: tracking ends
                    stale = (isinstance(current, ast.expr)
                             or (_is_write(current)
                                 and self_stores(current, self_name)))
                    if stale and var in uses(current) \
                            and id(current) not in reported:
                        reported.add(id(current))
                        found.append((var, attr, crossed, current))
                if var in definitions(current):
                    return STOP
                return crossed or _yield_at(current, yields)

            walk_paths(cfg, block, index + 1, step)
    return found


def _tracked_defs(element: ast.AST, mutable: set[str], self_name: str,
                  yields: dict[int, YieldPoint]
                  ) -> list[tuple[str, str]]:
    """``(local, attr)`` pairs bound from mutable shared state.  An
    element that itself yields is a post-yield (re)read, not a stale
    source."""
    if not isinstance(element, (ast.Assign, ast.AnnAssign)):
        return []
    value = element.value
    if value is None:
        return []
    if _yield_at(element, yields) is not None:
        return []
    attrs = _tops(_self_load_paths(value, self_name)) & mutable
    if not attrs:
        return []
    attr = sorted(attrs)[0]
    return [(name, attr) for name in definitions(element)]


def _toctou_stores(cfg: CFG, yields: dict[int, YieldPoint],
                   mutable: set[str], self_name: str
                   ) -> list[tuple[str, YieldPoint, ast.AST]]:
    """Check-then-act without a local: a dotted self path is loaded,
    control crosses a yield, and the same path is stored with no
    re-read in between.  A store whose right-hand side re-reads the
    path revalidates itself and clears."""
    found: list[tuple[str, YieldPoint, ast.AST]] = []
    reported: set[tuple[str, int]] = set()
    for block, index, element in cfg.elements():
        if _yield_at(element, yields) is not None:
            continue        # the read rides the yield itself
        paths = {p for p in _reval_load_paths(element, self_name)
                 if p.split(".")[0] in mutable}
        for path in sorted(paths):

            def step(current: ast.AST, crossed: YieldPoint | None):
                stores = path in self_stores(current, self_name)
                if crossed is None:
                    if stores:
                        return STOP     # superseded before any yield
                    return _yield_at(current, yields)
                reloads = _reval_load_paths(current, self_name)
                if path in reloads:
                    return STOP         # revalidated
                if not stores:
                    return crossed
                # a store recomputed from post-yield mutable state is
                # fresh, not a stale write-back
                key = (path, current.lineno)
                if isinstance(current, (ast.Assign, ast.AnnAssign)) \
                        and not _tops(reloads) & mutable \
                        and key not in reported:
                    reported.add(key)
                    found.append((path, crossed, current))
                return STOP             # aug-assign re-reads; plain
                                        # store supersedes the read

            walk_paths(cfg, block, index + 1, step)
    return found


# -- non-atomic-multi-write --------------------------------------------------


@register
class NonAtomicMultiWriteRule(ProjectRule):
    name = "non-atomic-multi-write"
    summary = ("two coupled shared-state writes separated by a yield "
               "point with no journal/WAL record between them")
    rationale = ("A crash or interleaving during the yield observes the "
                 "first write without the second — exactly the torn "
                 "state the crash suites probe; journal the pair before "
                 "yielding, or reorder so both writes share one "
                 "atomic section.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.graph
        summaries = project.summaries
        for fn, summary in _methods(project):
            if not summary.yield_points:
                continue
            self_name = self_param_name(fn)
            if self_name is None:
                continue
            yields = {y.node_id: y for y in summary.yield_points}
            call_nodes = {id(call): call for call in scope_calls(fn)}
            writer_calls: dict[int, tuple[str, tuple[Frame, ...]]] = {}
            for site in graph.callees(fn.qualname):
                if site.kind != "call":
                    continue
                callee = summaries.get(site.callee)
                if callee is None or not callee.writes_self:
                    continue
                # only bare self.method() calls write *this* object's
                # state; self.metrics.counter(...) mutates the registry,
                # not the instance under scrutiny
                if not _is_bare_self_call(call_nodes.get(site.node_id),
                                          self_name):
                    continue
                path = sorted(callee.writes_self)[0]
                writer_calls[site.node_id] = (
                    path, (fn.frame(site.line, site.callee),)
                    + callee.writes_self[path])
            in_except = _except_lines(fn.node)
            cfg = fn.module.ctx.cfg(fn.node)
            for pair in _torn_pairs(cfg, self_name, yields,
                                    writer_calls, in_except):
                first, second, point = pair
                yield self.chain_finding(
                    project, fn.rel_path, second[1],
                    f"self.{first[0]} is written on line {first[1]} and "
                    f"self.{second[0]} on line {second[1]}, with a yield "
                    f"point between (line {point.line}, "
                    f"{short_name(point.callee)} blocks on "
                    f"{'/'.join(point.kinds)}) and no journal/WAL record "
                    f"in between; a crash or interleave during the yield "
                    f"observes the first write without the second — "
                    f"journal the pair before yielding or keep both "
                    f"writes on one side of it",
                    (fn.frame(first[1], f"write self.{first[0]}"),)
                    + point.chain
                    + (fn.frame(second[1], f"write self.{second[0]}"),))


def _element_writes(element: ast.AST, self_name: str,
                    writer_calls: dict[int, tuple[str, tuple[Frame, ...]]],
                    in_except: set[int]) -> list[tuple[str, int]]:
    """Shared-state writes an element performs: direct non-augmented
    stores plus bare self-calls whose summary writes state."""
    if getattr(element, "lineno", 0) in in_except:
        return []
    out: list[tuple[str, int]] = []
    if isinstance(element, (ast.Assign, ast.AnnAssign)):
        out.extend((path, element.lineno)
                   for path in self_stores(element, self_name))
    for call in calls_in(element):
        if id(call) in writer_calls:
            out.append((writer_calls[id(call)][0], call.lineno))
    return out


def _torn_pairs(cfg: CFG, self_name: str,
                yields: dict[int, YieldPoint],
                writer_calls: dict[int, tuple[str, tuple[Frame, ...]]],
                in_except: set[int]
                ) -> list[tuple[tuple[str, int], tuple[str, int],
                                YieldPoint]]:
    """One path walk per first-write element: convict when the *next*
    write on a path sits across a yield with no journal call in
    between."""
    found: list[tuple[tuple[str, int], tuple[str, int], YieldPoint]] = []
    reported: set[tuple[int, int]] = set()
    # a writer call that also yields is a write, not an exposure window
    windows = {node_id: point for node_id, point in yields.items()
               if node_id not in writer_calls}
    for block, index, element in cfg.elements():
        writes = _element_writes(element, self_name, writer_calls,
                                 in_except)
        if not writes:
            continue
        first = writes[-1]

        def step(current: ast.AST, crossed: YieldPoint | None):
            # classify W → J → Y: a writer that also journals is
            # still a write; a journaling yield is a record, not
            # an exposure window
            later = _element_writes(current, self_name, writer_calls,
                                    in_except)
            if later:
                second = later[0]
                key = (first[1], second[1])
                if crossed is not None and second[0] != first[0] \
                        and key not in reported:
                    reported.add(key)
                    found.append((first, second, crossed))
                return STOP             # adjacency: restart at next write
            if _durability_record(current, yields):
                return STOP             # journaled: pair is recoverable
            return crossed or _yield_at(current, windows)

        walk_paths(cfg, block, index + 1, step)
    return found


# -- yield-in-atomic-section -------------------------------------------------


@register
class YieldInAtomicSectionRule(ProjectRule):
    name = "yield-in-atomic-section"
    summary = ("code declared atomic (@atomic_section or # repro-atomic) "
               "contains a transitive yield point")
    rationale = ("An atomic-section declaration is a proof obligation: "
                 "between yield points the cooperative scheduler cannot "
                 "interleave, so marked code relies on having none. A "
                 "blocking call anywhere below the marked statements "
                 "silently voids the invariant.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        regions = {rel_path: _atomic_regions(ctx.source)
                   for rel_path, ctx in sorted(project.contexts.items())}
        setup_only = _construction_only(project.graph)
        for qualname in sorted(project.summaries):
            summary = project.summaries[qualname]
            if not summary.yield_points:
                continue
            fn = project.graph.functions.get(qualname)
            if fn is None or qualname in setup_only:
                continue
            if _declared_atomic(fn.node):
                point = summary.yield_points[0]
                yield self.chain_finding(
                    project, fn.rel_path, point.line,
                    f"{short_name(qualname)}() is declared "
                    f"@atomic_section but yields here: "
                    f"{_blocks_on(point)}; hoist the "
                    f"blocking call out of the atomic section or drop "
                    f"the declaration",
                    point.chain)
                continue
            spans = regions.get(fn.rel_path, [])
            if not spans:
                continue
            for point in summary.yield_points:
                if any(lo <= point.line <= hi for lo, hi in spans):
                    yield self.chain_finding(
                        project, fn.rel_path, point.line,
                        f"statement inside a # repro-atomic region "
                        f"yields: {_blocks_on(point)}; an atomic "
                        f"region must not reach the scheduler",
                        point.chain)


def _declared_atomic(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func \
            if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else ""
        if name == "atomic_section":
            return True
    return False


def _atomic_regions(source: str) -> list[tuple[int, int]]:
    """Inclusive line spans claimed atomic by ``# repro-atomic``
    markers.  A bare marker claims its own line; ``begin``/``end``
    bracket a region (an unclosed ``begin`` extends to end of file)."""
    spans: list[tuple[int, int]] = []
    open_begin: int | None = None
    total = 0
    for lineno, text in enumerate(source.splitlines(), start=1):
        total = lineno
        match = _ATOMIC_LINE.search(text)
        if not match:
            continue
        kind = match.group(1)
        if kind == "begin":
            if open_begin is None:
                open_begin = lineno
        elif kind == "end":
            if open_begin is not None:
                spans.append((open_begin, lineno))
                open_begin = None
        else:
            spans.append((lineno, lineno))
    if open_begin is not None:
        spans.append((open_begin, total))
    return spans
