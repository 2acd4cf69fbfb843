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
  re-read, not the bug.  Mutable state, and what counts as a write,
  is the summary's mutation effect, however the write is spelled; a
  local bound by a *take* (``b = self.q.pop()``) owns its value.
* ``non-atomic-multi-write`` — two coupled shared-state writes
  separated by a yield with no journal/WAL record between them: the
  torn-state window the crash tests probe dynamically, as a static
  conviction.  Augmented assigns (counter bumps) and writes in
  ``except`` handlers (compensation) do not pair; a bare
  ``self.method()`` whose summary writes state does.
* ``yield-in-atomic-section`` — discharges the ``@atomic_section``
  decorator and ``# repro-atomic`` region markers: a marked function
  or region must contain no transitive yield point at all.

The first two are forward dataflows over the CFG, one fixpoint per
method (:func:`~repro.analysis.flow.solve`: a revalidation on one
branch clears only that branch's facts), and all three attach the
summary layer's witness chain, so a conviction reads *read → yield via
f → g → primitive → stale use* without re-derivation.
"""

from __future__ import annotations

import ast
import re
from functools import cached_property
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    CONSTRUCTORS,
    FunctionInfo,
    Project,
    short_name,
)
from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.flow import (
    CFG,
    calls_in,
    callee_name,
    definitions,
    evaluated_nodes,
    names_word,
    replay,
    solve,
    uses,
)
from repro.analysis.summaries import (
    MUTATORS,
    WRITE_KINDS,
    Mutation,
    Summary,
    YieldPoint,
    owning_method,
    self_param_name,
    self_path,
)

#: Name words that mark a call as a journaling/WAL record (the
#: durability act that makes a multi-write pair recoverable).
_JOURNAL = frozenset({"journal", "wal"})

_ATOMIC_LINE = re.compile(r"#\s*repro-atomic\s*(?::\s*(begin|end))?\s*$")


def _methods(project: Project
             ) -> Iterator[tuple[FunctionInfo, Summary, str]]:
    """Methods with their summaries and receiver names, deterministic
    order; constructors and construction-only helpers excluded
    (single-threaded setup cannot race)."""
    graph = project.graph
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if fn.cls is None or fn.name in CONSTRUCTORS \
                or qualname in project.construction_only:
            continue
        summary = project.summaries.get(qualname)
        self_name = self_param_name(fn)
        if summary is not None and self_name is not None:
            yield fn, summary, self_name


def _tops(paths: Iterable[str]) -> set[str]:
    """The top-level attribute of each dotted self path."""
    return {path.split(".")[0] for path in paths}


def _mutable_attrs(project: Project) -> dict[str, set[str]]:
    """Class qualname -> the top-level self attributes some method in
    its MRO (or a def nested in one) mutates outside the constructors,
    however the write is spelled: the state that can change under a
    yield."""
    graph = project.graph
    own: dict[str, set[str]] = {qual: set() for qual in graph.classes}
    for qual, fn in graph.functions.items():
        method = owning_method(fn, graph)
        if method.cls is not None and method.name not in CONSTRUCTORS:
            own[method.cls.qualname] |= _tops(
                site.path for site in project.summaries[qual].mutations)
    return {qual: set().union(*(own[base] for base in graph.mro(qual)))
            for qual in own}


def _element_sites(cfg: CFG, summary: Summary) -> dict[int, list[Mutation]]:
    """The summary's mutation sites grouped by the id of the CFG element
    that performs them, in summary order."""
    if not summary.mutations:
        return {}
    owner = {id(node): id(element) for _, _, element in cfg.elements()
             for node in evaluated_nodes(element)}
    sites: dict[int, list[Mutation]] = {}
    for site in summary.mutations:
        element = owner.get(site.node_id)
        if element is not None:
            sites.setdefault(element, []).append(site)
    return sites


def _self_load_paths(node: ast.AST, self_name: str,
                     skip: set[int] | frozenset[int] = frozenset()
                     ) -> set[str]:
    """Full dotted self paths loaded in an expression (receiver loads
    like ``self.x.get(k)`` count; ``self.m(...)`` — the method lookup
    itself — does not), leaving out the attribute nodes in ``skip``."""
    call_funcs = {id(n.func) for n in ast.walk(node)
                  if isinstance(n, ast.Call)}
    return {path for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load) and id(sub) not in call_funcs
            and id(sub) not in skip
            and (path := self_path(sub, self_name)) is not None}


def _reval_load_paths(element: ast.AST, self_name: str,
                      sites: list[Mutation],
                      skip: set[int] | frozenset[int] = frozenset()
                      ) -> set[str]:
    """Dotted self paths whose load counts as a revalidating re-read.
    For an assignment only its value counts — the Load-ctx base of a
    subscript target (``self.x`` inside ``self.x[k] = v``) is part of
    the write, not a re-read, as is a mutator's receiver (``self.x`` in
    ``self.x.append(v)``) — and a read-modify-write (``self.x -= n``)
    re-reads its own target.  Attribute nodes in ``skip`` are not
    re-reads."""
    if isinstance(element, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        element = element.value
    loads = _self_load_paths(element, self_name, skip) if element else set()
    written = {s.path for s in sites if s.kind in ("call", "take")}
    return loads - written | {s.path for s in sites if s.kind == "rmw"}


def _yield_at(calls: list[ast.Call], yields: dict[int, int]) -> int | None:
    """The index of the first yield point among an element's ``calls``
    (``yields`` maps a call's id to its point's index)."""
    return next((yields[id(call)] for call in calls if id(call) in yields),
                None)


def _journal_call(call: ast.Call) -> bool:
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        if names_word(node.attr, _JOURNAL):
            return True
        node = node.value
    return isinstance(node, ast.Name) and names_word(node.id, _JOURNAL)


def _durability_record(calls: list[ast.Call], journaled: set[int]) -> bool:
    """True when an element's ``calls`` make a durability record that
    covers the preceding write: a call whose dotted path names a
    journal/WAL, a direct ``.fsync()``, or a call in ``journaled``, the
    yield points whose witness chain passes a journal-named frame
    (journaling through a helper) or that are an fsync."""
    return any(_journal_call(call) or id(call) in journaled
               or isinstance(call.func, ast.Attribute)
               and call.func.attr == "fsync" for call in calls)


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
        mutable_attrs = _mutable_attrs(project)
        for fn, summary, self_name in _methods(project):
            mutable = mutable_attrs.get(fn.cls.qualname)
            if not summary.yield_points or not mutable:
                continue
            for var, origin, path, point, element in _stale_uses(
                    fn.module.ctx.cfg(fn.node), summary, mutable,
                    self_name):
                line = element.lineno
                if var is None:
                    message = (
                        f"self.{path} is read before the yield point on "
                        f"line {point.line} ({_blocks_on(point)}) and "
                        f"written back on line {line} without re-reading "
                        f"it; any event may have advanced self.{path} "
                        f"during the yield — re-check it before the store")
                    what = f"unrevalidated store to self.{path}"
                else:
                    use = "branched on" if isinstance(element, ast.expr) \
                        else "written back"
                    built = "" if var == origin else \
                        f"'{var}' was built after the yield from " \
                        f"'{origin}', and "
                    message = (
                        f"{built}'{origin}' was read from self.{path} "
                        f"before the yield point on line {point.line} "
                        f"({_blocks_on(point)}) but is {use} after it "
                        f"without revalidation; re-read self.{path} once "
                        f"control returns — any event may have changed "
                        f"it during the yield")
                    what = f"stale use of '{var}'"
                yield self.chain_finding(
                    project, fn.rel_path, line, message,
                    (fn.frame(line, what),) + point.chain)


class _Element:
    """What the staleness transfer reads off one CFG element: its
    yield, its mutation sites, the self paths it re-reads and, on first
    use, the locals it reads and binds."""

    def __init__(self, node: ast.AST, self_name: str, at: list[Mutation],
                 point: int | None):
        self.node, self.self_name, self.at, self.point = \
            node, self_name, at, point
        self.test = isinstance(node, ast.expr)
        self.wrote = any(site.kind != "self-call" for site in at)
        self.reloads = _reval_load_paths(node, self_name, at)

    @cached_property
    def read(self) -> set[str]:
        return uses(self.node)

    @cached_property
    def defs(self) -> list[str]:
        return definitions(self.node)

    def stores(self, path: str) -> set[str]:
        return {site.kind for site in self.at if site.path == path}

    def built(self) -> list[str]:
        """The locals a non-test element builds: those an assignment
        binds, and the plain local a mutator is called on (``kept`` in
        ``kept.extend(...)``).  A loop target is an element of what it
        iterates, not a copy of the collection, and builds nothing."""
        return (self.defs if isinstance(self.node, (
            ast.Assign, ast.AnnAssign, ast.AugAssign)) else []) + [
            call.func.value.id for call in calls_in(self.node)
            if isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATORS
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id != self.self_name]

    def reloads_past(self, stale: set[str]) -> set[str]:
        """The re-reads that revalidate while the ``stale`` locals live.
        A non-test load through a subscript whose key or slice reads one
        — below it (``self.x`` in ``self.x[len(var):]``) or above it
        (``.y`` in ``self.x[var].y``) — reads shared state *through* the
        stale value and revalidates nothing; a branch test that compares
        fresh state with the local is the revalidation itself."""
        names = stale and stale & self.read
        if self.test or not names:
            return self.reloads
        nodes = list(evaluated_nodes(self.node))
        keyed = {id(node): node for node in nodes
                 if isinstance(node, ast.Subscript)
                 and any(isinstance(name, ast.Name) and name.id in names
                         for name in ast.walk(node.slice))}
        skip = {id(sub) for node in keyed.values()
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Attribute)}
        skip |= {id(sub) for sub in nodes if isinstance(sub, ast.Attribute)
                 and any(id(node) in keyed for node in ast.walk(sub.value))}
        return _reval_load_paths(self.node, self.self_name, self.at, skip)


def _stale_uses(cfg: CFG, summary: Summary, mutable: set[str],
                self_name: str
                ) -> list[tuple[str | None, str | None, str, YieldPoint,
                                ast.AST]]:
    """Stale uses of values read from mutable shared state, as
    ``(holder, origin, path, yield point, element)``, from one forward
    dataflow (DESIGN §15.4).

    A fact is ``(origin, yield, holder)``: the read that produced the
    value, the first yield crossed since (None while fresh) and the
    local that holds it (None: the self path itself).  A non-yielding
    element gens a fresh fact per local it binds from a mutable path (a
    value *taken* by ``pop`` and kin is the local's own) and per
    mutable path it re-reads; a yield turns fresh facts stale.  A
    rebinding kills a local's fact; a store or read-modify-write before
    the yield kills a path's, and so does any store after it.  After
    the yield a re-read of the path (:meth:`_Element.reloads_past`)
    kills either.  A local's stale use is a branch test or mutation
    site that reads it, and any other element that reads it makes what
    it builds stale too (``tail = f(var)``, ``kept.extend(var)``).  The
    path's own stale use is a plain store to it that re-reads no
    mutable state.  Each element is convicted once, by the least fact
    that convicts it: locals before paths, then the reads' element
    order, then the earliest yield point, then the holder's name."""
    sites = _element_sites(cfg, summary)
    yields = {point.node_id: index
              for index, point in enumerate(summary.yield_points)}
    info = {id(element): _Element(element, self_name,
                                  sites.get(id(element), []),
                                  _yield_at(cfg.calls[id(element)], yields))
            for _, _, element in cfg.elements()}
    local_origins, path_origins = [], []
    for _, _, element in cfg.elements():
        at = info[id(element)]
        if at.point is not None:
            continue            # the read rides the yield itself
        if isinstance(element, (ast.Assign, ast.AnnAssign)) \
                and element.value is not None:
            attrs = _tops(_self_load_paths(element.value, self_name)) \
                & mutable - _tops(site.path for site in at.at
                                  if site.kind == "take")
            local_origins.extend((element, name, min(attrs))
                                 for name in at.defs if attrs)
        path_origins.extend((element, None, path) for path in sorted(
            p for p in at.reloads if p.split(".")[0] in mutable))
    origins = local_origins + path_origins
    if not origins:
        return []
    gens: dict[int, list[tuple[int, None, str | None]]] = {}
    for rank, (element, name, _) in enumerate(origins):
        gens.setdefault(id(element), []).append((rank, None, name))

    def step(element: ast.AST, facts: frozenset,
             found: list | None = None) -> frozenset:
        out = set(gens.get(id(element), ()))
        at = info[id(element)]
        local_reloads = at.reloads_past(
            {var for _, point, var in facts if point is not None})
        for fact in facts:
            rank, point, var = fact
            path = origins[rank][2]
            if point is None:
                if var is None and at.stores(path) & {"store", "rmw"} \
                        or var in at.defs:
                    continue
                out.add(fact if at.point is None else (rank, at.point, var))
                continue
            reloads = at.reloads if var is None else local_reloads
            if any(load == path or load.startswith(path + ".")
                   for load in reloads):
                continue        # revalidated
            if var is None:
                if "store" not in at.stores(path):
                    out.add(fact)
                elif found is not None and not _tops(reloads) & mutable:
                    found.append((fact, element))
                continue
            if var in at.read and (at.wrote or at.test):
                if found is not None:
                    found.append((fact, element))
            elif var in at.read:
                out.update((rank, point, built) for built in at.built()
                           if built != var)
            if var not in at.defs:
                out.add(fact)
        return frozenset(out)

    first: dict[int, tuple[tuple[int, int, str | None], ast.AST]] = {}
    for fact, element in sorted(replay(cfg, solve(cfg, step), step),
                                key=lambda pair: pair[0]):
        first.setdefault(id(element), (fact, element))
    return [(var, origins[rank][1], origins[rank][2],
             summary.yield_points[point], element)
            for (rank, point, var), element in first.values()]


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
        for fn, summary, _ in _methods(project):
            if not summary.yield_points:
                continue
            for first, second, point in _torn_pairs(
                    fn.module.ctx.cfg(fn.node), summary):
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


def _torn_pairs(cfg: CFG, summary: Summary
                ) -> list[tuple[tuple[str, int], tuple[str, int],
                                YieldPoint]]:
    """Coupled writes torn by a yield, as ``(first, second, yield
    point)``.  The facts are a pending write and the first yield crossed
    since it: the *next* write on a path convicts each one it meets
    across a yield and replaces them with its own, and a journal/WAL
    record clears them.  A pair of lines is reported once, with its
    earliest yield point."""
    sites = _element_sites(cfg, summary)
    points = summary.yield_points
    journaled = {point.node_id for point in points
                 if point.direct == "fsync"
                 or any(names_word(frame.callee, _JOURNAL)
                        for frame in point.chain)}
    # a writer call that also yields is a write, not an exposure window
    writer_calls = {site.node_id for site in summary.mutations
                    if site.kind == "self-call"}
    windows = {point.node_id: index for index, point in enumerate(points)
               if point.node_id not in writer_calls}
    # coupled writes: not counter bumps, not compensation in an
    # ``except`` handler; a bare self-call whose summary writes state
    writes = {element: written for element, at in sites.items() if (
        written := [(site.path, site.line) for site in at
                    if site.kind in WRITE_KINDS | {"self-call"}
                    and not site.in_except])}
    if not writes:
        return []

    def step(element: ast.AST, facts: frozenset,
             found: list | None = None) -> frozenset:
        # classify W → J → Y: a writer that also journals is still a
        # write; a journaling yield is a record, not an exposure window
        later = writes.get(id(element))
        if later:
            if found is not None:
                found.extend((first[1], later[0][1], point, first, later[0])
                             for first, point in facts
                             if point is not None and first[0] != later[0][0])
            return frozenset({(later[-1], None)})
        calls = cfg.calls[id(element)]
        if not facts or _durability_record(calls, journaled):
            return frozenset()
        point = _yield_at(calls, windows)
        return facts if point is None else frozenset(
            (first, point if crossed is None else crossed)
            for first, crossed in facts)

    pairs: dict[tuple[int, int], tuple] = {}
    for line, second_line, point, first, second in sorted(
            replay(cfg, solve(cfg, step), step)):
        pairs.setdefault((line, second_line), (first, second, points[point]))
    return list(pairs.values())


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
        for qualname in sorted(project.summaries):
            summary = project.summaries[qualname]
            if not summary.yield_points:
                continue
            fn = project.graph.functions.get(qualname)
            if fn is None or qualname in project.construction_only:
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
    return any(callee_name(getattr(decorator, "func", decorator))
               == "atomic_section" for decorator in node.decorator_list)


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
