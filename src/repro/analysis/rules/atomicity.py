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
    CONSTRUCTORS,
    FunctionInfo,
    Project,
    short_name,
)
from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.flow import (
    CFG,
    STOP,
    calls_in,
    callee_name,
    definitions,
    evaluated_nodes,
    names_word,
    uses,
    walk_paths,
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

#: id(CFG element) -> the summary's mutation sites the element performs
Sites = dict[int, list[Mutation]]


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


def _element_sites(cfg: CFG, summary: Summary) -> Sites:
    """The summary's mutation sites grouped by the CFG element that
    performs them, in summary order."""
    if not summary.mutations:
        return {}
    owner = {id(node): id(element) for _, _, element in cfg.elements()
             for node in evaluated_nodes(element)}
    sites: Sites = {}
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


def _keyed_by(element: ast.AST, names: set[str]) -> set[int]:
    """The attribute nodes an element loads through a subscript whose
    key or slice reads one of ``names`` — below it (``self.x`` in
    ``self.x[len(var):]``) or above it (``.y`` in ``self.x[var].y``):
    such a load reads shared state *through* a stale local."""
    nodes = list(evaluated_nodes(element))
    keyed = [node for node in nodes if isinstance(node, ast.Subscript)
             and any(isinstance(name, ast.Name) and name.id in names
                     for name in ast.walk(node.slice))]
    below = {id(sub) for node in keyed for sub in ast.walk(node.value)
             if isinstance(sub, ast.Attribute)}
    keyed_ids = {id(node) for node in keyed}
    above = {id(sub) for sub in nodes if isinstance(sub, ast.Attribute)
             and any(id(node) in keyed_ids for node in ast.walk(sub.value))}
    return below | above


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


def _yield_at(element: ast.AST,
              yields: dict[int, YieldPoint]) -> YieldPoint | None:
    """The first yield point among the calls an element performs."""
    for call in calls_in(element):
        point = yields.get(id(call))
        if point is not None:
            return point
    return None


def _journal_call(call: ast.Call) -> bool:
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        if names_word(node.attr, _JOURNAL):
            return True
        node = node.value
    return isinstance(node, ast.Name) and names_word(node.id, _JOURNAL)


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
                or any(names_word(frame.callee, _JOURNAL)
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
        mutable_attrs = _mutable_attrs(project)
        for fn, summary, self_name in _methods(project):
            yields = {y.node_id: y for y in summary.yield_points}
            mutable = mutable_attrs.get(fn.cls.qualname)
            if not yields or not mutable:
                continue
            cfg = fn.module.ctx.cfg(fn.node)
            sites = _element_sites(cfg, summary)
            for var, origin, path, point, element in _stale_uses(
                    cfg, yields, mutable, self_name, sites):
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


def _stale_uses(cfg: CFG, yields: dict[int, YieldPoint], mutable: set[str],
                self_name: str, sites: Sites
                ) -> list[tuple[str | None, str | None, str, YieldPoint,
                                ast.AST]]:
    """Stale uses of values read from mutable shared state, as
    ``(holder, origin, path, yield point, element)``.

    One fact is tracked per read: an element that loads a mutable self
    path (and does not itself yield) starts a path walk that carries
    the first yield point crossed.  The value lives either in a local
    the element binds (``origin``; the path is then the attribute it
    was read from) or, with no local, in the path itself (holder and
    origin None).  After the yield a re-read of the path revalidates
    and ends the walk.  A local's stale use is a branch test or a
    shared-state write (a mutation site of any kind) that reads it; a
    rebinding of the local ends its walk.  The path's own stale use is
    a plain store to it that re-reads no mutable state (a store
    recomputed from post-yield state is fresh); a store or
    read-modify-write before the yield supersedes the read.

    A write's re-read whose subscript or slice reads a stale local
    (``self.x = kept + self.x[len(var):]``) leans on the stale value
    and revalidates nothing; a branch test that compares fresh state
    with the local is the revalidation itself, however it indexes.
    After the yield, a local built from a stale one by an assignment
    (``tail = f(var)``) or by a mutator called on it
    (``kept.extend(var)``) is stale too, and is followed from there
    (:func:`_built_locals`).  Each element is convicted once, by the
    first fact to reach it, locals before paths."""
    found: list[tuple[str | None, str | None, str, YieldPoint, ast.AST]] = []
    convicted: set[int] = set()
    position = {id(element): (block, index)
                for block, index, element in cfg.elements()}
    local_facts: list[tuple[ast.AST, str, str | None]] = []
    path_facts: list[tuple[ast.AST, str, str | None]] = []
    for _, _, element in cfg.elements():
        if _yield_at(element, yields) is not None:
            continue            # the read rides the yield itself
        at = sites.get(id(element), [])
        local_facts.extend((element, attr, name) for name, attr
                           in _tracked_defs(element, mutable, self_name, at))
        path_facts.extend((element, path, None) for path in sorted(
            p for p in _reval_load_paths(element, self_name, at)
            if p.split(".")[0] in mutable))

    def follow(path: str, origin: str | None, var: str | None,
               stale: set[str], start: ast.AST,
               crossed: YieldPoint | None,
               followed: set[tuple[str, int]]) -> None:
        def step(current: ast.AST, crossed: YieldPoint | None):
            at = sites.get(id(current), [])
            stores = {site.kind for site in at if site.path == path}
            if crossed is None:
                if var is None and stores & {"store", "rmw"}:
                    return STOP     # superseded before any yield
            else:
                test = isinstance(current, ast.expr)
                read = uses(current) if var is not None else set()
                keys = stale & read
                skip = _keyed_by(current, keys) \
                    if keys and not test else frozenset()
                reloads = _reval_load_paths(current, self_name, at, skip)
                if any(load == path or load.startswith(path + ".")
                       for load in reloads):
                    return STOP     # revalidated: tracking ends
                if var is None:
                    if "store" not in stores:
                        return crossed
                    if not _tops(reloads) & mutable \
                            and id(current) not in convicted:
                        convicted.add(id(current))
                        found.append((None, None, path, crossed, current))
                    return STOP     # a plain store supersedes
                wrote = any(site.kind != "self-call" for site in at)
                if var in read and (wrote or test):
                    if id(current) not in convicted:
                        convicted.add(id(current))
                        found.append((var, origin, path, crossed, current))
                elif var in read:
                    for carrier in _built_locals(current, self_name):
                        if carrier not in stale and (
                                carrier, id(current)) not in followed:
                            followed.add((carrier, id(current)))
                            follow(path, origin, carrier, stale | {carrier},
                                   current, crossed, followed)
            if var is not None and var in definitions(current):
                return STOP
            return crossed or _yield_at(current, yields)

        at_block, at_index = position[id(start)]
        walk_paths(cfg, at_block, at_index + 1, step, crossed)

    for element, path, var in local_facts + path_facts:
        follow(path, var, var, {var} if var else set(), element, None,
               set())
    return found


def _built_locals(element: ast.AST, self_name: str) -> list[str]:
    """Locals a non-test element builds: the names an assignment binds,
    and the receiver of a mutator it calls on a plain local (``kept`` in
    ``kept.extend(...)``).  A loop target is an element of what it
    iterates, not a copy of the collection, and builds nothing."""
    built = definitions(element) if isinstance(
        element, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else []
    for call in calls_in(element):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS \
                and isinstance(func.value, ast.Name) \
                and func.value.id != self_name:
            built.append(func.value.id)
    return built


def _tracked_defs(element: ast.AST, mutable: set[str], self_name: str,
                  sites: list[Mutation]) -> list[tuple[str, str]]:
    """``(local, attr)`` pairs bound from mutable shared state.  A value
    *taken* out of shared state (``pop`` and kin) is owned by the
    local: it left the attribute atomically."""
    if not isinstance(element, (ast.Assign, ast.AnnAssign)) \
            or element.value is None:
        return []
    taken = _tops(site.path for site in sites if site.kind == "take")
    attrs = (_tops(_self_load_paths(element.value, self_name)) & mutable) \
        - taken
    return [(name, min(attrs)) for name in definitions(element)] \
        if attrs else []


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


def _element_writes(sites: list[Mutation]) -> list[tuple[str, int]]:
    """Coupled shared-state writes among an element's mutation sites:
    not counter bumps, not compensation in an ``except`` handler; a
    bare self-call whose summary writes state is one."""
    return [(site.path, site.line) for site in sites
            if site.kind in WRITE_KINDS | {"self-call"}
            and not site.in_except]


def _torn_pairs(cfg: CFG, summary: Summary
                ) -> list[tuple[tuple[str, int], tuple[str, int],
                                YieldPoint]]:
    """One path walk per first-write element: convict when the *next*
    write on a path sits across a yield with no journal call in
    between."""
    found: list[tuple[tuple[str, int], tuple[str, int], YieldPoint]] = []
    reported: set[tuple[int, int]] = set()
    yields = {y.node_id: y for y in summary.yield_points}
    sites = _element_sites(cfg, summary)
    # a writer call that also yields is a write, not an exposure window
    writer_calls = {site.node_id for site in summary.mutations
                    if site.kind == "self-call"}
    windows = {node_id: point for node_id, point in yields.items()
               if node_id not in writer_calls}
    for block, index, element in cfg.elements():
        writes = _element_writes(sites.get(id(element), []))
        if not writes:
            continue
        first = writes[-1]

        def step(current: ast.AST, crossed: YieldPoint | None):
            # classify W → J → Y: a writer that also journals is
            # still a write; a journaling yield is a record, not
            # an exposure window
            later = _element_writes(sites.get(id(current), []))
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
