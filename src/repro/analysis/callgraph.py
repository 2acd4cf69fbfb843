"""Repo-wide call graph with lightweight receiver-type inference.

The flow rules of PR 4 see one function at a time; the contracts they
protect (deadline budgets, the error taxonomy) are *call-chain*
properties.  This module builds the interprocedural substrate those
contracts need:

* a :class:`Project` bundles every parsed :class:`FileContext` of one
  analyzer run and lazily derives the module/class/function index, the
  call graph, and the effect summaries (each computed once per run and
  shared by every consumer — rules and tests);
* :class:`CallGraph` maps each function to its resolved call sites.
  Resolution is *type-informed but deliberately shallow*: enough to
  follow the idioms this repo actually uses, nothing speculative.

What resolves (the supported idioms):

* module-level functions, direct and through ``from``-import aliases
  (``from m import f as g; g()``);
* constructors (``RoutedStore(...)`` edges to ``RoutedStore.__init__``);
* ``self.method()`` through the enclosing class's MRO, plus edges to
  every override in scanned subclasses (static type may be a base);
* attribute receivers whose type was inferred from ``self.x =
  Collaborator(...)`` in any method, ``self.x: T`` / parameter
  annotations, or ``self.x = param`` where the parameter is annotated —
  chains like ``self.cluster.network.invoke`` resolve link by link;
* local variables bound from a constructor call or annotated parameter;
* functions passed by reference (the ``call_with_retries(fn, ...)``
  pattern the summaries' retries effect follows): a bare ``Name`` or
  ``self.attr`` argument resolving to a known function adds a ``ref``
  edge, treated by the summary layer as a possible call.

Precision notes, honest edition: inference is flow-insensitive (the
last constructor assignment to a name wins), containers and dict
lookups are opaque, ``Optional[T]``/``T | None`` annotations strip to
``T``, and an unresolvable call simply produces no edge — the graph
under-approximates calls into dynamic dispatch it cannot see, so
summary-based rules may miss effects behind first-class function
tables, but every edge that *is* in the graph corresponds to a real
syntactic call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.analysis.core import NETWORK_CALL_ATTRS, FileContext, Frame
from repro.analysis.flow import FUNCTION_NODES, callee_name, walk_scope

#: Parameter names the deadline-threading analysis treats as a budget.
DEADLINE_PARAM_NAMES = frozenset({"deadline", "budget"})

#: Method names that are blocking primitives, by CallSite.kind.
_PRIMITIVES = {**dict.fromkeys(NETWORK_CALL_ATTRS, "rpc"),
               "sleep": "sleep", "fsync": "fsync"}

#: Methods that build an object before anything else can reach it.
CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})


def module_dotted(rel_path: str) -> str:
    """``src/repro/voldemort/routing.py`` -> ``repro.voldemort.routing``."""
    path = rel_path
    if path.endswith(".py"):
        path = path[:-3]
    parts = [p for p in path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def bare_name(qualname: str) -> str:
    """``repro.pkg.mod.Server.get`` -> ``get``."""
    return qualname.rsplit(".", 1)[-1]


def short_name(qualname: str) -> str:
    """``repro.pkg.mod.Server.get`` -> ``Server.get`` (the last two
    components: enough to read, short enough for a message)."""
    return ".".join(qualname.split(".")[-2:])


def deadline_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Parameters that carry a request budget into a function: named
    like one, or annotated ``Deadline``."""
    args = fn.args
    return [arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if arg.arg in DEADLINE_PARAM_NAMES
            or (arg.annotation is not None
                and "Deadline" in ast.dump(arg.annotation))]


@dataclass
class FunctionInfo:
    """One function or method in the scanned project."""

    qualname: str                  # repro.voldemort.routing.RoutedStore.get
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    rel_path: str
    module: "ModuleInfo"
    cls: "ClassInfo | None" = None
    #: qualname of the lexically enclosing function, for nested defs
    parent: str | None = None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def frame(self, line: int, callee: str) -> Frame:
        """A chain frame for something this function does on ``line``."""
        return Frame(path=self.rel_path, line=line,
                     caller=self.qualname, callee=callee)


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, and inferred attribute types."""

    qualname: str
    name: str
    node: ast.ClassDef
    rel_path: str
    module: "ModuleInfo"
    base_names: list[str] = field(default_factory=list)   # resolved qualnames
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class qualname, from ``self.x = C(...)``,
    #: ``self.x: C``, and ``self.x = param`` with an annotated param
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One scanned file: its symbols and import aliases."""

    rel_path: str
    dotted: str
    ctx: FileContext
    classes: dict[str, ClassInfo] = field(default_factory=dict)    # local name
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call (or by-reference use) inside a function.

    ``kind`` is ``call`` for a direct invocation, ``ref`` for a
    function passed by reference (possible deferred call),
    ``rpc``/``sleep``/``fsync`` for direct blocking primitives that
    have no project-level callee, and ``retry`` for a
    ``call_with_retries(...)`` call (beside its ``call`` edge, when the
    function resolves).
    """

    caller: str
    callee: str            # qualname, or the primitive name for effects
    line: int
    kind: str = "call"
    node_id: int = 0       # id() of the AST call node, for per-node queries


class _TypeEnv:
    """Expression -> class-qualname inference inside one function."""

    def __init__(self, graph: "CallGraph", fn: FunctionInfo):
        self.graph = graph
        self.fn = fn
        self.locals: dict[str, str] = {}
        module = fn.module
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            qual = graph._annotation_class(arg.annotation, module)
            if qual:
                self.locals[arg.arg] = qual
        # flow-insensitive constructor/alias bindings
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                qual = self.resolve_expr(stmt.value)
                if qual:
                    self.locals[stmt.targets[0].id] = qual
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                qual = graph._annotation_class(stmt.annotation, module)
                if qual:
                    self.locals[stmt.target.id] = qual

    def resolve_expr(self, expr: ast.expr) -> str | None:
        """Class qualname of ``expr``'s value, or None."""
        graph, module = self.graph, self.fn.module
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.fn.cls is not None:
                return self.fn.cls.qualname
            # bare class names are class objects, not instances; only
            # constructor *calls* below yield instances
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve_expr(expr.value)
            if base is None:
                return None
            return graph._attr_type(base, expr.attr)
        if isinstance(expr, ast.Call):
            cls = graph._class_of_constructor(expr.func, module, self)
            if cls is not None:
                return cls.qualname
            return None
        if isinstance(expr, ast.Await):
            return self.resolve_expr(expr.value)
        return None


class CallGraph:
    """The resolved call graph of one :class:`Project`."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = {m.rel_path: m for m in modules}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: class qualname -> direct subclasses (for override edges)
        self.subclasses: dict[str, list[str]] = {}
        self.call_sites: dict[str, list[CallSite]] = {}
        self._index(modules)
        for module in modules:
            self._resolve_module(module)

    # -- indexing ---------------------------------------------------------

    def _index(self, modules: list[ModuleInfo]) -> None:
        for module in modules:
            for node in module.ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._index_class(module, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._index_function(module, node, cls=None, parent=None)
        # resolve base-class names now that every class is indexed
        for module in modules:
            for cls in module.classes.values():
                for base in cls.node.bases:
                    qual = self._base_qualname(base, module)
                    if qual:
                        cls.base_names.append(qual)
                        self.subclasses.setdefault(qual, []).append(
                            cls.qualname)
        for subs in self.subclasses.values():
            subs.sort()
        # attribute types need the full class index (constructor calls
        # may target classes from other modules)
        for module in modules:
            for cls in module.classes.values():
                self._infer_attr_types(cls)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.dotted}.{node.name}"
        cls = ClassInfo(qualname=qualname, name=node.name, node=node,
                        rel_path=module.rel_path, module=module)
        module.classes[node.name] = cls
        self.classes[qualname] = cls
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, child, cls=cls, parent=None)

    def _index_function(self, module: ModuleInfo,
                        node: ast.FunctionDef | ast.AsyncFunctionDef,
                        cls: ClassInfo | None, parent: str | None) -> None:
        if cls is not None:
            qualname = f"{cls.qualname}.{node.name}"
        elif parent is not None:
            qualname = f"{parent}.{node.name}"
        else:
            qualname = f"{module.dotted}.{node.name}"
        info = FunctionInfo(qualname=qualname, name=node.name, node=node,
                            rel_path=module.rel_path, module=module,
                            cls=cls, parent=parent)
        self.functions[qualname] = info
        if cls is not None:
            cls.methods[node.name] = info
        elif parent is None:
            module.functions[node.name] = info
        # nested defs become their own nodes, scoped by the enclosing
        # function's qualname; each recursion level indexes only its
        # *direct* nested defs (grandchildren belong to the child)
        for child in walk_scope(ast.iter_child_nodes(node), lambdas=True):
            if isinstance(child, FUNCTION_NODES):
                self._index_function(module, child, cls=None,
                                     parent=qualname)

    def _base_qualname(self, base: ast.expr, module: ModuleInfo) -> str | None:
        if isinstance(base, ast.Name):
            cls = self._lookup_class(base.id, module)
            return cls.qualname if cls else None
        if isinstance(base, ast.Attribute):
            dotted = module.ctx.imports.resolve_call(base)
            if dotted and dotted in self.classes:
                return dotted
        return None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        for method in cls.methods.values():
            env = _TypeEnv(self, method)
            for stmt in ast.walk(method.node):
                target = None
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    if stmt.annotation is not None:
                        qual = self._annotation_class(stmt.annotation,
                                                      cls.module)
                        if qual and _is_self_attr(target):
                            cls.attr_types.setdefault(target.attr, qual)
                            continue
                    value = stmt.value
                if target is None or value is None \
                        or not _is_self_attr(target):
                    continue
                qual = env.resolve_expr(value)
                if qual:
                    cls.attr_types.setdefault(target.attr, qual)

    # -- lookups ----------------------------------------------------------

    def _lookup_class(self, name: str, module: ModuleInfo) -> ClassInfo | None:
        if name in module.classes:
            return module.classes[name]
        dotted = module.ctx.imports.names.get(name)
        if dotted and dotted in self.classes:
            return self.classes[dotted]
        return None

    def _lookup_function(self, name: str,
                         module: ModuleInfo) -> FunctionInfo | None:
        if name in module.functions:
            return module.functions[name]
        dotted = module.ctx.imports.names.get(name)
        if dotted and dotted in self.functions:
            return self.functions[dotted]
        return None

    def _annotation_class(self, annotation: ast.expr,
                          module: ModuleInfo) -> str | None:
        """Class qualname named by an annotation, stripping Optional/
        union wrappers and string quoting."""
        node: ast.expr | None = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        while True:
            if isinstance(node, ast.Subscript):   # Optional[T] / list[T]
                if callee_name(node.value) in ("Optional", "Union"):
                    inner = node.slice
                    if isinstance(inner, ast.Tuple) and inner.elts:
                        node = inner.elts[0]
                    else:
                        node = inner
                    continue
                return None                        # containers stay opaque
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                left = node.left                   # T | None -> T
                if isinstance(left, ast.Constant) and left.value is None:
                    node = node.right
                else:
                    node = left
                continue
            break
        if isinstance(node, ast.Name):
            cls = self._lookup_class(node.id, module)
            return cls.qualname if cls else None
        if isinstance(node, ast.Attribute):
            dotted = module.ctx.imports.resolve_call(node)
            return dotted if dotted in self.classes else None
        return None

    def mro(self, qualname: str) -> list[str]:
        """DFS linearization of a class and its scanned bases."""
        out: list[str] = []
        stack = [qualname]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            out.append(current)
            stack = self.classes[current].base_names + stack
        return out

    def _attr_type(self, class_qual: str, attr: str) -> str | None:
        for qual in self.mro(class_qual):
            found = self.classes[qual].attr_types.get(attr)
            if found:
                return found
        return None

    def resolve_method(self, class_qual: str, method: str,
                       with_overrides: bool = True) -> list[str]:
        """Method qualnames a ``recv.method()`` call may reach: the MRO
        match plus (static types being bases) every scanned override."""
        out: list[str] = []
        for qual in self.mro(class_qual):
            info = self.classes[qual].methods.get(method)
            if info is not None:
                out.append(info.qualname)
                break
        if with_overrides:
            stack = list(self.subclasses.get(class_qual, ()))
            seen: set[str] = set()
            while stack:
                sub = stack.pop(0)
                if sub in seen:
                    continue
                seen.add(sub)
                info = self.classes[sub].methods.get(method) \
                    if sub in self.classes else None
                if info is not None and info.qualname not in out:
                    out.append(info.qualname)
                stack.extend(self.subclasses.get(sub, ()))
        return out

    def _class_of_constructor(self, func: ast.expr, module: ModuleInfo,
                              env: "_TypeEnv") -> ClassInfo | None:
        if isinstance(func, ast.Name):
            return self._lookup_class(func.id, module)
        if isinstance(func, ast.Attribute):
            dotted = module.ctx.imports.resolve_call(func)
            if dotted and dotted in self.classes:
                return self.classes[dotted]
            # Deadline.after(...)-style alternate constructors: a
            # classmethod on a resolvable class returning an instance
            if isinstance(func.value, ast.Name):
                cls = self._lookup_class(func.value.id, module)
                if cls is not None and func.attr in cls.methods:
                    method = cls.methods[func.attr]
                    for deco in method.node.decorator_list:
                        if isinstance(deco, ast.Name) \
                                and deco.id == "classmethod":
                            return cls
        return None

    # -- call-site resolution ---------------------------------------------

    def _resolve_module(self, module: ModuleInfo) -> None:
        for info in self.functions.values():
            if info.module is module:
                self.call_sites[info.qualname] = \
                    sorted(self._resolve_function(info),
                           key=lambda s: (s.line, s.callee, s.kind))

    def _resolve_function(self, fn: FunctionInfo) -> Iterator[CallSite]:
        env = _TypeEnv(self, fn)
        for node in scope_calls(fn):
            line = getattr(node, "lineno", fn.node.lineno)
            yield from self._effect_sites(fn, node, line)
            for callee in self._callees_of(node.func, fn, env):
                yield CallSite(caller=fn.qualname, callee=callee,
                               line=line, kind="call", node_id=id(node))
            # functions passed by reference (callbacks, retried fns)
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                for callee in self._ref_targets(arg, fn, env):
                    yield CallSite(caller=fn.qualname, callee=callee,
                                   line=line, kind="ref", node_id=id(node))

    def _effect_sites(self, fn: FunctionInfo, node: ast.Call,
                      line: int) -> Iterator[CallSite]:
        name = callee_name(node.func)
        kind = "retry" if name == "call_with_retries" else \
            _PRIMITIVES.get(name) if isinstance(node.func, ast.Attribute) \
            else None
        if kind is not None:
            yield CallSite(fn.qualname, f"<{name}>", line, kind=kind,
                           node_id=id(node))

    def _callees_of(self, func: ast.expr, fn: FunctionInfo,
                    env: _TypeEnv) -> list[str]:
        module = fn.module
        if isinstance(func, ast.Name):
            named = self._named_function(func.id, fn)
            if named:
                return named
            cls = self._lookup_class(func.id, module)
            if cls is not None:
                init = self.resolve_method(cls.qualname, "__init__",
                                           with_overrides=False)
                return init
            return []
        if isinstance(func, ast.Attribute):
            recv_type = env.resolve_expr(func.value)
            if recv_type is not None:
                return self.resolve_method(recv_type, func.attr)
            # ClassName.method(...) and module.func(...)
            dotted = module.ctx.imports.resolve_call(func)
            if dotted:
                if dotted in self.functions:
                    return [dotted]
                owner, _, method = dotted.rpartition(".")
                if owner in self.classes:
                    return self.resolve_method(owner, method)
            if isinstance(func.value, ast.Name):
                cls = self._lookup_class(func.value.id, module)
                if cls is not None:
                    return self.resolve_method(cls.qualname, func.attr,
                                               with_overrides=False)
        return []

    def _named_function(self, name: str, fn: FunctionInfo) -> list[str]:
        """The function a bare name in ``fn`` denotes: a def nested in
        this frame first, then a module-level or imported one."""
        nested = f"{fn.qualname}.{name}"
        if nested in self.functions:
            return [nested]
        target = self._lookup_function(name, fn.module)
        return [target.qualname] if target is not None else []

    def _ref_targets(self, arg: ast.expr, fn: FunctionInfo,
                     env: _TypeEnv) -> list[str]:
        if isinstance(arg, ast.Name):
            return self._named_function(arg.id, fn)
        if isinstance(arg, ast.Attribute) and \
                isinstance(arg.value, ast.Name):
            recv_type = env.resolve_expr(arg.value)
            if recv_type is not None:
                return self.resolve_method(recv_type, arg.attr)
        return []

    # -- graph queries -----------------------------------------------------

    def callees(self, qualname: str) -> list[CallSite]:
        return self.call_sites.get(qualname, [])

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers) — the summary computation order.
        Iterative Tarjan, deterministic by construction."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        out: list[list[str]] = []
        counter = [0]

        def edges(fn: str) -> list[str]:
            seen: list[str] = []
            for site in self.call_sites.get(fn, ()):
                if site.kind in ("call", "ref") \
                        and site.callee in self.functions \
                        and site.callee not in seen:
                    seen.append(site.callee)
            return seen

        for root in sorted(self.functions):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                targets = edges(node)
                while edge_index < len(targets):
                    target = targets[edge_index]
                    edge_index += 1
                    if target not in index:
                        work[-1] = (node, edge_index)
                        work.append((target, 0))
                        advanced = True
                        break
                    if target in on_stack:
                        low[node] = min(low[node], index[target])
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return out


def _is_self_attr(target: ast.expr) -> bool:
    return isinstance(target, ast.Attribute) \
        and isinstance(target.value, ast.Name) \
        and target.value.id == "self"


def scope_calls(fn: FunctionInfo) -> Iterator[ast.Call]:
    """Call nodes of this function's own body: nested defs excluded
    (they are separate graph nodes), lambdas included (they run in
    this frame's dynamic extent)."""
    for node in walk_scope(ast.iter_child_nodes(fn.node), lambdas=True):
        if isinstance(node, ast.Call):
            yield node


class Project:
    """Every parsed file of one analyzer run, plus the derived (and
    per-run cached) interprocedural artifacts."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts = {ctx.rel_path: ctx for ctx in contexts}

    @cached_property
    def graph(self) -> CallGraph:
        return CallGraph([
            ModuleInfo(rel_path=ctx.rel_path,
                       dotted=module_dotted(ctx.rel_path), ctx=ctx)
            for ctx in sorted(self.contexts.values(),
                              key=lambda c: c.rel_path)])

    @cached_property
    def summaries(self):
        from repro.analysis.summaries import compute_summaries
        return compute_summaries(self)

    @cached_property
    def construction_only(self) -> frozenset[str]:
        """Functions reachable *only* from constructors, directly or
        through other such functions; one with no known callers (public
        surface) or on a call cycle stays out."""
        callers: dict[str, set[str]] = {}
        for caller in self.graph.functions:
            for site in self.graph.callees(caller):
                if site.kind in ("call", "ref"):
                    callers.setdefault(site.callee, set()).add(caller)
        constructors = {qual for qual, fn in self.graph.functions.items()
                        if fn.name in CONSTRUCTORS}
        only: set[str] = set()
        while True:
            known = constructors | only
            grown = {qual for qual, srcs in callers.items()
                     if qual not in known and srcs <= known}
            if not grown:
                return frozenset(only)
            only |= grown
