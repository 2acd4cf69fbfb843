"""The census: every public class, function, method and constructor
option under ``src/repro`` has a reader.

The linter in ``repro/analysis`` reads source text rather than calling
the system, so it is neither counted nor scanned.  Everything else is
put in one of three classes by reach over the repo's own call graph
(:mod:`repro.analysis.callgraph`):

* **reached from a root** — the ``perfbench`` workloads,
  ``run_day_in_the_life``, ``examples/`` and the tests EXPERIMENTS.md
  names in its "Asserted by" column;
* **reached only from other tests** — each such symbol needs a row in
  the DESIGN §18 table naming its owning test files and why it stays;
* **reached by nothing** — deleted.

Reach follows resolved call edges, and falls back to names where the
graph cannot resolve a dispatch: an unresolved call, any other use of a
name, an identifier in a string literal (the transform registry names
its functions that way), and a test's parameters (pytest fixtures).  A
name reaches test code only in its own module or a ``conftest.py``.
The census may therefore over-count readers; it never calls a live
symbol dead.  Imports and ``__all__`` are not readers.  A name
imported from a package that re-exports it resolves to the module that
defines it.

An option (a defaulted ``__init__`` parameter of a public class) is set
when some scanned call passes it: by keyword or as a key of a dict
literal given with ``**``, or by position in a call naming the class.
A keyword sets an option only of the class the graph resolves the call
to construct, or, through a callee that forwards its ``**kwargs``, of
the classes its forwarding calls construct; bound to a plain function's
parameter it sets none.  Where the graph resolves no callee, or
``**kwargs`` go where no call passes them on, the keyword is matched by
name alone, so the census never calls a set option unset.  Outside its
workloads, ``perfbench`` names ``repro`` only in its tracer's patch
list, which is not a reader, so only the workloads are scanned.
"""

from __future__ import annotations

import ast
import math
import re
import textwrap
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis.callgraph import FileContext, Project, module_dotted

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/repro", "tests", "perfbench/workloads", "examples")
NOT_SCANNED = ("src/repro/analysis/", "tests/analysis/fixtures/")
ROOT_FILES = ("perfbench/workloads/", "examples/")
ROOT_FUNCTIONS = ("repro.workloads.day_in_the_life.run_day_in_the_life",)
TEST_ID = re.compile(r"`tests/([\w/]+)\.py::(?:(\w+)::)?(\w+)`")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scanned_sources(root: Path) -> dict[str, str]:
    sources = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if not rel.startswith(NOT_SCANNED):
                sources[rel] = path.read_text(encoding="utf-8")
    return sources


def asserted_tests(experiments: str) -> list[str]:
    """Qualnames of the tests the "Asserted by" cells name."""
    return sorted({".".join(["tests", *path.split("/"),
                             *filter(None, (cls, name))])
                   for path, cls, name in TEST_ID.findall(experiments)})


@dataclass
class Unit:
    """Code that runs as one piece once something reaches it: a
    top-level function or method (nested defs folded in), a class body,
    or a module's top-level statements."""

    key: str
    rel_path: str
    nodes: list[ast.AST]
    lines: int = 0
    refs: set[str] = field(default_factory=set)
    edges: set[str] = field(default_factory=set)


def _module_statements(tree: ast.Module) -> list[ast.AST]:
    return [stmt for stmt in tree.body
            if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef))
            and not (isinstance(stmt, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "__all__"
                             for t in stmt.targets))]


def _class_statements(node: ast.ClassDef) -> list[ast.AST]:
    return [*node.decorator_list, *node.bases, *node.keywords,
            *[stmt for stmt in node.body if not isinstance(stmt, FUNCTIONS)]]


def _names_in(nodes: list[ast.AST], resolved: set[int],
              fixtures: bool) -> set[str]:
    """Every name the nodes use, except the method name of a call the
    graph resolved (that call is an edge instead)."""
    names: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and id(node) not in resolved:
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and all(part.isidentifier()
                        for part in node.value.split(".")):
            names.update(node.value.split("."))
        elif fixtures and isinstance(node, ast.arg):
            names.add(node.arg)
        stack.extend(ast.iter_child_nodes(node))
    return names


def build_units(project: Project) -> dict[str, Unit]:
    graph = project.graph
    units: dict[str, Unit] = {}

    def owner(qualname: str) -> str:
        while graph.functions[qualname].parent is not None:
            qualname = graph.functions[qualname].parent
        return qualname

    for module in graph.modules.values():
        units[module.dotted] = Unit(module.dotted, module.rel_path,
                                    _module_statements(module.ctx.tree))
    for cls in graph.classes.values():
        node = cls.node
        units[cls.qualname] = Unit(
            cls.qualname, cls.rel_path, _class_statements(node),
            lines=node.end_lineno - node.lineno + 1,
            # a constructed class runs its dunders and its bases' code
            edges={*cls.base_names,
                   *(info.qualname for name, info in cls.methods.items()
                     if name.startswith("__") and name.endswith("__"))})
    for fn in graph.functions.values():
        if fn.parent is None:
            units[fn.qualname] = Unit(
                fn.qualname, fn.rel_path, [fn.node],
                lines=fn.node.end_lineno - fn.node.lineno + 1)
    resolved: dict[str, set[int]] = defaultdict(set)
    for fn in graph.functions.values():
        unit = units[owner(fn.qualname)]
        calls = set()
        for site in graph.callees(fn.qualname):
            if site.kind in ("call", "ref") and site.callee in graph.functions:
                unit.edges.add(owner(site.callee))
                if site.kind == "call":
                    calls.add(site.node_id)
        # a method call the graph resolved is an edge, not a name
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and id(node) in calls \
                    and isinstance(node.func, ast.Attribute):
                resolved[unit.key].add(id(node.func))
    for unit in units.values():
        unit.refs = _names_in(unit.nodes, resolved[unit.key],
                              fixtures=unit.rel_path.startswith("tests/"))
        module = graph.modules[unit.rel_path].dotted
        if unit.key != module:
            unit.edges.add(module)   # reaching a symbol imports its module
    return units


def follow_reexports(contexts: list[FileContext]) -> None:
    """Point each from-import at the module that defines the name rather
    than a package that re-exports it, so the graph resolves ``from
    repro.kafka import Producer`` to ``repro.kafka.producer.Producer``."""
    packages = {module_dotted(ctx.rel_path): ctx.imports.names
                for ctx in contexts if ctx.rel_path.endswith("/__init__.py")}
    for ctx in contexts:
        names = ctx.imports.names
        for local, dotted in names.items():
            package, _, name = dotted.rpartition(".")
            while packages.get(package, {}).get(name, dotted) != dotted:
                dotted = packages[package][name]
                package, _, name = dotted.rpartition(".")
            names[local] = dotted


class Census:
    """The three classes, over one scan of ``rel_path -> source``."""

    def __init__(self, sources: dict[str, str], asserted: list[str]):
        contexts = [FileContext.parse(source, rel)
                    for rel, source in sorted(sources.items())]
        follow_reexports(contexts)
        project = Project(contexts)
        self.graph = project.graph
        self.units = build_units(project)
        # call node id -> the functions the graph resolves it to
        self.callees: dict[int, list[str]] = defaultdict(list)
        for sites in self.graph.call_sites.values():
            for site in sites:
                if site.kind == "call" and site.callee in self.graph.functions:
                    self.callees[site.node_id].append(site.callee)
        # a name reaches production code anywhere, but test code only in
        # its own module or a conftest (imported helpers are call edges)
        self.by_name: dict[str, list[str]] = defaultdict(list)
        for key in sorted(self.units):
            unit = self.units[key]
            scope = self._module_of(unit) \
                if unit.rel_path.startswith("tests/") \
                and not unit.rel_path.endswith("/conftest.py") else ""
            self.by_name[f"{scope}:{key.rsplit('.', 1)[-1]}"].append(key)
        roots = [key for key, unit in self.units.items()
                 if unit.rel_path.startswith(ROOT_FILES)]
        self.rooted = self.reach([*roots, *ROOT_FUNCTIONS, *asserted])
        self.tests = sorted(key for key, unit in self.units.items()
                            if unit.rel_path.startswith("tests/"))
        self.tested = self.reach(self.tests)
        self.dead, self.test_only = self._classify()
        self.unset_options = self._unset_options()

    def reach(self, roots: list[str], stop: set[str] = frozenset()) -> set[str]:
        """Every unit reachable from ``roots``, not expanding ``stop``."""
        seen: set[str] = set()
        pending = [key for key in roots if key in self.units]
        while pending:
            key = pending.pop()
            if key in seen or key in stop:
                continue
            seen.add(key)
            unit = self.units[key]
            module = self._module_of(unit)
            pending.extend(unit.edges)
            for name in unit.refs:
                pending.extend(self.by_name.get(f":{name}", ()))
                pending.extend(self.by_name.get(f"{module}:{name}", ()))
        return seen

    def _module_of(self, unit: Unit) -> str:
        return self.graph.modules[unit.rel_path].dotted

    def _covered(self) -> list[tuple[str, str | None]]:
        """``(symbol, its class)`` for the public classes and functions
        of ``src/repro`` and the public methods of its public classes."""
        covered = []
        for module in self.graph.modules.values():
            if not module.rel_path.startswith("src/repro/"):
                continue
            covered += [(fn.qualname, None)
                        for name, fn in module.functions.items()
                        if not name.startswith("_")]
            for name, cls in module.classes.items():
                if not name.startswith("_"):
                    covered.append((cls.qualname, None))
                    covered += [(f"{cls.qualname}.{method}", cls.qualname)
                                for method in cls.methods
                                if not method.startswith("_")]
        return sorted(covered)

    def _classify(self) -> tuple[list[str], list[str]]:
        """``(dead, test-only)``.  A method is reported only where its
        class does not speak for it: a dead class is reported whole,
        and a test-only class's row covers its live methods."""
        dead, test_only = [], []
        for key, cls in self._covered():
            live = key in self.rooted or key in self.tested
            if cls is not None and cls not in self.rooted:
                if cls in self.tested and not live:
                    dead.append(key)
            elif not live:
                dead.append(key)
            elif key not in self.rooted:
                test_only.append(key)
        return dead, test_only

    def owners(self) -> dict[str, list[str]]:
        """Test-only symbol -> the test files with a test that reaches
        it without passing through rooted code."""
        wanted = set(self.test_only)
        owners: dict[str, set[str]] = defaultdict(set)
        for test in self.tests:
            if test not in self.graph.functions \
                    or not test.rsplit(".", 1)[-1].startswith("test"):
                continue
            for key in self.reach([test], stop=self.rooted) & wanted:
                owners[key].add(self.units[test].rel_path)
        return {key: sorted(files) for key, files in owners.items()}

    # -- options -------------------------------------------------------

    def _unset_options(self) -> list[str]:
        """``Class(option=)`` for each defaulted ``__init__`` parameter
        of a public class that no call sets."""
        keywords, positions = self._settings()
        unset = []
        for key, cls in self.graph.classes.items():
            if not cls.rel_path.startswith("src/repro/") \
                    or cls.name.startswith("_") \
                    or "__init__" not in cls.methods:
                continue
            args = cls.methods["__init__"].node.args
            plain = [a.arg for a in [*args.posonlyargs, *args.args]][1:]
            first = len(plain) - len(args.defaults)
            options = [(index, name) for index, name in enumerate(plain)
                       if index >= first]
            options += [(math.inf, a.arg) for a, default
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
            unset += [f"{key}({name}=)" for index, name in options
                      if (None, name) not in keywords
                      and (key, name) not in keywords
                      and positions[key] <= index]
        return unset

    def _keyword_scope(self, call: ast.Call,
                       seen: frozenset[str] = frozenset()) -> set[str | None]:
        """The classes whose options the call's keywords set: those
        whose ``__init__`` the graph resolves the call to, and, for a
        callee that forwards its ``**kwargs``, those its forwarding
        calls set.  A keyword bound to a plain function's parameter sets
        none.  ``{None}`` (any class, by name alone) where a call
        resolves to nothing or ``**kwargs`` go where no call passes
        them on."""
        callees = [self.graph.functions[name]
                   for name in self.callees.get(id(call), ())]
        if not callees:
            return {None}
        scope: set[str | None] = set()
        for fn in callees:
            if fn.name == "__init__" and fn.cls is not None:
                scope.add(fn.cls.qualname)
            kwargs = fn.node.args.kwarg
            if kwargs is None:
                continue
            forwards = [inner for inner in ast.walk(fn.node)
                        if isinstance(inner, ast.Call)
                        and any(kw.arg is None and isinstance(kw.value, ast.Name)
                                and kw.value.id == kwargs.arg
                                for kw in inner.keywords)]
            if not forwards or fn.qualname in seen:
                return {None}
            for inner in forwards:
                scope |= self._keyword_scope(inner, seen | {fn.qualname})
        return scope

    def _settings(self) -> tuple[set[tuple[str | None, str]],
                                 dict[str, float]]:
        """What the scanned calls set: ``(class, keyword)`` for each
        keyword, with class ``None`` where it is matched by name alone,
        and the most positional arguments any call gives each class."""
        keywords: set[tuple[str | None, str]] = set()
        positions: dict[str, float] = defaultdict(int)
        classes_named: dict[str, list[str]] = defaultdict(list)
        for qual, cls in self.graph.classes.items():
            classes_named[cls.name].append(qual)
        for module in self.graph.modules.values():
            for call, enclosing in _calls_with_class(module.ctx.tree):
                names = [kw.arg for kw in call.keywords if kw.arg is not None]
                names += [key.value for kw in call.keywords
                          if kw.arg is None and isinstance(kw.value, ast.Dict)
                          for key in kw.value.keys
                          if isinstance(key, ast.Constant)]
                keywords.update((scope, name) for name in names
                                for scope in self._keyword_scope(call))
                count = math.inf if any(isinstance(arg, ast.Starred)
                                        for arg in call.args) \
                    else len(call.args)
                own = enclosing and self.graph.classes.get(
                    f"{module.dotted}.{enclosing.name}")
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr == "__init__":
                    targets = own.base_names if own else []   # super().__init__
                elif isinstance(func, ast.Name) and func.id == "cls":
                    targets = [own.qualname] if own else []
                else:
                    name = getattr(func, "id", getattr(func, "attr", ""))
                    targets = classes_named.get(name, [])
                for target in targets:
                    owner = next((qual for qual in self.graph.mro(target)
                                  if "__init__" in
                                  self.graph.classes[qual].methods), None)
                    if owner:
                        positions[owner] = max(positions[owner], count)
        return keywords, positions


def _calls_with_class(tree: ast.Module):
    """Every call in ``tree`` with its innermost enclosing class."""
    stack: list[tuple[ast.AST, ast.ClassDef | None]] = [(tree, None)]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, ast.ClassDef):
            enclosing = node
        if isinstance(node, ast.Call):
            yield node, enclosing
        stack.extend((child, enclosing)
                     for child in ast.iter_child_nodes(node))


DESIGN_TEST = re.compile(r"`(tests/[\w/]+\.py)`")


def design_rows(design: str) -> dict[str, tuple[int, list[str], str]]:
    """DESIGN §18's table: symbol -> (lines, owning test files, why)."""
    section = design.partition("\n## 18.")[2].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[f"repro.{cells[0].strip('`')}"] = (
                int(cells[1]), DESIGN_TEST.findall(cells[2]), cells[3])
    return rows


@pytest.fixture(scope="module")
def census() -> Census:
    asserted = asserted_tests((ROOT / "EXPERIMENTS.md").read_text())
    built = Census(scanned_sources(ROOT), asserted)
    assert all(test in built.units for test in asserted)
    return built


def test_every_public_symbol_has_a_reader(census):
    """Nothing reaches these: delete them, with any test that only
    pins them."""
    assert census.dead == []


def test_every_constructor_option_is_set_by_some_caller(census):
    """No caller sets these: each is a constant."""
    assert census.unset_options == []


def test_every_test_only_symbol_has_a_design_row(census):
    """Only tests reach these: wire one to a root, delete it, or give it
    a DESIGN §18 row with its lines, owning test files and reason."""
    rows = design_rows((ROOT / "DESIGN.md").read_text())
    assert [key for key in census.test_only if key not in rows] == []
    assert [key for key in rows if key not in census.test_only] == []
    owners = census.owners()
    for key, (lines, tests, why) in rows.items():
        assert lines == census.units[key].lines, key
        assert tests and set(tests) <= set(owners[key]), (key, owners[key])
        assert why, key


SYNTHETIC = {
    "src/repro/pkg/core.py": """
        class Engine:
            def __init__(self, size, budget=None, mode="fast"):
                self.size = size

            def run(self):
                return helper()

            def named(self):
                return 1

            def peek(self):
                return 2

            def unused(self):
                return 3


        class Baseline:
            pass


        def helper():
            return 4


        def dead():
            return 5
    """,
    "perfbench/workloads/load.py": """
        from repro.pkg.core import Engine

        def step():
            engine = Engine(1, mode="slow")
            return engine.run() + getattr(engine, "named")()
    """,
    "tests/pkg/test_core.py": """
        from repro.pkg.core import Baseline, Engine

        def test_peek():
            assert Engine(2).peek() == 2 and Baseline()
    """,
}


def test_the_census_sorts_a_synthetic_repo_into_its_three_classes():
    synthetic = Census({path: textwrap.dedent(source)
                        for path, source in SYNTHETIC.items()}, asserted=[])
    assert synthetic.dead == ["repro.pkg.core.Engine.unused",
                              "repro.pkg.core.dead"]
    assert synthetic.test_only == ["repro.pkg.core.Baseline",
                                   "repro.pkg.core.Engine.peek"]
    assert synthetic.owners() == {key: ["tests/pkg/test_core.py"]
                                  for key in synthetic.test_only}
    assert synthetic.unset_options == ["repro.pkg.core.Engine(budget=)"]


SCOPED = {
    "src/repro/pkg/__init__.py": """
        from repro.pkg.parts import Pump, Valve
    """,
    "src/repro/pkg/parts.py": """
        class Pump:
            def __init__(self, rate=1, mode="idle"):
                self.rate = rate


        class Valve:
            def __init__(self, mode="shut", size=2, **extra):
                self.mode = mode


        class Gauge:
            def __init__(self, rate=3, unit="bar", mode="x", scale=1):
                self.rate = rate
    """,
    "tests/pkg/test_parts.py": """
        from repro.pkg import Pump, Valve


        def build(**options):
            return Pump(**options)


        def configure(unit):
            return unit


        def test_parts(anything):
            Pump(mode="on")
            build(rate=2)
            configure(unit="psi")
            Valve(size=3)
            anything.tune(scale=2)
    """,
}


def test_an_option_keyword_sets_only_the_class_its_call_constructs():
    """``Pump(mode=)`` through a package re-export and ``build(rate=)``
    through a forwarded ``**options`` set only Pump's options, and a
    plain function's parameter sets none.  Keywords the graph cannot
    place (``Valve``'s ``**extra``, a call on an untyped receiver) still
    set every option of their name."""
    scoped = Census({path: textwrap.dedent(source)
                     for path, source in SCOPED.items()}, asserted=[])
    assert sorted(scoped.unset_options) == [
        "repro.pkg.parts.Gauge(mode=)", "repro.pkg.parts.Gauge(rate=)",
        "repro.pkg.parts.Gauge(unit=)", "repro.pkg.parts.Valve(mode=)"]
