"""The layering contract: which package may import which.

LinkedIn's stack (PAPER.md) is layered — shared infrastructure at the
bottom, the four storage/messaging systems above it, and applications
on top.  The reproduction mirrors that as sibling packages under
``repro``, and this module is the *committed* statement of the legal
edges between them.  The ``layering-contract`` lint rule checks every
``import`` in the repo against this table, so an architectural
regression (a system reaching into another system's internals, the
simulation substrate growing a dependency on a system built on it)
fails CI the same way a broken test does.

Every non-obvious edge carries its paper justification inline.  Edges
*not* listed are illegal by default — adding a dependency means editing
this file, which is the point: the import graph changes only by
reviewed diff.

``if TYPE_CHECKING:`` imports are exempt.  They exist for annotations
only, never execute, and are the sanctioned escape hatch for typing a
lower layer against an interface defined above it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

#: Per-package allowed imports (of other ``repro.*`` packages).  Every
#: package may import itself and ``common``; anything further must be
#: justified here.
LAYER_CONTRACT: dict[str, frozenset[str]] = {
    # -- substrate --------------------------------------------------------
    # common is the bottom: errors, config, resilience, WAL, storage.
    "common": frozenset(),
    # simnet simulates networks/disks/clocks for every system above it;
    # it must never import a system, or the simulation could not host it.
    "simnet": frozenset(),
    # -- coordination -----------------------------------------------------
    "zookeeper": frozenset(),
    # Helix is built on ZooKeeper for its state store and notifications
    # (paper §Helix).
    "helix": frozenset({"zookeeper"}),
    # -- storage primitives ----------------------------------------------
    "sqlstore": frozenset(),
    "hadoop": frozenset(),
    # -- the four systems -------------------------------------------------
    # Kafka persists partitions on the simulated disk, registers brokers
    # in ZooKeeper, and feeds Hadoop via the ETL bridge (paper §Kafka).
    "kafka": frozenset({"simnet", "zookeeper", "hadoop"}),
    # Voldemort stores on the simulated disk and bulk-loads read-only
    # stores built offline in Hadoop (paper §Voldemort).
    "voldemort": frozenset({"simnet", "hadoop"}),
    # Espresso stores documents in MySQL-like tables, is coordinated by
    # Helix/ZooKeeper, and publishes its commit log through Databus
    # (paper §Espresso: "Databus is Espresso's replication channel").
    "espresso": frozenset({"simnet", "zookeeper", "helix", "sqlstore",
                           "databus"}),
    # Databus captures changes from the source-of-truth SQL store and
    # serves them over the simulated network (paper §Databus).
    "databus": frozenset({"simnet", "sqlstore"}),
    # The live-migration subsystem moves source-of-truth data from the
    # legacy SQL store onto Espresso while both keep serving — the
    # paper's own deployment arc ("our long term strategy is to move
    # LinkedIn's core data ... to Espresso", §IV) — consuming the
    # change stream through Databus.  It sits *above* all three and may
    # import no substrate directly: durability comes from common's WAL,
    # and it has no fault-injection hooks (crash tests wrap the
    # source's ``scan_chunk`` from outside).
    "migration": frozenset({"sqlstore", "databus", "espresso"}),
    # The consistency auditor (paper §V.D generalized) observes every
    # primary and derived store — it reads binlogs, relay buffers,
    # consumer checkpoints, Espresso documents, Voldemort replica
    # engines, and Kafka audit counts — so it may import the systems it
    # audits.  It must NOT import simnet (fault injection reaches it as
    # duck-typed fault-plan callables) or migration (the coordinator
    # receives the cutover constraint as a plain callable): the auditor
    # checks those layers, it does not depend on them.
    "audit": frozenset({"sqlstore", "databus", "espresso", "voldemort",
                        "kafka"}),
    # Stream processing pulls from Kafka, checkpoints to ZooKeeper, and
    # is placed by Helix (paper §Kafka consumers; ROADMAP item 4).  It
    # must NOT import simnet: tasks see only the abstract Disk/Clock
    # from common, so the same code hosts on a SimDisk in tests and a
    # real filesystem outside them.
    "streams": frozenset({"kafka", "helix", "zookeeper"}),
    # -- applications -----------------------------------------------------
    # The search service indexes Espresso content via Databus events
    # and joins against the social graph (paper §applications).
    "search": frozenset({"databus", "espresso", "sqlstore", "socialgraph"}),
    # The social graph service fronts a SQL store and streams updates
    # out through Databus.
    "socialgraph": frozenset({"databus", "sqlstore"}),
    # Recommendations are computed offline in Hadoop and served from
    # Voldemort read-only stores, keyed by the social graph.
    "recommendations": frozenset({"hadoop", "voldemort", "socialgraph"}),
    # Workload drivers stand in for production traffic and the
    # operators running it: the day-in-the-life scenario assembles a
    # whole estate (simulated disks and fault plans, Kafka, stream
    # jobs, the social graph) and drives it end to end.
    "workloads": frozenset({"simnet", "kafka", "streams", "socialgraph",
                            "zookeeper"}),
    # -- tooling ----------------------------------------------------------
    # The analyzer inspects source text only; it may depend on nothing
    # but common, so it can never entangle itself with what it checks.
    "analysis": frozenset(),
}

_IMPLICIT = frozenset({"common"})


def allowed_imports(package: str) -> frozenset[str]:
    """Packages ``package`` may import: itself, common, and its
    contract row.  Unknown packages get an empty contract."""
    return LAYER_CONTRACT.get(package, frozenset()) | _IMPLICIT | {package}


def package_of(rel_path: str) -> str | None:
    """The ``repro`` package a repo-relative path belongs to, or None
    for files outside ``repro`` (tests, scripts) and top-level modules
    like ``repro/__init__.py``."""
    parts = rel_path.replace("\\", "/").split("/")
    if parts[:2] == ["src", "repro"]:
        parts = parts[2:]
    elif parts[:1] == ["repro"]:
        parts = parts[1:]
    else:
        return None
    if len(parts) < 2:   # a module directly under repro/
        return None
    return parts[0]


def _module_package(module: str | None) -> str | None:
    """The repro package a dotted module path refers to."""
    if not module:
        return None
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _resolve_relative(rel_path: str, level: int, module: str | None) -> str | None:
    """Absolute dotted module for a relative import in ``rel_path``."""
    parts = rel_path.replace("\\", "/").split("/")
    if parts[:2] == ["src", "repro"]:
        parts = parts[1:]          # drop the src/ prefix -> repro/...
    if parts[:1] != ["repro"]:
        return None
    package_parts = parts[:-1]     # the module's own package path
    if level > len(package_parts):
        return None
    base = package_parts[:len(package_parts) - (level - 1)]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def type_checking_nodes(tree: ast.AST) -> set[int]:
    """ids of statements inside ``if TYPE_CHECKING:`` bodies."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = ""
        if isinstance(test, ast.Name):
            name = test.id
        elif isinstance(test, ast.Attribute):
            name = test.attr
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    exempt.add(id(sub))
    return exempt


def imported_packages(tree: ast.AST, rel_path: str
                      ) -> Iterator[tuple[str, ast.stmt]]:
    """Every ``repro`` package imported by a module, with the import
    statement that does it.  ``TYPE_CHECKING``-only imports excluded."""
    exempt = type_checking_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                package = _module_package(alias.name)
                if package is not None:
                    yield package, node
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = _resolve_relative(rel_path, node.level, node.module)
            else:
                module = node.module
            package = _module_package(module)
            if package is not None:
                yield package, node
            elif node.level == 0 and node.module == "repro":
                # ``from repro import kafka`` names packages in aliases
                for alias in node.names:
                    yield alias.name.split(".")[0], node


def build_import_graph(sources: Iterable[tuple[str, ast.AST]]
                       ) -> dict[str, dict[str, int]]:
    """Whole-repo import graph: package -> imported package -> count.

    ``sources`` yields ``(rel_path, parsed tree)`` pairs; self-imports
    are kept (they are always legal) so the graph is complete.
    """
    graph: dict[str, dict[str, int]] = {}
    for rel_path, tree in sources:
        src_pkg = package_of(rel_path)
        if src_pkg is None:
            continue
        row = graph.setdefault(src_pkg, {})
        for dst_pkg, _ in imported_packages(tree, rel_path):
            row[dst_pkg] = row.get(dst_pkg, 0) + 1
    return graph


def contract_violations(graph: dict[str, dict[str, int]]
                        ) -> list[tuple[str, str, int]]:
    """(importer, imported, count) edges the contract does not allow."""
    bad: list[tuple[str, str, int]] = []
    for src_pkg, row in sorted(graph.items()):
        legal = allowed_imports(src_pkg)
        for dst_pkg, count in sorted(row.items()):
            if dst_pkg not in legal:
                bad.append((src_pkg, dst_pkg, count))
    return bad
