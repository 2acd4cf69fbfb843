"""Package-surface smoke tests: every public module imports, every
``__all__`` name resolves, and no component reaches past the simulator
to the host.  Guards the library against broken exports — the first
thing a downstream adopter would hit."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro.common",
    "repro.simnet",
    "repro.zookeeper",
    "repro.helix",
    "repro.hadoop",
    "repro.sqlstore",
    "repro.voldemort",
    "repro.voldemort.engines",
    "repro.databus",
    "repro.espresso",
    "repro.migration",
    "repro.kafka",
    "repro.streams",
    "repro.workloads",
    "repro.socialgraph",
    "repro.search",
    "repro.recommendations",
]

MODULES = [
    "repro.voldemort.chord",
    "repro.voldemort.admin",
    "repro.voldemort.slop",
    "repro.voldemort.server_routing",
    "repro.voldemort.readonly_pipeline",
    "repro.voldemort.transforms",
    "repro.databus.bootstrap",
    "repro.databus.capture",
    "repro.databus.transform",
    "repro.databus.tenancy",
    "repro.espresso.global_index",
    "repro.espresso.router",
    "repro.kafka.replication",
    "repro.kafka.mirror",
    "repro.kafka.audit",
    "repro.helix.health",
    "repro.hadoop.scheduler",
    "repro.streams.apps",
    "repro.workloads.day_in_the_life",
]


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    for exported in module.__all__:
        assert hasattr(module, exported), f"{name}.{exported} missing"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_no_circular_import_from_cold_start():
    """Import the deepest cross-system module first; circular imports
    would explode here."""
    import subprocess
    import sys
    code = "import repro.espresso.global_index; print('ok')"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.stdout.strip() == "ok", result.stderr


ROOT = Path(__file__).resolve().parents[1]
# constructing these reaches real time, a real file, or a real mapping
HOST_CALLS = {"WallClock", "LocalDisk", "open"}
HOST_MODULES = {"tempfile", "mmap"}
# the two modules that define the host classes, and the linter, which
# reads source files
HOST_EXEMPT = ("src/repro/analysis/", "src/repro/common/clock.py",
               "src/repro/common/storage.py")


def host_reaches(root):
    """``(path, line, name)`` of every call or import under ``src/repro``,
    ``perfbench/workloads`` and ``examples`` that reaches the host."""
    found = []
    for top in ("src/repro", "perfbench/workloads", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel.startswith(HOST_EXEMPT):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name) and func.id in HOST_CALLS:
                        names = [func.id]
                    elif isinstance(func, ast.Attribute) \
                            and func.attr in HOST_CALLS - {"open"}:
                        names = [func.attr]   # Disk.open is no builtin
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names
                             if a.name.split(".")[0] in HOST_MODULES]
                elif isinstance(node, ast.ImportFrom) and node.module \
                        and node.module.split(".")[0] in HOST_MODULES:
                    names = [node.module]
                found += [(rel, node.lineno, name) for name in names]
    return found


def test_no_component_falls_back_to_the_host():
    """Everything the repo runs — production code, the benchmark
    workloads, the examples — lives on SimClock and SimDisk.  WallClock
    and LocalDisk exist for a caller that names them, but none of these
    files does, and none opens, maps or creates a real file."""
    assert host_reaches(ROOT) == []
