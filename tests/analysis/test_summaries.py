"""Effect-summary semantics: may-raise, blocks, self mutations and
deadline threading."""

from tests.analysis.conftest import project_of


def summary(project, qualname):
    return project.summaries[qualname]


def test_callee_raise_propagates_with_chain():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def helper(d, k):
                if k not in d:
                    raise KeyError(k)
                return d[k]

            def entry(d, k):
                return helper(d, k)
        """,
    })
    raises = summary(project, "repro.pkg.mod.entry").raises
    assert "KeyError" in raises
    chain = raises["KeyError"]
    assert chain[0].caller == "repro.pkg.mod.entry"
    assert chain[-1].caller == "repro.pkg.mod.helper"


def test_handler_at_call_site_catches_callee_raise():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def helper(k):
                raise KeyError(k)

            def entry(k):
                try:
                    return helper(k)
                except LookupError:
                    return None
        """,
    })
    # except LookupError catches KeyError through the real builtin MRO
    assert "KeyError" not in summary(project, "repro.pkg.mod.entry").raises


def test_scanned_hierarchy_and_reraise():
    project = project_of({
        "src/repro/pkg/errors.py": """
            class PkgError(Exception):
                pass

            class SubError(PkgError):
                pass
        """,
        "src/repro/pkg/mod.py": """
            from repro.pkg.errors import PkgError, SubError

            def helper():
                raise SubError("boom")

            def caught():
                try:
                    return helper()
                except PkgError:
                    return None

            def rethrown():
                try:
                    return helper()
                except PkgError as exc:
                    raise exc
        """,
    })
    assert "repro.pkg.errors.SubError" not in \
        summary(project, "repro.pkg.mod.caught").raises
    # ``raise exc`` re-raises the handler's static catch set
    assert any(name.endswith("PkgError") for name in
               summary(project, "repro.pkg.mod.rethrown").raises)


def test_blocks_propagate_transitively():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network):
                    self.network = network

                def _push(self, key):
                    return self.network.invoke(key)

                def flush(self, keys):
                    for key in keys:
                        self._push(key)

                def stage(self, k, v):
                    self._batches[k] = [v]
                    self._batches[k] += [v]
                    self._batches[k].n = v
                    del self._batches[k]
                    self._batches.setdefault(k, []).append(v)
                    self._batches.update({k: [v]})
                    try:
                        return self._batches.pop(k)
                    except KeyError:
                        self._batches.clear()
        """,
    })
    blocks = summary(project, "repro.pkg.mod.Client.flush").blocks
    assert "rpc" in blocks
    assert blocks["rpc"][0].callee == "repro.pkg.mod.Client._push"
    # every spelling of a write to self._batches is one mutation site
    sites = summary(project, "repro.pkg.mod.Client.stage").mutations
    assert [(m.line, m.kind, m.path, m.in_except) for m in sites] == [
        (14, "store", "_batches", False),
        (15, "rmw", "_batches", False),
        (16, "store", "_batches.n", False),
        (17, "del", "_batches", False),
        (18, "call", "_batches", False),    # .append on its result
        (18, "call", "_batches", False),    # .setdefault
        (19, "call", "_batches", False),
        (21, "take", "_batches", False),
        (23, "call", "_batches", True),
    ]


def test_forwarded_deadline_is_not_a_drop():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network):
                    self.network = network

                def _push(self, key, deadline):
                    timeout = deadline.clamp(1.0)
                    return self.network.invoke(key, timeout=timeout)

                def flush(self, keys, deadline):
                    for key in keys:
                        self._push(key, deadline)
        """,
    })
    assert summary(project, "repro.pkg.mod.Client.flush") \
        .drops_deadline == ()
    assert summary(project, "repro.pkg.mod.Client._push") \
        .drops_deadline == ()


def test_dropped_deadline_yields_witness_chain():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network):
                    self.network = network

                def _push(self, key):
                    return self.network.invoke(key)

                def flush(self, keys, deadline):
                    deadline.check()
                    for key in keys:
                        self._push(key)
        """,
    })
    drops = summary(project, "repro.pkg.mod.Client.flush").drops_deadline
    assert len(drops) == 1
    chain = drops[0]
    assert chain[0].callee == "repro.pkg.mod.Client._push"
    assert chain[-1].callee == "<invoke>"


def test_taint_flows_through_local_assignment():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network):
                    self.network = network

                def fetch(self, key, deadline):
                    timeout = deadline.clamp(0.5)
                    return self.network.invoke(key, timeout=timeout)
        """,
    })
    assert summary(project, "repro.pkg.mod.Client.fetch") \
        .drops_deadline == ()


def test_constructed_deadline_counts_as_held():
    project = project_of({
        "src/repro/pkg/mod.py": """
            from repro.common.resilience import Deadline

            class Client:
                def __init__(self, network, clock):
                    self.network = network
                    self.clock = clock

                def _push(self, key):
                    return self.network.invoke(key)

                def flush(self, keys):
                    deadline = Deadline(self.clock, 1.0)
                    deadline.check()
                    for key in keys:
                        self._push(key)
        """,
    })
    drops = summary(project, "repro.pkg.mod.Client.flush").drops_deadline
    assert len(drops) == 1


def test_recursive_function_summaries_converge():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def walk(node):
                if node is None:
                    raise ValueError("empty")
                for child in node.children:
                    walk(child)

            def entry(node):
                return walk(node)
        """,
    })
    assert "ValueError" in summary(project, "repro.pkg.mod.walk").raises
    assert "ValueError" in summary(project, "repro.pkg.mod.entry").raises


def test_public_boundary_is_init_reexports():
    project = project_of({
        "src/repro/pkg/__init__.py": """
            from repro.pkg.mod import Client, helper
        """,
        "src/repro/pkg/mod.py": """
            class Client:
                def fetch(self, key):
                    return key

                def _internal(self):
                    return None

            class Hidden:
                def visible_method(self):
                    return None

            def helper():
                return 1

            def unexported():
                return 2
        """,
    })
    from repro.analysis.summaries import iter_public_boundary
    boundary = {fn.qualname for fn in iter_public_boundary(project)}
    assert "repro.pkg.mod.Client.fetch" in boundary
    assert "repro.pkg.mod.helper" in boundary
    assert "repro.pkg.mod.Client._internal" not in boundary
    assert "repro.pkg.mod.Hidden.visible_method" not in boundary
    assert "repro.pkg.mod.unexported" not in boundary
