"""Call-graph edge cases: the resolution idioms the summaries rely on.

Each test builds a tiny multi-file project and asserts on the resolved
edges, so a regression in receiver-type inference shows up here before
it silently blinds the interprocedural rules.
"""

from repro.analysis.callgraph import module_dotted

from tests.analysis.conftest import project_of


def edges(project, caller: str) -> set[tuple[str, str]]:
    return {(site.callee, site.kind)
            for site in project.graph.callees(caller)}


def test_module_dotted_strips_src_and_init():
    assert module_dotted("src/repro/voldemort/routing.py") == \
        "repro.voldemort.routing"
    assert module_dotted("src/repro/voldemort/__init__.py") == \
        "repro.voldemort"


def test_module_function_and_aliased_import():
    project = project_of({
        "src/repro/pkg/util.py": """
            def helper():
                return 1
        """,
        "src/repro/pkg/mod.py": """
            from repro.pkg.util import helper as h

            def caller():
                return h()
        """,
    })
    assert ("repro.pkg.util.helper", "call") in \
        edges(project, "repro.pkg.mod.caller")


def test_constructor_inferred_attribute_type():
    project = project_of({
        "src/repro/pkg/store.py": """
            class Store:
                def get(self, key):
                    return key
        """,
        "src/repro/pkg/mod.py": """
            from repro.pkg.store import Store

            class Client:
                def __init__(self):
                    self.store = Store()

                def fetch(self, key):
                    return self.store.get(key)
        """,
    })
    assert ("repro.pkg.store.Store.get", "call") in \
        edges(project, "repro.pkg.mod.Client.fetch")
    # the constructor call itself edges to __init__ when one exists
    assert ("repro.pkg.store.Store", "call") not in \
        edges(project, "repro.pkg.mod.Client.__init__")


def test_attribute_chain_resolves_link_by_link():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Network:
                def ping(self):
                    return True

            class Cluster:
                def __init__(self):
                    self.network = Network()

            class Client:
                def __init__(self):
                    self.cluster = Cluster()

                def probe(self):
                    return self.cluster.network.ping()
        """,
    })
    assert ("repro.pkg.mod.Network.ping", "call") in \
        edges(project, "repro.pkg.mod.Client.probe")


def test_inherited_method_resolves_through_mro():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Base:
                def run(self):
                    return self.step()

                def step(self):
                    return 0

            class Derived(Base):
                def step(self):
                    return 1
        """,
    })
    called = edges(project, "repro.pkg.mod.Base.run")
    # the static target plus every scanned override: the receiver's
    # runtime type may be any subclass
    assert ("repro.pkg.mod.Base.step", "call") in called
    assert ("repro.pkg.mod.Derived.step", "call") in called


def test_inherited_method_defined_only_on_base():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Base:
                def shared(self):
                    return 0

            class Derived(Base):
                def use(self):
                    return self.shared()
        """,
    })
    assert ("repro.pkg.mod.Base.shared", "call") in \
        edges(project, "repro.pkg.mod.Derived.use")


def test_callback_passed_by_reference_is_a_ref_edge():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def retry(fn, attempts):
                for _ in range(attempts):
                    fn()

            class Client:
                def _fetch(self):
                    return 1

                def fetch(self):
                    return retry(self._fetch, 3)
        """,
    })
    called = edges(project, "repro.pkg.mod.Client.fetch")
    assert ("repro.pkg.mod.retry", "call") in called
    assert ("repro.pkg.mod.Client._fetch", "ref") in called


def test_annotated_parameter_receiver():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Engine:
                def put(self, key):
                    return key

            def write(engine: Engine, key):
                return engine.put(key)
        """,
    })
    assert ("repro.pkg.mod.Engine.put", "call") in \
        edges(project, "repro.pkg.mod.write")


def test_rpc_sleep_fsync_effect_sites():
    project = project_of({
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network, clock):
                    self.network = network
                    self.clock = clock

                def fetch(self, key):
                    self.clock.sleep(0.1)
                    return self.network.invoke(key)
        """,
    })
    kinds = {site.kind for site in
             project.graph.callees("repro.pkg.mod.Client.fetch")}
    assert "rpc" in kinds
    assert "sleep" in kinds


def test_mutual_recursion_lands_in_one_scc():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def even(n):
                return True if n == 0 else odd(n - 1)

            def odd(n):
                return False if n == 0 else even(n - 1)

            def entry(n):
                return even(n)
        """,
    })
    components = project.graph.sccs()
    recursive = [c for c in components if len(c) > 1]
    assert recursive == [["repro.pkg.mod.even", "repro.pkg.mod.odd"]]
    # reverse topological: the cycle is summarized before its caller
    flat = [qual for component in components for qual in component]
    assert flat.index("repro.pkg.mod.even") < \
        flat.index("repro.pkg.mod.entry")


def test_nested_defs_are_separate_nodes():
    project = project_of({
        "src/repro/pkg/mod.py": """
            def outer():
                def inner():
                    return 1
                return inner()
        """,
    })
    assert "repro.pkg.mod.outer.inner" in project.graph.functions
    assert ("repro.pkg.mod.outer.inner", "call") in \
        edges(project, "repro.pkg.mod.outer")
