"""CFG construction and the traversal core: shapes, edge labels,
def/use extraction, the scope walk and the forward dataflow solver."""

import ast
import textwrap

from repro.analysis.core import FileContext
from repro.analysis.flow import (
    build_cfg,
    calls_in,
    definitions,
    receiver_name,
    replay,
    solve,
    uses,
    walk_scope,
)


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    assert isinstance(fn, ast.FunctionDef)
    return build_cfg(fn)


def edge_kinds(block):
    return sorted(edge.kind for edge in block.out_edges)


def test_straight_line_is_one_block_to_exit():
    cfg = cfg_of("""
        def f(x):
            y = x + 1
            return y
    """)
    assert len(cfg.entry.elements) == 2
    kinds = {e.kind: e.dst for e in cfg.entry.out_edges}
    assert kinds["normal"] is cfg.exit
    assert kinds["exc"] is cfg.raise_exit


def test_if_produces_true_and_false_edges_with_test():
    cfg = cfg_of("""
        def f(x):
            if x > 0:
                a = 1
            return x
    """)
    head = cfg.entry
    assert isinstance(head.elements[-1], ast.expr)   # the test element
    labelled = {e.kind: e for e in head.out_edges if e.kind in ("true", "false")}
    assert set(labelled) == {"true", "false"}
    assert labelled["true"].test is labelled["false"].test


def test_while_true_has_no_false_edge():
    cfg = cfg_of("""
        def f(self):
            while True:
                self.step()
    """)
    heads = [b for b in cfg.blocks
             if b.elements and isinstance(b.elements[0], ast.Constant)]
    assert len(heads) == 1
    assert "false" not in edge_kinds(heads[0])
    # the only way to the normal exit is through the unreachable
    # after-loop block: no path from the entry gets there
    reachable = set()
    stack = [cfg.entry]
    while stack:
        block = stack.pop()
        if block.bid in reachable:
            continue
        reachable.add(block.bid)
        stack.extend(edge.dst for edge in block.out_edges)
    assert cfg.exit.bid not in reachable


def test_while_condition_keeps_false_edge():
    cfg = cfg_of("""
        def f(self):
            while self.running:
                self.step()
    """)
    heads = [b for b in cfg.blocks
             if b.elements and isinstance(b.elements[0], ast.Attribute)]
    assert len(heads) == 1
    assert "false" in edge_kinds(heads[0])


def test_raise_goes_to_raise_exit_not_exit():
    cfg = cfg_of("""
        def f(x):
            raise ValueError(x)
    """)
    assert all(e.dst is not cfg.exit for e in cfg.entry.out_edges)
    assert any(e.kind == "exc" and e.dst is cfg.raise_exit
               for e in cfg.entry.out_edges)


def test_try_body_has_exception_edge_into_handler():
    cfg = cfg_of("""
        def f(self):
            try:
                self.work()
            except KeyError:
                self.recover()
            return True
    """)
    body_blocks = [b for b in cfg.blocks
                   if any(isinstance(el, ast.Expr) and "work" in ast.dump(el)
                          for el in b.elements)]
    assert body_blocks
    handler_entries = [b for b in cfg.blocks
                       if any(isinstance(el, ast.ExceptHandler)
                              for el in b.elements)]
    assert len(handler_entries) == 1
    [body], [handler] = body_blocks, handler_entries
    assert any(e.kind == "exc" and e.dst is handler for e in body.out_edges)
    # the unmatched-exception path out of the try is also kept
    assert any(e.kind == "exc" and e.dst is cfg.raise_exit
               for e in body.out_edges)


def test_break_and_continue_edges():
    cfg = cfg_of("""
        def f(items):
            for item in items:
                if item is None:
                    break
                if item < 0:
                    continue
                use(item)
            return True
    """)
    breaks = [b for b in cfg.blocks
              if any(isinstance(el, ast.Break) for el in b.elements)]
    continues = [b for b in cfg.blocks
                 if any(isinstance(el, ast.Continue) for el in b.elements)]
    heads = [b for b in cfg.blocks
             if any(isinstance(el, ast.For) for el in b.elements)]
    assert breaks and continues and heads
    # continue jumps to the loop head; break jumps past it
    assert any(e.dst is heads[0] for e in continues[0].out_edges)
    assert all(e.dst is not heads[0] or e.kind == "exc"
               for e in breaks[0].out_edges)


def test_nested_functions_get_their_own_cfgs():
    ctx = FileContext.parse(textwrap.dedent("""
        def outer():
            def inner():
                return 1
            return inner
    """), "mod.py")
    names = [cfg.fn.name for cfg in ctx.function_cfgs()]
    assert sorted(names) == ["inner", "outer"]
    # asking again hands back the same graphs, not rebuilt ones
    assert [id(c) for c in ctx.function_cfgs()] == \
        [id(c) for c in ctx.function_cfgs()]


def test_definitions_and_uses_helpers():
    stmt = ast.parse("a, b = self.pair(c)").body[0]
    assert sorted(definitions(stmt)) == ["a", "b"]
    assert "c" in uses(stmt) and "a" not in uses(stmt)

    with_stmt = ast.parse("with disk.open(p) as f:\n    f.write(x)\n").body[0]
    assert definitions(with_stmt) == ["f"]
    # only the header is the With element's reads; the body is elsewhere
    assert uses(with_stmt) == {"disk", "p"}
    [call] = list(calls_in(with_stmt))
    assert receiver_name(call.func) == "disk"

    walrus = ast.parse("if (n := count()) > 0:\n    pass\n").body[0].test
    assert definitions(walrus) == ["n"]


def test_uses_skips_a_lambda_body_not_the_rest_of_the_expression():
    # the lambda's own reads are another scope's; everything after it
    # in the same expression is still this element's
    stmt = ast.parse("x = f(lambda: hidden, g(stale))").body[0]
    assert uses(stmt) == {"f", "g", "stale"}
    assert sorted(c.func.id for c in calls_in(stmt)) == ["f", "g"]


def test_walk_scope_yields_nested_defs_without_entering_them():
    fn = ast.parse(textwrap.dedent("""
        def outer(a):
            def inner():
                return secret()
            cb = lambda: deferred()
            return inner, cb
    """)).body[0]

    def called(lambdas):
        return sorted(n.func.id
                      for n in walk_scope(ast.iter_child_nodes(fn), lambdas)
                      if isinstance(n, ast.Call))

    assert called(lambdas=True) == ["deferred"]
    assert called(lambdas=False) == []
    assert [n.name for n in walk_scope(ast.iter_child_nodes(fn), True)
            if isinstance(n, ast.FunctionDef)] == ["inner"]


DIAMOND_WITH_LOOP = """
    def f(self):
        start()
        while self.more:
            if self.left:
                cross()
            else:
                dead_end()
            join()
        tail()
        return 1
"""


def _called(element):
    return [c.func.id for c in calls_in(element)
            if isinstance(c.func, ast.Name)]


def _crossing_step(element, facts):
    """start() gens "fresh", cross() turns it "crossed", dead_end()
    kills every fact."""
    names = _called(element)
    if "dead_end" in names:
        return frozenset()
    if "cross" in names:
        facts = frozenset("crossed" if f == "fresh" else f for f in facts)
    return facts | {"fresh"} if "start" in names else facts


def test_walk_paths_enters_each_block_once_per_state_truthiness():
    cfg = cfg_of(DIAMOND_WITH_LOOP)
    entries: dict[int, list[frozenset]] = {}
    block_of = {id(el): block for block, _, el in cfg.elements()}

    def step(element, facts):
        block = block_of[id(element)]
        if element is block.elements[0]:
            entries.setdefault(block.bid, []).append(facts)
        return _crossing_step(element, facts)

    into = solve(cfg, step)

    # every block is stepped once, and again only when the facts
    # entering it grew (loop back-edge, two arms)
    assert entries and all(all(a < b for a, b in zip(seen, seen[1:]))
                           for seen in entries.values())
    assert all(seen[-1] == into[bid] for bid, seen in entries.items())
    join = next(b for b, _, el in cfg.elements() if "join" in _called(el))
    head = next(b for b, _, el in cfg.elements()
                if isinstance(el, ast.Attribute) and el.attr == "more")
    tail = next(b for b, _, el in cfg.elements() if "tail" in _called(el))
    # the else arm killed its facts, so join is reached crossed only —
    # and the loop head again on the back-edge, now crossed too
    assert into[join.bid] == {"crossed"}
    assert into[head.bid] == {"fresh", "crossed"} == into[tail.bid]


def test_walk_paths_never_visits_the_exit_blocks():
    cfg = cfg_of(DIAMOND_WITH_LOOP)
    # give the exits an element so a visit would be observable
    marker = ast.parse("exit_marker()").body[0]
    cfg.exit.elements.append(marker)
    cfg.raise_exit.elements.append(marker)
    visited = []

    def step(element, facts, found=None):
        visited.append(element)
        return _crossing_step(element, facts)

    into = solve(cfg, step)
    replay(cfg, into, step)
    assert visited and marker not in visited
    assert into[cfg.exit.bid] == {"fresh", "crossed"}


def test_walk_paths_carries_the_state_before_a_mid_block_discharge_to_handlers():
    cfg = cfg_of("""
        def f(self):
            try:
                start()
                discharge()
                more()
            except Exception:
                handler()
            tail()
    """)
    in_handler = []

    def step(element, facts, found=None):
        names = _called(element)
        if "handler" in names:
            in_handler.append(facts)
        if "discharge" in names:
            return frozenset()      # the obligation is met here
        return facts | {"open"} if "start" in names else facts

    replay(cfg, solve(cfg, step), step)
    # discharge() itself may raise: the handler runs with it still open
    assert "open" in in_handler[-1]


def test_walk_paths_returns_the_states_that_reach_the_normal_exit():
    cfg = cfg_of("""
        def f(self, x):
            if x:
                mark()
                return 1
            if other():
                close()
                return 2
            raise ValueError(x)
    """)

    def step(element, facts):
        names = _called(element)
        if "close" in names:
            return frozenset()
        return facts | {"marked"} if "mark" in names else facts

    # the discharged return and the raise bring no fact to the exit
    assert solve(cfg, step)[cfg.exit.bid] == {"marked"}


def test_solve_opens_an_edge_fact_on_that_edge_only():
    cfg = cfg_of("""
        def f(self):
            if admit():
                inside()
            else:
                refused()
            after()
    """)
    head = cfg.entry
    seen = {}

    def step(element, facts, found=None):
        for name in _called(element):
            seen[name] = facts
        return facts

    def edge(block, out, facts):
        return facts | {"admitted"} \
            if block is head and out.kind == "true" else facts

    into = solve(cfg, step, edge)
    replay(cfg, into, step)
    # only the true edge carries the fact, and it flows on to the join
    assert seen["admit"] == frozenset() == seen["refused"]
    assert seen["inside"] == {"admitted"} == seen["after"]
    assert into[cfg.exit.bid] == {"admitted"}


def test_full_repo_run_builds_each_function_cfg_at_most_once(full_run):
    built = full_run.cfg_builds
    assert full_run.report.files_scanned > 80
    assert len(built) > 1000          # the flow rules really ran
    assert max(built.values()) == 1
