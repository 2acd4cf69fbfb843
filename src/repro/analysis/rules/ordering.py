"""``set-iteration``: flag iteration-order leaks from sets.

Python sets iterate in hash order, which varies with insertion
history and (for strings) the per-process hash seed.  When the
iteration result feeds replica selection, message fan-out, or
serialization, that leak makes two runs of the "same" scenario take
different network schedules — precisely the nondeterminism the
SimClock/SimNetwork substrate exists to prevent.  Voldemort's
preference lists, Kafka's ISR, and Helix's instance sets are all
conceptually sets; the contract is that they are *materialized* in a
defined order (``sorted(...)`` or an explicit preference list) before
anything order-sensitive consumes them.

Flagged shapes, within one scope:

* ``for x in s`` / ``[f(x) for x in s]`` where ``s`` is a set
  literal, a ``set()``/``frozenset()`` call, a set comprehension, a
  union/intersection of those, or a local name bound only to such
  expressions;
* ``list(s)`` / ``tuple(s)`` of the same — an unordered snapshot.

Not flagged: membership tests, ``sorted(s)``, ``len(s)``, and
iteration wrapped in ``sorted(...)`` — those are the fixes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.flow import walk_scope

_SET_CALLS = frozenset({"set", "frozenset"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


class _ScopeInfo:
    """Which local names are (only ever) bound to set expressions."""

    def __init__(self, body: list[ast.stmt]):
        bound_set: set[str] = set()
        bound_other: set[str] = set()
        for stmt in body:
            # nested function scopes are analyzed on their own, with
            # their own name bindings
            for node in walk_scope([stmt], lambdas=True):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_set_expr(node.value, frozenset()):
                        bound_set.add(target.id)
                    else:
                        bound_other.add(target.id)
        self.set_names = frozenset(bound_set - bound_other)


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _SET_CALLS:
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left, set_names) or \
            _is_set_expr(node.right, set_names)
    return False


def _inside_sorted(node: ast.AST) -> bool:
    parent = getattr(node, "parent", None)
    return (isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted")


@register
class SetIterationRule(Rule):
    name = "set-iteration"
    summary = ("iterating a set leaks hash order into the schedule; "
               "materialize with sorted(...) first")
    rationale = ("Set iteration order depends on insertion history and "
                 "the per-process hash seed; on fan-out or serialization "
                 "paths that makes replays diverge.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for _scope, body in _scopes(ctx.tree):
            info = _ScopeInfo(body)
            yield from self._check_scope(ctx, body, info)

    def _check_scope(self, ctx: FileContext, body: list[ast.stmt],
                     info: _ScopeInfo) -> Iterator[Finding]:
        for node in walk_scope(body, lambdas=True):
            if isinstance(node, ast.For) and \
                    _is_set_expr(node.iter, info.set_names):
                yield self.finding(
                    ctx, node.iter,
                    "for-loop over a set: iteration order is hash order; "
                    "iterate sorted(...) or an explicit preference list")
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, info.set_names) and \
                            not _inside_sorted(node):
                        yield self.finding(
                            ctx, gen.iter,
                            "list comprehension over a set captures hash "
                            "order; wrap the comprehension in sorted() or "
                            "iterate sorted(...)")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("list", "tuple") and \
                    len(node.args) == 1 and not node.keywords and \
                    _is_set_expr(node.args[0], info.set_names) and \
                    not _inside_sorted(node):
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() of a set snapshots hash order; "
                    "use sorted(...) for a defined order")
