"""``deadline-dropped``: accepted deadlines must be honoured.

A :class:`~repro.common.resilience.Deadline` is an end-to-end budget
created at the request edge; its value comes from every hop clamping
its own timeout to what remains.  A function that *accepts* a
deadline but performs network work without consulting it silently
converts "this request has 50 ms left" into "this request has the
default timeout" — the budget stops shrinking, tail latencies stop
being bounded, and the deadline tests above that hop pass while the
hop below ignores them.

Flagged: a function with a parameter named ``deadline`` (or annotated
``Deadline``) whose body makes simulated-network calls
(``.invoke``/``.send``) or delegates to ``call_with_retries`` but
never *reads* the deadline parameter — no ``deadline.clamp(...)``, no
``deadline.check()``, no forwarding it to a callee.

Functions that merely accept the parameter for interface conformance
and do no network work are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import deadline_params
from repro.analysis.core import (
    NETWORK_CALL_ATTRS,
    FileContext,
    Finding,
    Rule,
    register,
)


def _does_network_work(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in NETWORK_CALL_ATTRS:
            return True
        if isinstance(node.func, ast.Name) and \
                node.func.id == "call_with_retries":
            return True
    return False


def _reads_name(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                name: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == name and \
                isinstance(node.ctx, ast.Load):
            return True
        # forwarded as a keyword: fn(..., deadline=deadline) is covered
        # by the Load above; deadline=None re-binding is not a read
    return False


@register
class DeadlineDroppedRule(Rule):
    name = "deadline-dropped"
    summary = ("function accepts a Deadline but performs network calls "
               "without consulting or forwarding it")
    rationale = ("Deadline budgets only bound tail latency if every hop "
                 "clamps its timeout to the remaining budget; one hop "
                 "that drops the deadline unbounds the whole request.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = deadline_params(node)
            if not params:
                continue
            if not _does_network_work(node):
                continue
            for param in params:
                if not _reads_name(node, param):
                    yield self.finding(
                        ctx, node,
                        f"{node.name}() accepts {param!r} but never reads "
                        "it before its network calls; clamp per-hop "
                        "timeouts with deadline.clamp(...) and forward it "
                        "downstream")
