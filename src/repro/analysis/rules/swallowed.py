"""``swallowed-transport-error``: no silently discarded network failures.

The resilience layer's whole point is that transport failures are
*observable*: they feed failure detectors, circuit breakers, and
metrics, and they drive failover decisions (relay → bootstrap, ISR
re-election, Helix promotion).  An ``except NodeUnavailableError:
pass`` deletes that signal — the chaos tests keep passing while a
replica silently receives nothing, which is exactly the class of bug
DBLog-style consistency auditing exists to catch.

Flagged: an ``except`` handler whose body is nothing but ``pass``
(or ``...``), when either

* the caught types include a transport error from
  ``repro.common.errors`` (``NodeUnavailableError`` and subclasses,
  ``CircuitOpenError``, ``DeadlineExceededError``, …), or
* the handler is bare / catches ``Exception`` and the guarded block
  performs a simulated-network call (``.invoke(...)``/``.send(...)``).

The fix is to record the outcome — a metrics counter, a failure-
detector mark, a hint for handoff — or, where best-effort really is
the design (read repair), to say so with a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    NETWORK_CALL_ATTRS,
    TRANSPORT_ERROR_NAMES,
    FileContext,
    Finding,
    Rule,
    register,
)
from repro.analysis.flow import caught_names


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant) and \
                stmt.value.value is Ellipsis:
            continue
        return False
    return True


def _has_network_call(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in NETWORK_CALL_ATTRS:
                return True
    return False


@register
class SwallowedTransportErrorRule(Rule):
    name = "swallowed-transport-error"
    summary = ("transport failure caught and discarded with a bare pass; "
               "record it (metrics/detector) or justify with a pragma")
    rationale = ("Failure detectors, breakers, and failover decisions all "
                 "run on observed transport errors; a pass-only handler "
                 "deletes the signal and hides partial delivery.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not _swallows(handler):
                    continue
                caught = caught_names(handler)
                transport = caught & TRANSPORT_ERROR_NAMES
                if transport:
                    yield self.finding(
                        ctx, handler,
                        f"{'/'.join(sorted(transport))} swallowed with a "
                        "pass-only handler; record the failure (metrics, "
                        "failure detector, hint) so resilience machinery "
                        "sees it")
                elif (caught & {"*", "Exception", "BaseException"}) \
                        and _has_network_call(node.body):
                    yield self.finding(
                        ctx, handler,
                        "broad except around a network call swallows "
                        "transport failures; catch the specific error and "
                        "record the outcome")
