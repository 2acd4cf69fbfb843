"""``retry-without-backoff``: retry loops must pace themselves.

The paper's systems survive "frequent transient and short-term
failures" by retrying — but a retry loop with no backoff hammers the
failing node, synchronizes clients into retry storms, and (on the
SimClock) never lets time advance far enough for breakers to go
half-open or failure detectors to probe.  PR 1 centralized the
discipline in :func:`repro.common.resilience.call_with_retries` and
:class:`RetryPolicy`; this rule keeps ad-hoc loops from creeping back.

A loop is considered a *retry loop* when it is a ``while`` loop, a
``for`` over ``range(...)``, or a ``for`` whose target is named like
``attempt``/``retry``/``round``/``tries``, AND it catches a transport
error from ``repro.common.errors`` without re-raising or exiting the
loop (i.e. the failure leads to another attempt): the summaries'
:func:`~repro.analysis.summaries.retry_catch`, which the ``retries``
effect and ``retry-amplification`` share.  Such a loop must
contain a pacing call: ``call_with_retries``, a ``RetryPolicy``
backoff, or a ``clock.sleep`` — matched by callee name containing
``sleep``/``backoff`` or equal to ``call_with_retries``.

Fan-out loops (``for node in replicas``) that catch per-node failures
are not retry loops and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.flow import callee_name
from repro.analysis.summaries import retry_catch


def _has_pacing_call(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = callee_name(child.func).lower()
            if "sleep" in name or "backoff" in name or \
                    name == "call_with_retries":
                return True
    return False


@register
class RetryWithoutBackoffRule(Rule):
    name = "retry-without-backoff"
    summary = ("retry loop around a transport failure with no backoff; "
               "use call_with_retries or RetryPolicy.backoff + clock.sleep")
    rationale = ("Unpaced retries hammer failing nodes, synchronize into "
                 "retry storms, and starve SimClock-driven recovery "
                 "(breaker half-open probes never become due).")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            caught = retry_catch(node)
            if caught and not _has_pacing_call(node):
                yield self.finding(
                    ctx, node,
                    f"loop retries after {'/'.join(sorted(caught))} "
                    "with no backoff; route through "
                    "resilience.call_with_retries or sleep a "
                    "RetryPolicy.backoff delay between attempts")
