"""``breaker-unrecorded-outcome``: every admitted ``allow()`` must be
recorded.

A :class:`~repro.common.resilience.CircuitBreaker` learns only from
``record_success``/``record_failure``.  A call path that passes
``allow()`` and then returns without recording either outcome starves
the breaker's window: a half-open probe that never reports keeps the
breaker open forever, and silent successes never close it.

This is a *gated* protocol (:mod:`repro.analysis.protocol`): the
obligation opens only on the branch where ``allow()`` returned True
(``if not breaker.allow(): return`` obligates the fall-through, not
the rejected return), and is discharged by a ``record_*`` or
``reset`` on the same breaker.  Paths that leave by an uncaught
exception are excused — the checker cannot know which handler a
dynamic exception selects — but paths *through* handlers are still
searched, which is why the canonical shape is
``except: record_failure(); raise``.

:mod:`repro.common.resilience` itself is exempt: it implements the
breaker, so its internal transitions are not protocol clients.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.protocol import ProtocolSpec, check_protocol

BREAKER_SPEC = ProtocolSpec(
    name="circuit-breaker",
    receiver=re.compile(r"breaker", re.IGNORECASE).search,
    method_events=(
        (re.compile(r"^allow$"), "allow"),
        (re.compile(r"^(record_success|record_failure|reset)$"), "record"),
    ),
    obligation="allow",
    discharge=frozenset({"record"}),
    exit_message=(
        "{recv}.allow() admitted a call here, but some path returns "
        "without record_success/record_failure; unrecorded outcomes "
        "freeze the breaker's state machine"),
    gate=True,
)


@register
class BreakerUnrecordedOutcomeRule(Rule):
    name = "breaker-unrecorded-outcome"
    summary = ("a circuit breaker admits a call on a path that never "
               "records success or failure")
    rationale = ("Breakers only transition on recorded outcomes; an "
                 "admitted-but-unrecorded call leaves a half-open "
                 "breaker open forever and hides successes that should "
                 "close it.")
    exempt_suffixes = ("common/resilience.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for violation in check_protocol(ctx, BREAKER_SPEC):
            yield self.finding(ctx, violation.node, violation.message)
