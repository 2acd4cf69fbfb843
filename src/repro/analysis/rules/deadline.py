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
``Deadline``) that never *reads* it — no ``deadline.clamp(...)``, no
``deadline.check()``, no forwarding it to a callee — while the effect
summaries record a drop in it: a simulated-network call
(``.invoke``/``.send``), a ``call_with_retries``, or a call that
reaches either.  A function that reads its deadline somewhere and
still drops it at one call is ``unbounded-rpc``'s.

Functions that merely accept the parameter for interface conformance
and do no network work are not flagged.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import deadline_params
from repro.analysis.core import Finding, ProjectRule, register


@register
class DeadlineDroppedRule(ProjectRule):
    name = "deadline-dropped"
    summary = ("function accepts a Deadline but performs network calls "
               "without consulting or forwarding it")
    rationale = ("Deadline budgets only bound tail latency if every hop "
                 "clamps its timeout to the remaining budget; one hop "
                 "that drops the deadline unbounds the whole request.")

    def check_project(self, project) -> Iterator[Finding]:
        for qualname in sorted(project.summaries):
            summary = project.summaries[qualname]
            if not summary.drops_deadline or summary.reads_deadline:
                continue
            fn = project.graph.functions[qualname]
            for param in deadline_params(fn.node):
                yield self.finding(
                    fn.module.ctx, fn.node,
                    f"{fn.name}() accepts {param!r} but never reads it "
                    "before its network calls; clamp per-hop timeouts "
                    "with deadline.clamp(...) and forward it downstream")
