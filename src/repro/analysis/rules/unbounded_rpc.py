"""``unbounded-rpc``: a held deadline must bound every transitive RPC.

The intra-procedural ``deadline-dropped`` rule catches a function that
accepts a :class:`~repro.common.resilience.Deadline` and never reads
it.  This rule catches what that one structurally cannot: the function
reads its deadline conscientiously and then calls a helper that
performs network work *without the budget* — three frames down, the
request is back on default timeouts and the end-to-end bound the edge
promised is fiction.

Powered by the effect summaries: a function that receives (or
constructs) a deadline is an entry point of a bounded call chain; the
summary layer marks every call site in it where the budget stops
flowing — an RPC-reaching callee invoked without any deadline-tainted
argument, or a direct ``invoke``/``send`` that ignores the budget
while the function uses it elsewhere.  Each finding carries the full
witness chain (entry point → dropping call → … → concrete RPC site),
and a pragma on any frame suppresses it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import short_name
from repro.analysis.core import Finding, ProjectRule, register


@register
class UnboundedRpcRule(ProjectRule):
    name = "unbounded-rpc"
    summary = ("a held Deadline stops bounding the call chain before a "
               "transitive RPC (dropped at a call edge)")
    rationale = ("End-to-end latency bounds only hold if every hop clamps "
                 "to the remaining budget; one call edge that forwards "
                 "work but not the deadline unbounds the whole request "
                 "invisibly to per-function review.")

    def check_project(self, project) -> Iterator[Finding]:
        summaries = project.summaries
        for qualname in sorted(summaries):
            for chain in summaries[qualname].drops_deadline:
                drop = chain[0]
                rpc = chain[-1]
                where = f"{rpc.path}:{rpc.line}" \
                    if len(chain) > 1 else "this call"
                yield self.chain_finding(
                    project, drop.path, drop.line,
                    f"{short_name(qualname)}() holds a deadline but "
                    f"calls {short_name(drop.callee)} without it; the "
                    f"chain reaches an unbounded RPC at {where} — "
                    "forward the deadline or clamp a timeout "
                    "from it",
                    chain)
