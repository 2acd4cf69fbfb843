"""``retry-amplification``: one failure gets one retry budget.

Nested retrying contexts multiply load: an inner call that retries 3
times inside an outer loop that retries 3 times sends up to 9 requests
for one logical operation.  Under overload that multiplication is the
metastable-failure engine — the harder the system struggles, the more
traffic its clients generate, so the collapse outlives the spike that
started it.  The overload layer (``common/overload.py``) sheds load at
the front door precisely so that *one* bounded retry budget, owned by
one layer, is the only re-sending that happens.

A *retrying context* here is either a ``call_with_retries(...)`` call
(its arguments are the retried region) or a retry loop (per
``retry-without-backoff``'s definition,
:func:`~repro.analysis.summaries.retry_catch`) that catches a
transport error and keeps looping.  The rule flags, inside such a
context in any function:

* another ``call_with_retries`` call;
* another retry loop;
* a call to — or, for ``call_with_retries`` arguments, a function
  passed by reference that is — a function whose effect summary
  *retries*: it holds a retrying context itself or reaches one through
  any number of frames, in any file of the scan.

The fix is to pick the layer that owns the retry (usually the
outermost one with the deadline budget) and make every inner layer
fail fast — or shed — instead of re-sending.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import bare_name
from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.flow import callee_name, walk_scope
from repro.analysis.summaries import retry_catch


def _is_retry_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and \
        callee_name(node.func) == "call_with_retries"


@register
class RetryAmplificationRule(ProjectRule):
    name = "retry-amplification"
    summary = ("retrying context nested inside another retrying context; "
               "retry budgets multiply load under overload")
    rationale = ("An inner retry inside an outer retry turns one failure "
                 "into attempts^depth requests — the amplification that "
                 "makes overload metastable.  Exactly one layer owns the "
                 "retry; inner layers fail fast or shed.")

    def check_project(self, project) -> Iterator[Finding]:
        graph, summaries = project.graph, project.summaries
        flagged: set[int] = set()
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if not summaries[qualname].retries:
                continue        # no retrying context here or below
            # (call node, kind) -> bare names of the callees that retry
            retrying: dict[tuple[int, str], set[str]] = {}
            for site in graph.callees(qualname):
                callee = summaries.get(site.callee)
                if callee is not None and callee.retries:
                    retrying.setdefault((site.node_id, site.kind), set()) \
                        .add(bare_name(site.callee))
            for outer in walk_scope(ast.iter_child_nodes(fn.node),
                                    lambdas=True):
                if _is_retry_call(outer):
                    # the retried region is the call's arguments (the fn
                    # plus any callbacks), not the call node itself
                    region = [*outer.args, *(kw.value for kw in outer.keywords)]
                    passed = retrying.get((id(outer), "ref"), set())
                elif retry_catch(outer):
                    region, passed = [*outer.body, *outer.orelse], set()
                else:
                    continue
                for root in region:
                    for inner in walk_scope([root], lambdas=True):
                        if id(inner) in flagged:
                            continue
                        name = callee_name(getattr(inner, "func", inner))
                        if _is_retry_call(inner):
                            detail = "nested call_with_retries"
                        elif retry_catch(inner):
                            detail = "nested retry loop"
                        elif isinstance(inner, ast.Call) and \
                                (id(inner), "call") in retrying:
                            detail = (f"call to {name}(), "
                                      "which retries internally")
                        elif inner is root and name in passed and \
                                isinstance(inner, (ast.Name, ast.Attribute)):
                            # the retried callable itself retries
                            detail = (f"{name} (which retries internally) "
                                      "passed as the retried function")
                        else:
                            continue
                        flagged.add(id(inner))
                        yield self.finding(
                            fn.module.ctx, inner,
                            f"{detail} inside a retrying context: budgets "
                            "multiply (attempts^depth requests per "
                            "failure); let exactly one layer own the retry "
                            "and make the other fail fast")
