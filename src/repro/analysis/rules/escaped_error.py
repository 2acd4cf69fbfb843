"""``escaped-internal-error``: public APIs speak the error taxonomy.

:mod:`repro.common.errors` is the failure vocabulary every subsystem
shares — callers catch :class:`ReproError` subtypes, failure-injection
tests assert on them, and the resilience layer's retry/shed decisions
key off them.  A raw ``KeyError`` or ``ValueError`` leaking out of a
public API instead is an implementation detail escaping the contract:
the caller either misses it (and crashes) or starts catching builtin
exceptions (and masks real programming errors).

The rule walks the may-raise summaries of the *public API boundary* —
functions re-exported by a package ``__init__`` plus public methods of
re-exported classes — and flags every internal exception type that can
propagate out, with the witness chain from the boundary function down
to the ``raise`` site.  Internal means: an explicitly raised type that
is not a :class:`ReproError` subtype (scanned classes are checked
through their real bases, so :class:`KeyNotFoundError`, which is both
a ``KeyError`` and a ``ReproError``, passes) and not on the small
allowed list (``NotImplementedError`` for abstract methods,
``AssertionError`` for invariants).

Findings anchor at the raise site — that is where the fix lands (wrap
in the right taxonomy error) — deduplicated across the possibly many
boundary functions that reach it.
"""

from __future__ import annotations

import builtins
from typing import Iterator

from repro.analysis.callgraph import bare_name
from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.summaries import Hierarchy, iter_public_boundary

#: Exception types a public boundary may legitimately let escape.
ALLOWED_ESCAPES = frozenset({
    "NotImplementedError",   # abstract-method stubs
    "AssertionError",        # internal invariants; tests rely on them
    "StopIteration",         # iterator protocol
    "GeneratorExit",
    "KeyboardInterrupt",
    "SystemExit",
})


@register
class EscapedInternalErrorRule(ProjectRule):
    name = "escaped-internal-error"
    summary = ("a raw builtin exception can escape a package-exported "
               "public API instead of a ReproError from the taxonomy")
    rationale = ("Callers and failure-injection tests program against "
                 "repro.common.errors; an internal KeyError/ValueError "
                 "escaping the boundary bypasses retry/shed policy and "
                 "turns an expected failure into a crash.")

    def check_project(self, project) -> Iterator[Finding]:
        summaries = project.summaries
        hierarchy = Hierarchy(project.graph)
        reported: set[tuple[str, int, str]] = set()
        for fn in iter_public_boundary(project):
            summary = summaries.get(fn.qualname)
            if summary is None:
                continue
            for raised in sorted(summary.raises):
                if not self._is_internal(raised, hierarchy):
                    continue
                chain = summary.raises[raised]
                site = chain[-1]
                key = (site.path, site.line, bare_name(raised))
                if key in reported:
                    continue
                reported.add(key)
                entry = f"{fn.rel_path}:{fn.node.lineno}"
                yield self.chain_finding(
                    project, site.path, site.line,
                    f"{bare_name(raised)} raised here escapes the "
                    f"public API {_entry(fn.qualname)}() "
                    f"({entry}); wrap it in the matching "
                    "repro.common.errors type at the boundary "
                    "it crosses",
                    chain)

    @staticmethod
    def _is_internal(raised: str, hierarchy) -> bool:
        short = bare_name(raised)
        if short in ALLOWED_ESCAPES:
            return False
        if hierarchy.is_subtype(raised, "ReproError"):
            return False
        if raised in hierarchy.bases:
            # a scanned class outside the taxonomy: internal iff it is
            # exception-shaped at all
            return hierarchy.is_subtype(raised, "Exception")
        builtin = getattr(builtins, short, None)
        return isinstance(builtin, type) \
            and issubclass(builtin, Exception)


def _entry(qualname: str) -> str:
    """``repro.pkg.mod.Server.get`` -> ``Server.get`` (module-level
    functions shorten to the bare name)."""
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]
