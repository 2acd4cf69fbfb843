"""Declarative typestate checking over the CFG: API protocols as data.

The ordering contracts this repo lives by are two-event protocols on
one object: *after* event A (the obligation), event B (the discharge)
must happen *before* the scope ends or a forbidden event fires.
Instances:

* ``WriteAheadLog``: ``append* → fsync`` before the function returns
  (the return is what lets the caller ack) and before any
  ack/watermark-advance event;
* ``Disk`` file handles: ``write/truncate → fsync`` with the same
  obligations — handles are recognized *flow-wise*, as locals bound
  from ``<disk>.open(...)``;
* ``CircuitBreaker``: an admitted ``allow()`` must reach
  ``record_success`` or ``record_failure`` on every path that returns
  normally — an admitted call whose outcome is never recorded starves
  the breaker's sliding window and freezes its state.

A :class:`ProtocolSpec` declares the protocol; :func:`check_protocol`
enforces it with one forward dataflow per function
(:func:`~repro.analysis.flow.solve`) whose facts are the open
obligations: an obligation that reaches the normal exit (or a
forbidden event) on some path without passing a discharge *on the
same receiver* is a violation.
Paths that leave via an uncaught exception are excused — an exception
propagating out of the function means the caller never gets an ack to
mis-trust.  This is exactly where the PR 3 line-based heuristic fell
short in both directions: an ``fsync`` lexically later but on a
*different branch* satisfied it (missed cross-branch bug), and an
``fsync`` lexically earlier but on *every path* (loop headers) tripped
it (false positive).

Gated obligations (``gate=True``) model boolean-admission APIs: when
the gating call sits in an ``if``/``while`` test, the obligation opens
only on the branch edge where the call returned True (negations are
folded, so ``if not breaker.allow(): return`` obligates the
fall-through edge).  A gating call whose result the checker cannot
track (stored in a variable, passed along) conservatively obligates
both continuations.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.analysis.core import FileContext
from repro.analysis.flow import (
    CFG,
    callee_name,
    definitions,
    receiver_name,
    replay,
    solve,
    store_targets,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One two-phase object protocol.

    ``receiver`` tests receiver *names* to track (``self._slop_wal``
    tracks as ``_slop_wal``); ``derive_open_from`` additionally tracks
    locals bound from ``<passing receiver>.open(...)`` — the def-use
    link that lets ``with disk.open(p, "wb") as f`` put ``f`` under the
    same contract.  ``method_events`` maps method-name regexes to event
    names; the first match wins, so put specific patterns first.
    """

    name: str
    receiver: Callable[[str], object]
    method_events: tuple[tuple[re.Pattern, str], ...]
    obligation: str
    discharge: frozenset[str]
    exit_message: str
    derive_open_from: Callable[[str], object] | None = None
    #: attribute/subscript assignment targets matching this pattern are
    #: forbidden while an obligation is open (watermark advances)
    forbidden_writes: re.Pattern | None = None
    forbidden_write_message: str = ""
    #: method-call events forbidden while an obligation is open (acks)
    forbidden_events: frozenset[str] = field(default_factory=frozenset)
    forbidden_event_message: str = ""
    #: the obligation opens on the admitted branch edge of a gating
    #: call instead of at the call element itself
    gate: bool = False

    def classify(self, method: str) -> str | None:
        for pattern, event in self.method_events:
            if pattern.search(method):
                return event
        return None


@dataclass(frozen=True)
class ProtocolViolation:
    """One broken protocol path, ready to wrap into a lint Finding."""

    node: ast.AST          # anchor: obligation site or forbidden event
    message: str
    spec: ProtocolSpec


# -- event extraction --------------------------------------------------------


def _attr_target_text(target: ast.expr) -> str:
    """The attribute name written by an assignment target, seeing
    through subscripts (``self.partition_scn[p]`` -> ``partition_scn``);
    empty for plain local names."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _tracked_names(cfg: CFG, spec: ProtocolSpec) -> set[str]:
    """Receiver names under this spec's contract in one function."""
    tracked: set[str] = set()
    for _, _, element in cfg.elements():
        for call in cfg.calls[id(element)]:
            if not isinstance(call.func, ast.Attribute):
                continue
            recv = receiver_name(call.func)
            if recv and spec.receiver(recv) \
                    and spec.classify(call.func.attr) is not None:
                tracked.add(recv)
            # locals bound from <disk>.open(...) join the tracked set
            if spec.derive_open_from is not None \
                    and call.func.attr == "open" \
                    and recv and spec.derive_open_from(recv):
                for name in definitions(element):
                    tracked.add(name)
    return tracked


def _element_events(element: ast.AST, calls: list[ast.Call],
                    spec: ProtocolSpec, tracked: set[str]
                    ) -> list[tuple[str, str, ast.AST]]:
    """(receiver, event, node) triples this element, performing
    ``calls``, emits in source order.  Forbidden-write events use the
    pseudo-receiver ``*`` — they fire regardless of which tracked
    object is mid-protocol."""
    events: list[tuple[str, str, ast.AST]] = []
    for call in calls:
        event = spec.classify(callee_name(call.func))
        if event is None:
            continue
        recv = receiver_name(call.func)
        if recv in tracked:
            events.append((recv, event, call))
        elif event in spec.forbidden_events:
            # acks fire on whatever object sends them (self, a client,
            # a bare helper); forbidden events match on any receiver
            events.append(("*", event, call))
    if spec.forbidden_writes is not None:
        for target in store_targets(element):
            attr = _attr_target_text(target)
            if attr and spec.forbidden_writes.search(attr):
                events.append(("*", "forbidden-write", element))
    # calls inside an element run before the assignment binds, so sort
    # is unnecessary: calls_in yields call nodes, assignment fires last
    return events


# -- gated obligations -------------------------------------------------------


def _gated_edge_kind(test: ast.AST, call: ast.Call,
                     kind: str = "true") -> str | None:
    """Which branch edge means "the gating call returned True"?

    Folds ``not`` nesting: ``if allow():`` -> ``true`` edge, ``if not
    allow():`` -> ``false`` edge.  Returns None when the call is not
    part of this test (or the element is no test at all).
    """
    if test is call:
        return kind
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _gated_edge_kind(test.operand, call,
                                "false" if kind == "true" else "true")
    if isinstance(test, ast.BoolOp):
        return next(filter(None, (_gated_edge_kind(value, call, kind)
                                  for value in test.values)), None)
    return None


# -- the dataflow ------------------------------------------------------------


def check_cfg(cfg: CFG, spec: ProtocolSpec) -> Iterator[ProtocolViolation]:
    """All protocol violations of one spec in one function.  The facts
    are the open obligations, named by their sites: a discharge closes
    those open on its receiver, and a forbidden event or the normal
    exit convicts each one that reaches it."""
    tracked = _tracked_names(cfg, spec)
    if not tracked:
        return
    events: dict[int, list[tuple[str, str, ast.AST]]] = {}
    sites: list[tuple[str, ast.AST]] = []    # fact -> (receiver, node)
    # id(element), or (block id, edge kind) for a gate -> facts opened
    opens: dict[object, list[int]] = {}
    for block, _, element in cfg.elements():
        emitted = events[id(element)] = _element_events(
            element, cfg.calls[id(element)], spec, tracked)
        for recv, event, node in emitted:
            if event != spec.obligation:
                continue
            sites.append((recv, node))
            # a gated obligation opens on the admitted branch edge; a
            # gating call whose result is not branched on conservatively
            # obligates the fall-through (both branches of a test)
            admitted = _gated_edge_kind(element, node) if spec.gate else None
            opens.setdefault(id(element) if admitted is None
                             else (block.bid, admitted), []).append(
                len(sites) - 1)
    if not sites:
        return

    def step(element: ast.AST, facts: frozenset,
             found: list | None = None) -> frozenset:
        for recv, event, node in events[id(element)]:
            if event in spec.discharge:
                facts = frozenset(f for f in facts if sites[f][0] != recv)
            elif found is not None and (event == "forbidden-write"
                                        or event in spec.forbidden_events):
                message = spec.forbidden_write_message \
                    if event == "forbidden-write" \
                    else spec.forbidden_event_message
                found.extend(ProtocolViolation(
                    node, message.format(recv=sites[fact][0]), spec)
                    for fact in sorted(facts))
        return facts.union(opens.get(id(element), ()))

    into = solve(cfg, step, lambda block, edge, facts: facts.union(
        opens.get((block.bid, edge.kind), ())))
    yield from replay(cfg, into, step)
    for fact in sorted(into[cfg.exit.bid]):
        recv, node = sites[fact]
        yield ProtocolViolation(node, spec.exit_message.format(recv=recv),
                                spec)


def check_protocol(ctx: FileContext, spec: ProtocolSpec
                   ) -> Iterator[ProtocolViolation]:
    """Check one spec over every function of a parsed file."""
    for cfg in ctx.function_cfgs():
        yield from check_cfg(cfg, spec)


__all__ = [
    "ProtocolSpec",
    "ProtocolViolation",
    "check_cfg",
    "check_protocol",
]
