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
enforces it by path search: from each obligation site, walk every CFG
path; a path that reaches the normal exit (or a forbidden event)
without passing a discharge *on the same receiver* is a violation.
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
from typing import Iterator

from repro.analysis.core import FileContext
from repro.analysis.flow import (
    CFG,
    BasicBlock,
    calls_in,
    definitions,
    receiver_name,
    store_targets,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One two-phase object protocol.

    ``receiver`` matches receiver *names* to track (``self._slop_wal``
    tracks as ``_slop_wal``); ``derive_open_from`` additionally tracks
    locals bound from ``<matching receiver>.open(...)`` — the def-use
    link that lets ``with disk.open(p, "wb") as f`` put ``f`` under the
    same contract.  ``method_events`` maps method-name regexes to event
    names; the first match wins, so put specific patterns first.
    """

    name: str
    receiver: re.Pattern
    method_events: tuple[tuple[re.Pattern, str], ...]
    obligation: str
    discharge: frozenset[str]
    exit_message: str
    derive_open_from: re.Pattern | None = None
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
        for call in calls_in(element):
            if not isinstance(call.func, ast.Attribute):
                continue
            recv = receiver_name(call.func)
            if recv and spec.receiver.search(recv) \
                    and spec.classify(call.func.attr) is not None:
                tracked.add(recv)
            # locals bound from <disk>.open(...) join the tracked set
            if spec.derive_open_from is not None \
                    and call.func.attr == "open" \
                    and recv and spec.derive_open_from.search(recv):
                for name in definitions(element):
                    tracked.add(name)
    return tracked


def _element_events(element: ast.AST, spec: ProtocolSpec,
                    tracked: set[str]) -> list[tuple[str, str, ast.AST]]:
    """(receiver, event, node) triples this element emits, in source
    order.  Forbidden-write events use the pseudo-receiver ``*`` —
    they fire regardless of which tracked object is mid-protocol."""
    events: list[tuple[str, str, ast.AST]] = []
    for call in calls_in(element):
        method = None
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            recv = receiver_name(call.func)
        elif isinstance(call.func, ast.Name):
            method = call.func.id
            recv = None
        if method is None:
            continue
        event = spec.classify(method)
        if event is None:
            continue
        if recv is not None and recv in tracked:
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


def _gated_edge_kind(test: ast.expr, call: ast.Call) -> str | None:
    """Which branch edge means "the gating call returned True"?

    Folds ``not`` nesting: ``if allow():`` -> ``true`` edge, ``if not
    allow():`` -> ``false`` edge.  Returns None when the call is not
    part of this test.
    """
    def search(node: ast.expr, parity: int) -> int | None:
        if node is call:
            return parity
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return search(node.operand, parity ^ 1)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                found = search(value, parity)
                if found is not None:
                    return found
        return None

    parity = search(test, 0)
    if parity is None:
        return None
    return "false" if parity else "true"


# -- the path search ---------------------------------------------------------


def _search_from(cfg: CFG, spec: ProtocolSpec, recv: str,
                 events_at: dict[tuple[int, int], list[tuple[str, str, ast.AST]]],
                 start: tuple[BasicBlock, int],
                 obligation_node: ast.AST) -> Iterator[ProtocolViolation]:
    """Walk every path from just-after the obligation site; yield a
    violation for each way the obligation can escape undischarged."""
    reported_exit = False
    reported_nodes: set[int] = set()
    # (block, starting element index); full-block revisits are pruned
    stack: list[tuple[BasicBlock, int]] = [start]
    seen_blocks: set[int] = set()
    seen_exc: set[int] = set()
    while stack:
        block, index = stack.pop()
        # an exception may fire between any two elements of this block:
        # the obligation stays open into the handlers
        if block.bid not in seen_exc:
            seen_exc.add(block.bid)
            for edge in block.out_edges:
                if edge.kind == "exc" and edge.dst is not cfg.raise_exit:
                    if edge.dst.bid not in seen_blocks:
                        seen_blocks.add(edge.dst.bid)
                        stack.append((edge.dst, 0))
        discharged = False
        for i in range(index, len(block.elements)):
            for event_recv, event, node in events_at.get((block.bid, i), ()):
                if event_recv == recv and event in spec.discharge:
                    discharged = True
                    break
                if event == "forbidden-write" or event in spec.forbidden_events:
                    if id(node) not in reported_nodes:
                        reported_nodes.add(id(node))
                        message = (spec.forbidden_write_message
                                   if event == "forbidden-write"
                                   else spec.forbidden_event_message)
                        yield ProtocolViolation(node, message.format(recv=recv),
                                                spec)
            if discharged:
                break
        if discharged:
            continue
        for edge in block.out_edges:
            if edge.kind == "exc":
                continue   # handled above; raise_exit is excused
            if edge.dst is cfg.exit:
                if not reported_exit:
                    reported_exit = True
                    yield ProtocolViolation(
                        obligation_node, spec.exit_message.format(recv=recv),
                        spec)
            elif edge.dst.bid not in seen_blocks:
                seen_blocks.add(edge.dst.bid)
                stack.append((edge.dst, 0))


def check_cfg(cfg: CFG, spec: ProtocolSpec) -> Iterator[ProtocolViolation]:
    """All protocol violations of one spec in one function."""
    tracked = _tracked_names(cfg, spec)
    if not tracked:
        return
    events_at: dict[tuple[int, int], list[tuple[str, str, ast.AST]]] = {}
    for block, index, element in cfg.elements():
        events = _element_events(element, spec, tracked)
        if events:
            events_at[(block.bid, index)] = events

    for block, index, element in cfg.elements():
        for recv, event, node in events_at.get((block.bid, index), ()):
            if event != spec.obligation:
                continue
            if spec.gate:
                yield from _check_gated(cfg, spec, recv, events_at,
                                        block, index, node)
            else:
                yield from _search_from(cfg, spec, recv, events_at,
                                        (block, index + 1), node)


def _check_gated(cfg: CFG, spec: ProtocolSpec, recv: str,
                 events_at: dict, block: BasicBlock, index: int,
                 call: ast.AST) -> Iterator[ProtocolViolation]:
    """Open a gated obligation on the admitted branch edge(s)."""
    element = block.elements[index]
    admitted_kind = None
    if isinstance(element, ast.expr):   # a branch-test pseudo-element
        admitted_kind = _gated_edge_kind(element, call)
    if admitted_kind is not None:
        for edge in block.out_edges:
            if edge.kind == admitted_kind:
                yield from _search_from(cfg, spec, recv, events_at,
                                        (edge.dst, 0), call)
    else:
        # result not directly branched on: conservatively obligate the
        # fall-through — both branches if the element was a test
        yield from _search_from(cfg, spec, recv, events_at,
                                (block, index + 1), call)


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
