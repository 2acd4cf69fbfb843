"""``durability-unsynced-ack``: WAL/disk writes must reach an fsync on
every path that acks.

DESIGN.md §9's contract is *acked ⇒ fsynced ⇒ recoverable*: a system
may only acknowledge a write after the bytes that make it recoverable
are forced to stable storage.  The repo encodes durable channels in
names — WAL handles end in ``wal`` (``_slop_wal``, ``_commit_wal``,
``_log_wal``) and raw device handles in ``disk`` — and, flow-wise, in
provenance: a local bound from ``<disk>.open(...)`` is a durable file
handle whatever it is called.

The PR 3 version of this rule was a line heuristic ("an fsync at or
after the write's line"), blind to branching: a write whose fsync sat
on only *one* branch passed, and a loop whose fsync preceded the write
lexically but followed it on every path failed.  This version is
typestate checking on the CFG (:mod:`repro.analysis.protocol`): from
every ``append``/``write`` on a durable channel, **every** path must
hit an ``fsync`` on the same receiver before

* the function returns normally (the caller acks against the return),
* an ``ack``-named call fires, or
* a watermark advances (assignment to a ``*watermark``/``*scn``/
  ``applied_through`` attribute) — the durable-progress markers crash
  recovery trusts.

Paths that leave by an uncaught exception are excused: nothing gets
acked on them.  Nested functions are separate scopes, so an inner
closure still cannot borrow its parent's fsync.

:mod:`repro.common.wal`, :mod:`repro.common.storage`, and
:mod:`repro.simnet.disk` are exempt: they *implement* the durability
boundary (``append`` is documented as not-yet-durable there; the
caller owns the fsync placement).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.flow import names_word
from repro.analysis.protocol import ProtocolSpec, check_protocol

_DURABLE_WORDS = frozenset({"wal", "disk"})


def _durable_receiver(name: str) -> bool:
    return names_word(name, _DURABLE_WORDS)


#: Named WAL/disk receivers: append/write opens the obligation.
WAL_SPEC = ProtocolSpec(
    name="wal",
    receiver=_durable_receiver,
    method_events=(
        (re.compile(r"^(append|write)$"), "write"),
        (re.compile(r"fsync|^sync$"), "sync"),
        (re.compile(r"(^|_)ack"), "ack"),
    ),
    obligation="write",
    discharge=frozenset({"sync"}),
    forbidden_events=frozenset({"ack"}),
    forbidden_writes=re.compile(r"watermark|(^|_)scn(_|$)|applied_through",
                                re.IGNORECASE),
    exit_message=(
        "{recv} is written on a path that returns without an fsync; "
        "the caller can ack bytes a crash will erase "
        "(acked ⇒ fsynced ⇒ recoverable)"),
    forbidden_event_message=(
        "ack fires while {recv} holds unsynced bytes; fsync before "
        "acknowledging (acked ⇒ fsynced ⇒ recoverable)"),
    forbidden_write_message=(
        "watermark advances while {recv} holds unsynced bytes; a crash "
        "now replays a watermark the log cannot back"),
)

#: File handles whose provenance is ``<disk>.open(...)``: same contract,
#: receiver recognized by dataflow instead of naming convention.
DISK_HANDLE_SPEC = replace(
    WAL_SPEC,
    name="disk-handle",
    receiver=lambda name: False,   # nothing matches by name alone
    derive_open_from=_durable_receiver,
    method_events=(
        (re.compile(r"^(write|truncate|writelines)$"), "write"),
        *WAL_SPEC.method_events[1:],
    ),
    exit_message=(
        "{recv} (opened from a disk) is written on a path that returns "
        "without an fsync; the caller can ack bytes a crash will erase"),
    forbidden_event_message=(
        "ack fires while {recv} holds unsynced bytes; fsync before "
        "acknowledging"),
)


@register
class DurabilityUnsyncedAckRule(Rule):
    name = "durability-unsynced-ack"
    summary = ("a WAL/disk write escapes to a return, ack, or watermark "
               "advance without an fsync on some path")
    rationale = ("The durability contract (DESIGN.md §9) is acked ⇒ "
                 "fsynced ⇒ recoverable; checked flow-sensitively, so a "
                 "branch that skips the fsync is caught even when "
                 "another branch syncs.")
    exempt_suffixes = ("common/wal.py", "common/storage.py",
                       "simnet/disk.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for spec in (WAL_SPEC, DISK_HANDLE_SPEC):
            for violation in check_protocol(ctx, spec):
                yield self.finding(ctx, violation.node, violation.message)
