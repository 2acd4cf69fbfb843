"""Cross-store integrity constraints as declared, checkable objects.

The paper's §V.D audit trail is one hand-built instance of a general
idea: a *conservation law* between what one stage of a pipeline emitted
and what the next stage holds.  The repo now has five derived-data
paths (sqlstore→Databus→Espresso, Espresso→search index, Voldemort
replicas, Kafka audit counts, migration shadow reads), and each had its
own ad-hoc divergence check.  This module turns those checks into four
reusable constraint families:

* :class:`CountConservation` — per-bucket message counts claimed by the
  producer side equal the counts observed on the consumer side (§V.D
  generalized beyond Kafka);
* :class:`KeySetContainment` — every key committed in a source store by
  a given SCN horizon is present in a derived store (the horizon comes
  from a certified cut, so in-flight rows are never false positives);
* :class:`ValueEquality` — where a key exists on both sides, the
  derived value equals the declared transform of the source value;
* :class:`ReplicaAgreement` — after quiescence, every responsible
  replica of a key holds the same readable value.

The two keyed families evaluate *what changed since they last looked;
never having looked, everything changed*: given a change feed they run
their one loop over the keys touched on either side since the previous
evaluation plus the keys that evaluation could not clear, and over
every key when the feed cannot bound that set (DESIGN.md §14.2).

A constraint never raises on a violated invariant: it *returns*
:class:`Violation` records carrying the evidence (expected, actual,
SCN) so the auditor can deduplicate, meter, and blame them.  All
iteration is explicitly sorted — same state, same violations, same
order — which is what makes same-seed audit reports byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common.errors import ConfigurationError

#: Sentinel values probes use for keys a replica cannot serve.  They are
#: plain strings so they survive ``repr`` round-trips in reports.
ABSENT_VALUE = "<absent>"
UNREADABLE = "<unreadable>"

_PREVIEW_LIMIT = 120


def preview(value: object) -> str:
    """A bounded, deterministic rendering of a value for evidence."""
    text = repr(value)
    if len(text) > _PREVIEW_LIMIT:
        return text[:_PREVIEW_LIMIT] + "..."
    return text


@dataclass(frozen=True)
class Violation:
    """One detected integrity violation, with its evidence.

    All descriptive fields are plain strings so a report serializes
    deterministically; ``raw_key`` carries the original (typed) key for
    blame-engine lineage checks but never appears in reports.
    """

    constraint: str          # name of the violated constraint
    kind: str                # e.g. "missing-key", "replica-divergence"
    subject: str             # the store/pipeline under audit
    key: str                 # repr of the affected key or bucket
    expected: str
    actual: str
    scn: int = 0             # source commit SCN when known, else 0
    detected_at: float = 0.0  # stamped by the auditor at detection time
    raw_key: object = field(default=None, repr=False, compare=False)

    @property
    def identity(self) -> tuple[str, str, str, str]:
        """What makes a violation "the same finding" across ticks."""
        return (self.constraint, self.kind, self.subject, self.key)

    def render(self) -> str:
        return (f"[{self.constraint}] {self.kind} in {self.subject}: "
                f"key {self.key} expected {self.expected}, "
                f"got {self.actual}")


class Constraint:
    """Base class: a named invariant over one or more stores.

    ``changed`` is the keyed families' change feed: each call returns
    the keys touched on either side since its previous call, or None
    when it cannot bound that set.  A constraint without a feed can
    never bound it and reads everything every time.
    """

    def __init__(self, name: str, subject: str,
                 changed: Callable[[], Iterable | None] | None = None):
        if not name or not subject:
            raise ConfigurationError("constraint needs a name and a subject")
        self.name = name
        self.subject = subject
        self.changed = changed
        # every key the last evaluation convicted or skipped as in
        # flight; None when there is no finished evaluation to build on
        self._pending: set | None = None

    def check(self) -> list[Violation]:
        """Evaluate now; returns violations (empty == invariant holds)."""
        raise NotImplementedError

    def _items_in_scope(self, probe: Callable[..., dict]) -> dict:
        """``probe``'s items restricted to this evaluation's scope:
        ``changed ∪ pending``, or everything (``probe()`` bare) when the
        feed cannot bound the delta or the last evaluation never
        finished.  The caller stores the new pending set only once its
        loop completes, so an evaluation that raised midway — its delta
        already drained — widens the next one to everything."""
        changed = self.changed() if self.changed is not None else None
        pending, self._pending = self._pending, None
        if changed is None or pending is None:
            return probe()
        return probe(pending.union(changed))

    def _violation(self, kind: str, raw_key: object, expected: str,
                   actual: str, scn: int = 0) -> Violation:
        return Violation(self.name, kind, self.subject, repr(raw_key),
                         expected, actual, scn=scn, raw_key=raw_key)


class CountConservation(Constraint):
    """Produced counts equal consumed counts, per bucket.

    ``produced`` and ``consumed`` return ``{bucket: count}`` maps (for
    the Kafka audit trail the bucket is ``(topic, window)``).  A deficit
    is lost messages; a surplus is duplicated messages.
    """

    def __init__(self, name: str, subject: str,
                 produced: Callable[[], dict],
                 consumed: Callable[[], dict]):
        super().__init__(name, subject)
        self.produced = produced
        self.consumed = consumed

    def check(self) -> list[Violation]:
        produced = dict(self.produced())
        consumed = dict(self.consumed())
        violations = []
        for bucket in sorted(set(produced) | set(consumed), key=repr):
            claimed = produced.get(bucket, 0)
            observed = consumed.get(bucket, 0)
            if claimed == observed:
                continue
            kind = ("lost-messages" if claimed > observed
                    else "duplicated-messages")
            violations.append(self._violation(
                kind, bucket,
                expected=f"{claimed} messages",
                actual=f"{observed} messages"))
        return violations


class KeySetContainment(Constraint):
    """Every source key committed by the horizon exists in the target.

    ``source_items`` returns ``{key: commit_scn}`` for the rows the
    source currently holds; ``contains`` answers membership in the
    derived store; ``horizon`` is the certified-cut SCN — keys committed
    after it are legitimately in flight and are skipped, which is what
    keeps a continuously-running check free of false positives.

    With a ``changed`` feed, ``source_items`` must also accept a set of
    keys and return just those of them the source holds.  A key leaves
    the evaluated scope only by being evaluated and found present, so
    asking twice cannot make a missing key pass.
    """

    def __init__(self, name: str, subject: str,
                 source_items: Callable[..., dict],
                 contains: Callable[[object], bool],
                 horizon: Callable[[], int],
                 changed: Callable[[], Iterable | None] | None = None):
        super().__init__(name, subject, changed)
        self.source_items = source_items
        self.contains = contains
        self.horizon = horizon

    def check(self) -> list[Violation]:
        horizon = int(self.horizon())
        violations = []
        pending = set()
        for key, scn in sorted(self._items_in_scope(self.source_items).items(),
                               key=lambda item: (item[1], repr(item[0]))):
            if scn > horizon:
                pending.add(key)  # committed after the cut: still in flight
                continue
            if not self.contains(key):
                pending.add(key)
                violations.append(self._violation(
                    "missing-key", key,
                    expected=f"present (committed at SCN {scn}, "
                             f"horizon {horizon})",
                    actual="absent", scn=scn))
        self._pending = pending
        return violations


class ValueEquality(Constraint):
    """Derived values equal the transform of their source values.

    ``expected_items`` returns ``{key: expected_value}`` (the transform
    already applied); ``actual_of`` reads the derived store and returns
    :data:`ABSENT_VALUE` for missing keys — absence is
    :class:`KeySetContainment`'s concern, so it is skipped here.  With
    ``scn_of`` and ``horizon`` given, keys committed past the cut are
    skipped like containment does.  With a ``changed`` feed,
    ``expected_items`` must also accept a set of keys, like
    :class:`KeySetContainment`'s ``source_items``.
    """

    def __init__(self, name: str, subject: str,
                 expected_items: Callable[..., dict],
                 actual_of: Callable[[object], object],
                 scn_of: Callable[[object], int] | None = None,
                 horizon: Callable[[], int] | None = None,
                 changed: Callable[[], Iterable | None] | None = None):
        super().__init__(name, subject, changed)
        self.expected_items = expected_items
        self.actual_of = actual_of
        self.scn_of = scn_of
        self.horizon = horizon

    def check(self) -> list[Violation]:
        horizon = int(self.horizon()) if self.horizon is not None else None
        violations = []
        pending = set()
        for key, expected in sorted(
                self._items_in_scope(self.expected_items).items(),
                key=lambda item: repr(item[0])):
            scn = int(self.scn_of(key)) if self.scn_of is not None else 0
            if horizon is not None and scn > horizon:
                pending.add(key)
                continue
            actual = self.actual_of(key)
            if actual == ABSENT_VALUE:
                continue
            if actual != expected:
                pending.add(key)
                violations.append(self._violation(
                    "value-divergence", key,
                    expected=preview(expected), actual=preview(actual),
                    scn=scn))
        self._pending = pending
        return violations


class ReplicaAgreement(Constraint):
    """Quorum peers hold the same readable value after quiescence.

    ``replica_values`` returns ``{key: {replica_name: value}}`` where
    the inner map covers exactly the replicas *responsible* for the key
    (the probe consults the routing ring); probes report keys a replica
    cannot serve as :data:`ABSENT_VALUE` or :data:`UNREADABLE`, which
    disagree with any real value and therefore surface here.
    """

    def __init__(self, name: str, subject: str,
                 replica_values: Callable[[], dict],
                 min_replicas: int = 1):
        super().__init__(name, subject)
        if min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")
        self.replica_values = replica_values
        self.min_replicas = min_replicas

    def _describe(self, by_replica: dict) -> str:
        parts = [f"{replica}={preview(value)}"
                 for replica, value in sorted(by_replica.items())]
        return ", ".join(parts)

    def check(self) -> list[Violation]:
        violations = []
        for key, by_replica in sorted(self.replica_values().items(),
                                      key=lambda item: repr(item[0])):
            if len(by_replica) < self.min_replicas:
                violations.append(self._violation(
                    "under-replicated", key,
                    expected=f">= {self.min_replicas} replicas",
                    actual=f"{len(by_replica)} replicas "
                           f"({self._describe(by_replica)})"))
                continue
            distinct = {repr(value) for value in by_replica.values()}
            if len(distinct) > 1:
                violations.append(self._violation(
                    "replica-divergence", key,
                    expected="all replicas agree",
                    actual=self._describe(by_replica)))
        return violations


def check_all(constraints: Iterable[Constraint]) -> list[Violation]:
    """Evaluate several constraints; violations in declaration order."""
    out: list[Violation] = []
    for constraint in constraints:
        out.extend(constraint.check())
    return out
