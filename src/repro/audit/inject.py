"""Seeded violation injection: plant known corruptions, score recall.

An auditor that has never been proven to *catch* anything is a dashboard,
not a safety net.  The :class:`ViolationInjector` plants corruptions the
auditor must find — each through the real damage path the corresponding
production failure would take:

* **dropped relay event** — a whole transaction window silently removed
  from a relay buffer (``Relay.drop_window``), the failure a consumer
  checkpoint skips straight past;
* **bit-flipped stored value** — one bit flipped inside a Voldemort
  log-structured record on the simulated disk, caught as a CRC failure
  only when the value is next read;
* **skipped index update** — a document removed from a search index its
  Databus consumer had already applied;
* **duplicated Kafka message** — an already-counted payload produced to
  the broker a second time, bypassing the producer's audit counting;
* **corrupted store write** — an arbitrary wrong write applied through
  a caller-supplied writer (e.g. a stale document put straight to an
  Espresso master).

Every plant is scheduled through the fault plan's ``inject`` action so
it lands at a deterministic simulated time and appears in the executed
fault trace, and every plant records a :class:`PlantedViolation` — the
ground truth (constraint, subject, key, guilty stage) that
:func:`reconcile` scores the auditor's findings against: caught,
missed, unexpected, and top-1 blame accuracy.

The injector deliberately takes the plan, clusters, and stores as
duck-typed arguments (the layering contract forbids ``audit`` importing
``simnet`` or ``migration``): it calls ``plan.inject(...)`` and
``plan.disk.flip_bit(...)`` but never names their types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.audit.blame import (
    STAGE_BROKER,
    STAGE_INDEXER,
    STAGE_RELAY,
    STAGE_STORAGE_MEDIA,
    STAGE_STORE_WRITER,
)
from repro.audit.engine import AuditFinding
from repro.databus.relay import DEFAULT_BUFFER, Relay
from repro.kafka.message import MessageSet

KIND_DROPPED_RELAY = "dropped-relay-event"
KIND_BIT_FLIP = "bit-flipped-value"
KIND_SKIPPED_INDEX = "skipped-index-update"
KIND_DUPLICATED_KAFKA = "duplicated-kafka-message"
KIND_CORRUPT_WRITE = "corrupted-store-write"


@dataclass(frozen=True)
class PlantedViolation:
    """Ground truth for one planted corruption."""

    kind: str
    constraint: str   # the constraint expected to fire
    subject: str      # its subject
    key: str          # the Violation.key (repr) expected in the finding
    stage: str        # the pipeline stage truly responsible
    at: float         # scheduled simulated time

    @property
    def identity(self) -> tuple[str, str, str]:
        return (self.constraint, self.subject, self.key)


class ViolationInjector:
    """Plants corruptions through a fault plan and records ground truth."""

    def __init__(self):
        self.planted: list[PlantedViolation] = []

    def _plant(self, kind: str, constraint: str, subject: str, key: str,
               stage: str, at: float) -> PlantedViolation:
        planted = PlantedViolation(kind, constraint, subject, key, stage, at)
        self.planted.append(planted)
        return planted

    # -- the injection kinds ----------------------------------------------

    def drop_relay_window(self, plan, at: float, relay: Relay, scn: int, *,
                          constraint: str, subject: str, key: object,
                          buffer_name: str = DEFAULT_BUFFER
                          ) -> PlantedViolation:
        """Silently remove the window committed at ``scn`` from the
        relay before any consumer polls it; the consumer checkpoint
        skips the gap without error — only containment can see it."""
        def fire() -> None:
            relay.drop_window(scn, buffer_name)

        plan.inject(at, f"drop-relay-window:{relay.name}:scn={scn}", fire)
        return self._plant(KIND_DROPPED_RELAY, constraint, subject,
                           repr(key), STAGE_RELAY, at)

    def flip_voldemort_bit(self, plan, at: float, cluster, store: str,
                           node_id: int, key: bytes, *, constraint: str,
                           subject: str) -> PlantedViolation:
        """Flip one bit inside the newest stored record for ``key`` on
        one replica's log.  The engine's CRC turns the flip into a
        ``ChecksumError`` on the next read, which the replica probe
        reports as an unreadable value — replica divergence."""
        node = cluster.node_name(node_id)

        def fire() -> None:
            engine = cluster.server_for(node_id).engine(store)
            offset, length = engine.record_span(key)
            path = f"{store}/{engine.LOG_NAME}"
            # last byte of the record: always inside the value/flag body,
            # so the header survives and the CRC check does the catching
            plan.disk.flip_bit(node, path, offset=offset + length - 1)

        plan.inject(at, f"bit-flip:{node}:{store}:{key!r}", fire)
        return self._plant(KIND_BIT_FLIP, constraint, subject, repr(key),
                           STAGE_STORAGE_MEDIA, at)

    def skip_index_update(self, plan, at: float, index, doc_id, *,
                          constraint: str, subject: str,
                          key: object = None) -> PlantedViolation:
        """Un-apply one already-indexed document, as if the indexer had
        skipped the update while still checkpointing past it.  ``key``
        is the source key the containment constraint will report (it
        defaults to the doc id, but containment over a SQL table keys
        violations by primary-key tuple)."""
        def fire() -> None:
            index.remove(doc_id)

        plan.inject(at, f"skip-index-update:{doc_id!r}", fire)
        return self._plant(KIND_SKIPPED_INDEX, constraint, subject,
                           repr(doc_id if key is None else key),
                           STAGE_INDEXER, at)

    def duplicate_kafka_message(self, plan, at: float, cluster, topic: str,
                                partition: int, payload: bytes, window: int,
                                *, constraint: str, subject: str
                                ) -> PlantedViolation:
        """Produce an already-counted payload straight to the broker,
        bypassing the auditing producer — consumed exceeds produced for
        the payload's window."""
        def fire() -> None:
            cluster.broker_for(topic, partition).produce(
                topic, partition, MessageSet.from_payloads([payload]))

        plan.inject(at, f"duplicate-kafka:{topic}-{partition}:w{window}",
                    fire)
        return self._plant(KIND_DUPLICATED_KAFKA, constraint, subject,
                           repr((topic, window)), STAGE_BROKER, at)

    def corrupt_store_write(self, plan, at: float,
                            writer: Callable[[], None], *, constraint: str,
                            subject: str, key: object,
                            stage: str = STAGE_STORE_WRITER
                            ) -> PlantedViolation:
        """Apply an arbitrary wrong write through ``writer`` (e.g. a
        stale document put directly to a store master)."""
        plan.inject(at, f"corrupt-store-write:{key!r}", writer)
        return self._plant(KIND_CORRUPT_WRITE, constraint, subject,
                           repr(key), stage, at)


@dataclass(frozen=True)
class InjectionAudit:
    """The score card: planted corruptions vs reported findings."""

    caught: tuple[PlantedViolation, ...]
    missed: tuple[PlantedViolation, ...]
    unexpected: tuple[tuple[str, str, str], ...]  # finding identities
    blame_hits: int
    blame_total: int

    @property
    def exact(self) -> bool:
        """Caught everything planted and nothing else."""
        return not self.missed and not self.unexpected

    @property
    def blame_accuracy(self) -> float:
        if self.blame_total == 0:
            return 1.0
        return self.blame_hits / self.blame_total

    def summary(self) -> str:
        return (f"caught {len(self.caught)}/{len(self.caught) + len(self.missed)}, "
                f"{len(self.unexpected)} unexpected, "
                f"blame {self.blame_hits}/{self.blame_total} top-1")


def reconcile(planted: list[PlantedViolation],
              findings: list[AuditFinding]) -> InjectionAudit:
    """Match findings to ground truth by (constraint, subject, key)."""
    by_identity = {}
    for finding in findings:
        violation = finding.violation
        identity = (violation.constraint, violation.subject, violation.key)
        by_identity.setdefault(identity, finding)
    caught, missed = [], []
    blame_hits = blame_total = 0
    matched: set[tuple[str, str, str]] = set()
    for plant in planted:
        finding = by_identity.get(plant.identity)
        if finding is None:
            missed.append(plant)
            continue
        caught.append(plant)
        matched.add(plant.identity)
        if finding.blame is not None:
            blame_total += 1
            if finding.blame.top == plant.stage:
                blame_hits += 1
    unexpected = tuple(sorted(identity for identity in by_identity
                              if identity not in matched))
    return InjectionAudit(tuple(caught), tuple(missed), unexpected,
                          blame_hits, blame_total)
