"""Blame attribution: walk the data lineage, rank the guilty stage.

A violation says *what* diverged; operators need *where*.  Every
derived-data path in the repo is a pipeline —

    commit → capture → relay → consumer → store writer

for Databus-fed stores, ``producer → broker`` for the Kafka audit
trail, ``replication → storage media`` for Voldemort replicas — and
each stage exposes a durable position (binlog SCN, relay buffer
contents, consumer checkpoint, Kafka offsets) that can be interrogated
after the fact.  A :class:`Lineage` is that pipeline written down as an
ordered list of ``(stage, check)`` pairs, where ``check`` inspects one
violation and answers: did the data make it *through* this stage
intact?

Ranking follows the pipeline's causal order: the **first** failing
stage is the most responsible (everything upstream of it demonstrably
did its job; everything downstream never received the data), so it gets
score 1.0 and each later failing stage half the previous.  Stages whose
check cannot decide (``None`` or a taxonomy error) get a small residual
score rather than zero — unknown is not innocent.  If every check
passes yet the violation exists, the last stage — the one closest to
the corrupted artifact — takes a low-confidence default blame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, ReproError
from repro.audit.constraints import Violation

# Canonical stage names, shared by lineages and the injector's
# ground-truth records so accuracy can be scored by string equality.
STAGE_COMMIT = "commit"
STAGE_CAPTURE = "capture"
STAGE_RELAY = "relay"
STAGE_CONSUMER = "consumer"
STAGE_STORE_WRITER = "store-writer"
STAGE_INDEXER = "indexer"
STAGE_PRODUCER = "producer"
STAGE_BROKER = "broker"
STAGE_REPLICATION = "replication"
STAGE_STORAGE_MEDIA = "storage-media"

#: A check answers: did this stage handle the violated key correctly?
#: True = verified good, False = verified broken, None = cannot tell.
StageCheck = Callable[[Violation], bool | None]


@dataclass(frozen=True)
class Evidence:
    """One interrogated stage: its verdict and a human-readable detail."""

    stage: str
    ok: bool | None
    detail: str = ""


@dataclass(frozen=True)
class BlameVerdict:
    """The ranked outcome of one lineage walk."""

    top: str                                   # most responsible stage
    ranking: tuple[tuple[str, float], ...]     # (stage, score), best first
    evidence: tuple[Evidence, ...]             # pipeline order

    def score_of(self, stage: str) -> float:
        for name, score in self.ranking:
            if name == stage:
                return score
        return 0.0


class Lineage:
    """An ordered pipeline of (stage, check) pairs for one constraint."""

    def __init__(self, stages: list[tuple[str, StageCheck]]):
        if not stages:
            raise ConfigurationError("a lineage needs at least one stage")
        names = [name for name, _ in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stage names in {names}")
        self.stages = list(stages)

    def stage_names(self) -> list[str]:
        return [name for name, _ in self.stages]


class BlameEngine:
    """Maps constraint names to lineages and attributes violations."""

    def __init__(self):
        self._lineages: dict[str, Lineage] = {}
        self.attributions = 0

    def register(self, constraint_name: str, lineage: Lineage) -> None:
        if constraint_name in self._lineages:
            raise ConfigurationError(
                f"lineage for {constraint_name!r} already registered")
        self._lineages[constraint_name] = lineage

    def attribute(self, violation: Violation) -> BlameVerdict | None:
        """Walk the violation's lineage; None when none is registered."""
        lineage = self._lineages.get(violation.constraint)
        if lineage is None:
            return None
        self.attributions += 1
        evidence: list[Evidence] = []
        for stage, check in lineage.stages:
            try:
                ok = check(violation)
            except ReproError as exc:
                evidence.append(Evidence(
                    stage, None, f"check raised {type(exc).__name__}: {exc}"))
                continue
            detail = {True: "verified intact", False: "verified broken",
                      None: "undetermined"}[ok]
            evidence.append(Evidence(stage, ok, detail))
        return _rank(lineage, evidence)


def _rank(lineage: Lineage, evidence: list[Evidence]) -> BlameVerdict:
    names = lineage.stage_names()
    scores = {name: 0.0 for name in names}
    failed = [e.stage for e in evidence if e.ok is False]
    unknown = [e.stage for e in evidence if e.ok is None]
    if failed:
        # first broken link in causal order carries the blame; later
        # breakage is likely downstream fallout of the same loss
        for rank, stage in enumerate(failed):
            scores[stage] = 1.0 / (2 ** rank)
        for stage in unknown:
            scores[stage] = max(scores[stage], 0.1)
    elif unknown:
        for rank, stage in enumerate(unknown):
            scores[stage] = 0.5 / (2 ** rank)
    else:
        # every stage checks out yet the data is wrong: default to the
        # stage closest to the corrupted artifact, at low confidence
        scores[names[-1]] = 0.1
    order = {name: index for index, name in enumerate(names)}
    ranking = tuple(sorted(scores.items(),
                           key=lambda item: (-item[1], order[item[0]])))
    return BlameVerdict(top=ranking[0][0], ranking=ranking,
                        evidence=tuple(evidence))
