"""The people-search service: Databus-fed index + socially-ranked queries.

"It started off as the way to keep LinkedIn's social graph and search
index consistent and up-to-date with the changes happening in the
databases" (§III.E) — so this service is a Databus consumer of the
member-profile table.  Query ranking integrates the social feature the
paper highlights: results inside the viewer's network outrank
out-of-network matches with the same text score.
"""

from __future__ import annotations

from repro.common.serialization import decode_record
from repro.databus.client import DatabusClient, DatabusConsumer
from repro.databus.relay import Relay
from repro.search.index import RankedInvertedIndex, SearchHit
from repro.socialgraph import PartitionedSocialGraph
from repro.sqlstore.binlog import ChangeKind
from repro.sqlstore.table import Column, TableSchema

MEMBER_TABLE = TableSchema(
    "member_profile",
    (Column("member_id", int), Column("name", str), Column("headline", str),
     Column("industry", str)),
    primary_key=("member_id",))

DEFAULT_BOOSTS = {"name": 3.0, "headline": 1.5, "industry": 1.0}

# social-distance feature values: closer is worth more
_DEGREE_FEATURE = {0: 0.0, 1: 1.0, 2: 0.5, 3: 0.25}


class PeopleSearchService(DatabusConsumer):
    """Maintains the index from CDC; serves socially-ranked queries."""

    def __init__(self, relay: Relay,
                 graph: PartitionedSocialGraph | None = None,
                 checkpoint: int = 0):
        self.relay = relay
        self.graph = graph
        self.index = RankedInvertedIndex(DEFAULT_BOOSTS)
        self.client = DatabusClient(self, relay, checkpoint=checkpoint)
        self.documents_indexed = 0

    # -- Databus consumer ---------------------------------------------------

    def on_data_event(self, event) -> None:
        if event.source != MEMBER_TABLE.name:
            return
        member_id = event.key[0]
        if event.kind is ChangeKind.DELETE:
            self.index.remove(member_id)
            return
        schema = self.relay.schemas.get(event.source, event.schema_version)
        row = decode_record(schema, event.payload)
        self.index.add(member_id, row)
        self.documents_indexed += 1

    def catch_up(self) -> int:
        return self.client.run_to_head()

    # -- the query API --------------------------------------------------------------

    def search(self, query: str, viewer: int | None = None,
               limit: int = 10, social_weight: float = 0.3
               ) -> list[SearchHit]:
        """Ranked people search.

        With a ``viewer`` and a graph attached, in-network results get
        a social-distance boost — "integration of ... social features"
        (§I.A).
        """
        feature_scorer = None
        if viewer is not None and self.graph is not None:
            def feature_scorer(member_id):
                distance = self.graph.distance(viewer, member_id,
                                               max_degrees=3)
                if distance is None:
                    return 0.0
                return _DEGREE_FEATURE.get(distance, 0.0)
        return self.index.search(query, limit=limit,
                                 feature_scorer=feature_scorer,
                                 feature_weight=social_weight)
