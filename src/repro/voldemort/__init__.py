"""Voldemort: a Dynamo-style distributed key-value store (paper §II).

Layered exactly like Figure II.1's pluggable architecture:

* client API with vector-clocked values, server-side transforms, and
  optimistic ``apply_update`` retry loops — :mod:`repro.voldemort.client`;
* conflict resolution — :mod:`repro.common.vectorclock`;
* repair mechanisms — read repair in :mod:`repro.voldemort.routing`,
  hinted handoff in :mod:`repro.voldemort.server` (hint storage and
  replay) and :mod:`repro.voldemort.slop` (the pusher);
* failure detector (success-ratio based) —
  :mod:`repro.voldemort.failure_detector`;
* routing (consistent hashing with fixed partitions; zone-aware
  variant; Chord baseline for the O(1)-vs-O(log N) claim) —
  :mod:`repro.voldemort.routing`, :mod:`repro.voldemort.chord`;
* storage engines (in-memory, log-structured read-write, read-only
  bulk-loaded) — :mod:`repro.voldemort.engines`;
* admin service (store management, rebalancing) —
  :mod:`repro.voldemort.admin`;
* the Hadoop build/pull/swap data cycle for read-only stores —
  :mod:`repro.voldemort.readonly_pipeline`.
"""

from repro.voldemort.versioned import Versioned
from repro.voldemort.cluster import StoreDefinition, VoldemortCluster
from repro.voldemort.server import VoldemortServer
from repro.voldemort.routing import RoutedStore
from repro.voldemort.client import StoreClient, UpdateAction
from repro.voldemort.failure_detector import FailureDetector

__all__ = [
    "Versioned",
    "StoreDefinition",
    "VoldemortCluster",
    "VoldemortServer",
    "RoutedStore",
    "StoreClient",
    "UpdateAction",
    "FailureDetector",
]
