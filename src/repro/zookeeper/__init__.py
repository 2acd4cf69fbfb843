"""In-process Zookeeper-style coordination service.

Kafka "employ[s] a highly available consensus service Zookeeper" for
broker/consumer membership, rebalance triggers, and offset tracking
(§V.C); Helix "uses Zookeeper as a distributed store to maintain the
state of the cluster and a notification system" (§IV.B).  This package
provides those semantics: a znode tree with persistent, ephemeral and
sequential nodes, one-shot watches, and sessions whose expiry removes
their ephemerals.
"""

from repro.zookeeper.server import (
    CreateMode,
    EventType,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    SessionExpiredError,
    WatchedEvent,
    ZooKeeperServer,
    ZooKeeperSession,
)

__all__ = [
    "CreateMode",
    "EventType",
    "NodeExistsError",
    "NoNodeError",
    "NotEmptyError",
    "SessionExpiredError",
    "WatchedEvent",
    "ZooKeeperServer",
    "ZooKeeperSession",
]
