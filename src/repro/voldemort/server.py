"""The storage-node server: local store operations plus hint storage.

A server owns one engine per store and exposes the node-local
operations the routing layer calls over the (simulated) network.  It
also holds *hints* — writes accepted on behalf of an unreachable
replica during hinted handoff (§II.B "Repair mechanism") — and can
replay them once the destination recovers.

Hints are persisted through a :class:`~repro.common.wal.WriteAheadLog`
on the node's disk (the "slop store"): every accepted hint is fsynced
before the routing layer counts the write as successful, and every
delivery appends a fsynced tombstone marker, so a killed node restarts
with exactly its outstanding hints — acked vector clocks intact,
delivered hints gone — and compacts ``slops.wal`` down to them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ConfigurationError, NodeUnavailableError
from repro.common.wal import WriteAheadLog
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.engines.logstructured import decode_body, encode_body
from repro.voldemort.transforms import TRANSFORM_REGISTRY
from repro.voldemort.versioned import Versioned

_HINT_STORED = 0x00
_HINT_DELIVERED = 0x01
_HINT_HEADER = struct.Struct("<QqI")  # seq, destination node, store-name len
_HINT_SEQ = struct.Struct("<Q")


@dataclass(frozen=True)
class Hint:
    """A write held for an unreachable replica."""

    store: str
    key: bytes
    versioned: Versioned
    destination_node: int


def _encode_hint(seq: int, hint: Hint) -> bytes:
    store = hint.store.encode()
    return (bytes([_HINT_STORED])
            + _HINT_HEADER.pack(seq, hint.destination_node, len(store))
            + store + encode_body(hint.key, hint.versioned))


def _decode_hint(payload: bytes) -> Hint:
    _, destination, store_len = _HINT_HEADER.unpack_from(payload, 1)
    offset = 1 + _HINT_HEADER.size
    store = payload[offset:offset + store_len].decode()
    # the rest of the payload is the engine's record body
    key, versioned = decode_body(payload[offset + store_len:])
    return Hint(store, key, versioned, destination)


class VoldemortServer:
    """One node's server process."""

    def __init__(self, node_id: int, cluster):
        self.node_id = node_id
        self.cluster = cluster
        self._engines: dict[str, StorageEngine] = {}
        self.hints: list[Hint] = []
        self.requests_served = 0
        self._hint_seqs: list[int] = []   # aligned with self.hints
        self._next_hint_seq = 0
        self._slop_wal = WriteAheadLog("slops.wal",
                                       disk=cluster.node_disk(node_id))
        self._recover_hints()

    def _recover_hints(self) -> None:
        """Rebuild outstanding hints: stored minus delivered.  If any
        were delivered, compact the log down to the outstanding ones."""
        outstanding: dict[int, bytes] = {}
        for payload in self._slop_wal.replay():
            (seq,) = _HINT_SEQ.unpack_from(payload, 1)
            if payload[0] == _HINT_STORED:
                outstanding[seq] = payload
                self._next_hint_seq = max(self._next_hint_seq, seq + 1)
            elif payload[0] == _HINT_DELIVERED:
                outstanding.pop(seq, None)
        self._hint_seqs = sorted(outstanding)
        stored = [outstanding[seq] for seq in self._hint_seqs]
        self.hints = [_decode_hint(payload) for payload in stored]
        if self._slop_wal.recovered_frames > len(stored):
            # at least one delivered marker: drop it and its hint
            self._slop_wal.rewrite(stored)

    # -- store lifecycle (invoked by the admin service) ----------------------

    def open_store(self, definition) -> None:
        if definition.name in self._engines:
            raise ConfigurationError(f"store {definition.name} already open")
        self._engines[definition.name] = self.cluster.make_engine(
            definition, self.node_id)

    def close_store(self, name: str) -> None:
        engine = self._engines.pop(name, None)
        if engine is not None:
            engine.close()

    def engine(self, store: str) -> StorageEngine:
        try:
            return self._engines[store]
        except KeyError:
            raise ConfigurationError(
                f"node {self.node_id} has no store {store!r}") from None

    # -- node-local operations (called via the network) ----------------------

    def get(self, store: str, key: bytes,
            transform: tuple | None = None) -> list[Versioned]:
        self.requests_served += 1
        versions = self.engine(store).get(key)
        if transform is None:
            return versions
        name, *args = transform
        fn = TRANSFORM_REGISTRY.get_transform(name)
        return [Versioned(fn(v.value, *args), v.clock) for v in versions]

    def put(self, store: str, key: bytes, versioned: Versioned,
            transform: tuple | None = None) -> None:
        self.requests_served += 1
        if transform is not None:
            name, *args = transform
            fn = TRANSFORM_REGISTRY.get_transform(name)
            try:
                current = self.engine(store).get(key)
                base = max(current, key=lambda v: sum(v.clock.entries.values()))
                new_value = fn(base.value, *args)
            except KeyError:
                new_value = fn(None, *args)
            versioned = Versioned(new_value, versioned.clock)
        self.engine(store).put(key, versioned)

    def delete(self, store: str, key: bytes, versioned: Versioned) -> None:
        self.requests_served += 1
        self.engine(store).delete(key, versioned)

    def get_batch(self, store: str, groups: list[list[bytes]]
                  ) -> list[dict[bytes, Sequence[Versioned]]]:
        """Batched point reads, one answer per key group (the client
        sends one group per replica set); absent keys are omitted.

        One network round trip and one engine call serve many keys — the
        server half of the client's ``get_all``.
        """
        self.requests_served += 1
        return self.engine(store).get_many(groups)

    def ping(self) -> bool:
        return True

    # -- hinted handoff ----------------------------------------------------------

    def store_hint(self, hint: Hint) -> None:
        seq = self._next_hint_seq
        self._next_hint_seq += 1
        self._slop_wal.append(_encode_hint(seq, hint))
        self._slop_wal.fsync()  # the write is acked against this hint
        self.hints.append(hint)
        # seq is a reservation, not a stale read: _next_hint_seq moved
        # past it before the fsync, so a store_hint interleaved there
        # takes the next number, and the two appends stay aligned
        self._hint_seqs.append(seq)  # repro-lint: disable=atomicity-violation

    def hints_for(self, destination_node: int) -> list[Hint]:
        return [h for h in self.hints if h.destination_node == destination_node]

    def deliver_hints(self, destination_node: int) -> int:
        """Push held hints to a (recovered) replica; returns delivered count.

        Obsolete-version errors count as delivered — the destination
        already has newer data, so the hint's job is done.
        """
        from repro.common.errors import ObsoleteVersionError
        network = self.cluster.network
        delivered_seqs: list[int] = []
        for hint, seq in list(zip(self.hints, self._hint_seqs)):
            if hint.destination_node != destination_node:
                continue
            target = self.cluster.server_for(hint.destination_node)
            try:
                network.invoke(self.cluster.node_name(self.node_id),
                               self.cluster.node_name(hint.destination_node),
                               target.engine(hint.store).put,
                               hint.key, hint.versioned)
            except ObsoleteVersionError:
                pass
            except NodeUnavailableError:
                continue
            delivered_seqs.append(seq)
        if delivered_seqs:
            for seq in delivered_seqs:
                self._slop_wal.append(
                    bytes([_HINT_DELIVERED]) + _HINT_SEQ.pack(seq))
            self._slop_wal.fsync()
            # the lists may have changed while the deliveries and the
            # fsync were in flight (a hint stored, another destination
            # delivered): drop exactly what this call delivered
            done = set(delivered_seqs)
            kept = [i for i, seq in enumerate(self._hint_seqs)
                    if seq not in done]
            self.hints = [self.hints[i] for i in kept]
            self._hint_seqs = [self._hint_seqs[i] for i in kept]
        return len(delivered_seqs)

    # -- maintenance -----------------------------------------------------------------

    def stores_open(self) -> list[str]:
        return sorted(self._engines)

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()
        self._slop_wal.close()
