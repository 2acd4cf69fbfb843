"""The Voldemort client API (Figure II.2).

    1) get(key)                      -> list of Versioned
    2) put(key, versioned)           -> latency
    3) get(key, transform)           -> transformed read
    4) put(key, versioned, transform)-> server-side read-modify-write
    5) apply_update(action, retries) -> optimistic-locking retry loop

Values cross the wire as bytes; :class:`StoreClient` accepts an
optional serializer pair for richer types.  Conflict resolution is
delegated to the application: ``get`` returns the concurrent frontier
and ``get_resolved`` folds it with a caller-supplied resolver.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.common.errors import KeyNotFoundError, ObsoleteVersionError
from repro.common.vectorclock import VectorClock
from repro.voldemort.routing import RoutedStore
from repro.voldemort.versioned import Versioned

UpdateAction = Callable[["StoreClient"], None]
Resolver = Callable[[list[Versioned]], Versioned]


def last_writer_wins(versions: list[Versioned]) -> Versioned:
    """A simple resolver: highest total clock weight wins, ties broken
    deterministically by value."""
    return max(versions,
               key=lambda v: (sum(v.clock.entries.values()), v.value or b""))


class StoreClient:
    """High-level client bound to one store."""

    def __init__(self, routed_store: RoutedStore,
                 encode: Callable[[object], bytes] | None = None,
                 decode: Callable[[bytes], object] | None = None):
        self._routed = routed_store
        self._encode = encode or _identity_encode
        self._decode = decode or _identity_decode
        self.store = routed_store.store

    # -- reads -------------------------------------------------------------

    def get(self, key: bytes, transform: tuple | None = None
            ) -> list[Versioned]:
        """The concurrent-version frontier; [] when the key is absent."""
        try:
            versions, _ = self._routed.get(key, transform)
            return versions
        except KeyNotFoundError:
            return []

    def get_value(self, key: bytes, default: object = None,
                  resolver: Resolver = last_writer_wins) -> object:
        """Decoded value with conflicts folded by ``resolver``."""
        versions = self.get(key)
        if not versions:
            return default
        return self._decode(resolver(versions).value)

    def get_resolved(self, key: bytes,
                     resolver: Resolver = last_writer_wins) -> Versioned | None:
        versions = self.get(key)
        if not versions:
            return None
        if len(versions) == 1:
            return versions[0]
        winner = resolver(versions)
        merged_clock = winner.clock
        for versioned in versions:
            merged_clock = merged_clock.merged(versioned.clock)
        return Versioned(winner.value, merged_clock)

    # -- writes -----------------------------------------------------------------

    def put(self, key: bytes, value: object,
            version: VectorClock | None = None,
            transform: tuple | None = None) -> VectorClock:
        """Write a new version of ``key``.

        When ``version`` is omitted the client reads the current clock
        first (the common usage).  Supplying a stale clock raises
        :class:`ObsoleteVersionError` — the paper's optimistic locking.
        Returns the clock that was written.
        """
        if version is None:
            versions = self.get(key)
            version = VectorClock()
            for versioned in versions:
                version = version.merged(versioned.clock)
        master = self._routed.replica_nodes(key)[0]
        new_clock = version.incremented(master)
        payload = self._encode(value) if value is not None else b""
        self._routed.put(key, Versioned(payload, new_clock), transform)
        return new_clock

    def put_versioned(self, key: bytes, versioned: Versioned) -> float:
        """Low-level write of an already-clocked version."""
        return self._routed.put(key, versioned)

    def delete(self, key: bytes) -> bool:
        """Tombstone every current version; False when absent."""
        versions = self.get(key)
        if not versions:
            return False
        clock = VectorClock()
        for versioned in versions:
            clock = clock.merged(versioned.clock)
        master = self._routed.replica_nodes(key)[0]
        self._routed.delete(key, Versioned(None, clock.incremented(master)))
        return True

    # -- optimistic update loop (API method 5) ------------------------------------

    def apply_update(self, action: UpdateAction, retries: int = 3) -> bool:
        """Run ``action`` until it commits without a version conflict.

        "This retry logic can be encapsulated in the applyUpdate call
        and can be used in cases like counters where 'read, modify,
        write if no change' loops are required." (§II.B)
        """
        attempts = retries + 1
        for _ in range(attempts):
            try:
                action(self)
                return True
            except ObsoleteVersionError:
                continue
        return False

    # -- metrics --------------------------------------------------------------------

    @property
    def metrics(self):
        return self._routed.metrics


def _identity_encode(value: object) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"default serializer wants bytes/str, got {type(value).__name__}")


def _identity_decode(value: bytes | None) -> bytes | None:
    return value


def json_client(routed_store: RoutedStore) -> StoreClient:
    """A client whose values are JSON documents."""
    return StoreClient(
        routed_store,
        encode=lambda v: json.dumps(v, sort_keys=True).encode("utf-8"),
        decode=lambda b: None if b in (None, b"") else json.loads(b.decode("utf-8")),
    )
