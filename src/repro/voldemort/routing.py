"""Quorum routing with repair mechanisms (§II.B "Routing").

:class:`RoutedStore` implements Dynamo-style coordination:

* the replica set for a key is found by jumping the ring (zone-aware
  when the store requires it);
* reads fan out to available replicas and succeed once R respond; the
  version frontier is computed with vector clocks, and *read repair*
  pushes the frontier back to stale replicas;
* writes fan out and succeed once W respond; when a replica is down,
  *hinted handoff* parks the write on another live node, which replays
  it after recovery;
* every outcome feeds the failure detector, so routing avoids nodes
  that are currently unavailable.

The request model is parallel fan-out: per-replica latencies are
sampled independently and the operation's simulated latency is the
k-th smallest among the successful responses (k = R or W), matching
how a parallel quorum behaves.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Sequence

from repro.common.errors import (
    DeadlineExceededError,
    InsufficientOperationalNodesError,
    KeyNotFoundError,
    NodeUnavailableError,
    ObsoleteVersionError,
    OverloadError,
    ServerOverloadedError,
)
from repro.common.metrics import LatencyHistogram, MetricsRegistry
from repro.common.overload import (
    PRIORITY_BULK,
    PRIORITY_LIVE,
    PRIORITY_WRITE,
    AdmissionController,
    HedgedCall,
)
from repro.common.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.common.ring import HashRing
from repro.common.vectorclock import frontier_of, same_single_version
from repro.voldemort.cluster import StoreDefinition, VoldemortCluster
from repro.voldemort.failure_detector import FailureDetector
from repro.voldemort.server import Hint
from repro.voldemort.versioned import Versioned


class RoutedStore:
    """Client-side (or server-side — the module is pluggable) router
    for one store."""

    def __init__(self, cluster: VoldemortCluster, store: str,
                 client_name: str = "client",
                 failure_detector: FailureDetector | None = None,
                 enable_read_repair: bool = True,
                 enable_hinted_handoff: bool = True,
                 client_zone: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_config: dict | None = None,
                 admission: AdmissionController | None = None,
                 hedge: HedgedCall | None = None):
        self.cluster = cluster
        self.store = store
        self.definition: StoreDefinition = cluster.store_definition(store)
        self.client_name = client_name
        self.detector = failure_detector or FailureDetector(
            cluster.clock, ping=self._ping_node)
        self.enable_read_repair = enable_read_repair
        self.enable_hinted_handoff = enable_hinted_handoff
        # unified resilience layer: quorum rounds retry per policy, and a
        # per-node breaker stops hammering replicas that keep failing.
        # The breaker needs more samples than the failure detector's
        # minimum (5) so the detector always sees enough real outcomes
        # to mark a node down before calls to it are short-circuited.
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(0)
        self._breaker_config = {"window": 16, "minimum_samples": 8,
                                "reset_timeout": 1.0}
        self._breaker_config.update(breaker_config or {})
        self._breakers: dict[int, CircuitBreaker] = {}
        if self.detector.on_mark_up is None:
            self.detector.on_mark_up = self._reset_breaker
        # multi-datacenter read locality: with a client zone declared,
        # reads prefer replicas in nearby zones (the zone "proximity
        # list" of §II.B)
        self.client_zone = client_zone
        # the admin service's redirect table: while a partition is
        # migrating, "requests of moving partitions [redirect] to their
        # new destination" (§II.B Admin Service)
        self.admin = None
        self.metrics = MetricsRegistry()
        # overload layer (all optional, off by default):
        # * admission sheds whole operations at the front door — checked
        #   BEFORE any breaker so a shed never consumes an admitted
        #   breaker slot and never counts as a node failure;
        # * hedge fires one backup read at the next replica when the
        #   primary is slower than the tracked p99 (tail-latency cut
        #   under gray failure).
        self.admission = admission
        self.hedge = hedge

    # -- replica selection ------------------------------------------------------

    def replica_nodes(self, key: bytes) -> list[int]:
        """Replica node ids for ``key``, preference order.

        Consults the admin service's redirect table when one is
        attached, so requests for a partition that is mid-migration
        land on its new destination immediately.
        """
        ring = self.cluster.ring
        return list(self._preference(ring, ring.partition_for_key(key)))

    def _preference(self, ring: HashRing, partition: int
                    ) -> tuple[int, ...]:
        """The ring's memoised preference list, with admin redirects
        applied per call (they come and go without a new ring)."""
        partitions, owners = ring.preference_list(
            partition, self.definition.replication_factor,
            self.definition.required_zones)
        if self.admin is None or not self.admin.redirects:
            return owners
        return tuple(dict.fromkeys(  # order-preserving de-duplication
            self.admin.effective_owner(p) for p in partitions))

    def _ping_node(self, node_id: int) -> bool:
        server = self.cluster.server_for(node_id)
        try:
            self.cluster.network.invoke(
                self.client_name, self.cluster.node_name(node_id), server.ping)
            return True
        except OverloadError:
            # a shed ping still proves the node is alive
            return True
        except NodeUnavailableError:
            return False

    def breaker_for(self, node_id: int) -> CircuitBreaker:
        """The per-node circuit breaker (created on first use)."""
        try:
            return self._breakers[node_id]
        except KeyError:
            breaker = self._breakers[node_id] = CircuitBreaker(
                self.cluster.clock, name=f"node-{node_id}",
                metrics=self.metrics, **self._breaker_config)
            return breaker

    def _reset_breaker(self, node_id: int) -> None:
        """Detector says the node recovered; forget breaker history."""
        breaker = self._breakers.get(node_id)
        if breaker is not None:
            breaker.reset()

    @cached_property
    def _get_latency(self) -> LatencyHistogram:
        """The ``get`` histogram, registered at the first read."""
        return self.metrics.histogram("get")

    @cached_property
    def _put_latency(self) -> LatencyHistogram:
        """The ``put`` histogram, registered at the first write."""
        return self.metrics.histogram("put")

    def _hop_timeout(self, deadline: Deadline | None) -> float | None:
        """Per-hop timeout clamped by the remaining request budget."""
        if deadline is None:
            return None
        return deadline.clamp(self.cluster.network.default_timeout)

    def _sleep_before_retry(self, retry_number: int, operation: str,
                            deadline: Deadline | None) -> None:
        delay = self.retry_policy.backoff(retry_number, self._retry_rng)
        if deadline is not None:
            delay = min(delay, deadline.remaining())
        self.metrics.counter(f"{operation}.retries").increment()
        self.cluster.clock.sleep(delay)

    # -- reads ---------------------------------------------------------------------

    def get(self, key: bytes, transform: tuple | None = None,
            deadline: Deadline | None = None
            ) -> tuple[list[Versioned], float]:
        """Quorum read; returns (version frontier, simulated latency).

        Raises :class:`KeyNotFoundError` when a quorum of replicas agree
        the key is absent, and
        :class:`InsufficientOperationalNodesError` when fewer than R
        replicas respond at all.  With a :class:`RetryPolicy` configured,
        short quorum rounds are retried with backoff against the
        replicas that have not answered yet, bounded by ``deadline``.
        """
        # admission runs before replica selection and before any breaker:
        # a shed read costs nothing downstream and records no breaker or
        # detector outcome (the cluster is fine — *we* are overloaded)
        if self.admission is not None:
            self.admission.admit(PRIORITY_LIVE, what="get")
        replicas = self.replica_nodes(key)
        required = self.definition.required_reads
        responses: dict[int, list[Versioned]] = {}
        latencies: list[float] = []
        missing_nodes: list[int] = []
        max_rounds = self.retry_policy.max_attempts if self.retry_policy else 1
        round_number = 1
        hedged_this_op = False
        while True:
            ordered = self._ordered_by_availability(replicas)
            for node_id in ordered:
                if len(responses) + len(missing_nodes) >= required:
                    break
                if node_id in responses or node_id in missing_nodes:
                    continue
                if self.hedge is not None and not hedged_this_op:
                    hedged_this_op = True
                    backup = next(
                        (n for n in ordered if n != node_id
                         and n not in responses and n not in missing_nodes),
                        None)
                    node_id, result = self._call_get_hedged(
                        node_id, backup, key, transform, deadline)
                else:
                    result = self._call_get(node_id, key, transform, deadline)
                if result is None:
                    continue
                latency, versions = result
                latencies.append(latency)
                if versions is None:
                    missing_nodes.append(node_id)
                else:
                    responses[node_id] = versions
            if len(responses) + len(missing_nodes) >= required:
                break
            if round_number >= max_rounds:
                break
            if deadline is not None and deadline.expired:
                break
            self._sleep_before_retry(round_number, "get", deadline)
            round_number += 1
        answered = len(responses) + len(missing_nodes)
        if answered < required:
            if deadline is not None and deadline.expired:
                self.metrics.counter("get.deadline_exceeded").increment()
                raise DeadlineExceededError(
                    f"read of {key!r} exhausted its deadline with "
                    f"{answered} of {required} responses")
            self.metrics.counter("get.unavailable").increment()
            raise InsufficientOperationalNodesError(
                f"only {answered} of {required} required reads succeeded",
                required=required, achieved=answered)
        operation_latency = sorted(latencies)[required - 1] if latencies else 0.0
        self._get_latency.record(operation_latency)
        if not responses:
            raise KeyNotFoundError(repr(key))
        replies = list(responses.values())
        frontier = frontier_of(replies)
        # frontier_of returns the first reply itself only when every
        # reply holds that one version: then no replica lacks it, and
        # only a replica that answered "no such key" needs a repair
        if self.enable_read_repair and transform is None and (
                missing_nodes or frontier is not replies[0]):
            self._read_repair(key, frontier, responses, missing_nodes,
                              deadline)
        return frontier, operation_latency

    def _call_get(self, node_id: int, key: bytes, transform: tuple | None,
                  deadline: Deadline | None = None
                  ) -> tuple[float, list[Versioned] | None] | None:
        """One replica read.  Returns None on node failure (or when the
        node's breaker rejects the call), (latency, None) when the node
        answered 'no such key'."""
        # deadline first: an expired hop must not consume an admitted
        # breaker slot (a half-open probe that exits here would leave
        # the breaker open forever, with no outcome ever recorded)
        timeout = self._hop_timeout(deadline)
        if timeout is not None and timeout <= 0:
            return None
        breaker = self.breaker_for(node_id)
        # breaker gating is active only with a retry policy: the retry
        # loop's backoff sleeps are what advance the clock toward the
        # breaker's half-open probe, so without one an open breaker
        # could never recover
        if self.retry_policy is not None and not breaker.allow():
            return None
        server = self.cluster.server_for(node_id)
        try:
            versions, latency = self.cluster.network.invoke(
                self.client_name, self.cluster.node_name(node_id),
                server.get, self.store, key, transform, timeout=timeout)
            self.detector.record_success(node_id)
            breaker.record_success()
            return latency, versions
        except KeyNotFoundError:
            self.detector.record_success(node_id)
            breaker.record_success()
            return 0.0005, None
        except ServerOverloadedError:
            # the replica is alive but shedding — an answered request,
            # so the admitted breaker slot records success (tripping the
            # breaker on sheds would turn overload into unavailability),
            # and routing simply moves on to the next replica instead of
            # hammering this one
            self.detector.record_success(node_id)
            breaker.record_success()
            self.metrics.counter("get.replica_shed").increment()
            return None
        except NodeUnavailableError:
            self.detector.record_failure(node_id)
            breaker.record_failure()
            self.metrics.counter("get.node_failures").increment()
            return None

    def _call_get_hedged(self, primary: int, backup: int | None, key: bytes,
                         transform: tuple | None, deadline: Deadline | None
                         ) -> tuple[int, tuple[float, list[Versioned] | None] | None]:
        """One replica read with a tail-latency hedge to ``backup``.

        Returns ``(answering_node, result)`` in :meth:`_call_get`'s
        result shape.  The hedge races the primary against a backup
        launched after the tracked p99; per-replica bookkeeping
        (breaker, detector) happens inside :meth:`_call_get` for both
        legs, so the hedge changes *which* answer wins, never what gets
        recorded.
        """
        if backup is None:
            return primary, self._call_get(primary, key, transform, deadline)

        def attempt(node_id):
            outcome = self._call_get(node_id, key, transform, deadline)
            if outcome is None:
                raise NodeUnavailableError(f"node {node_id} did not answer")
            latency, versions = outcome
            return versions, latency

        try:
            winner, versions, effective, hedged = self.hedge.run(
                [primary, backup], attempt)
        except (NodeUnavailableError, OverloadError):
            return primary, None
        if hedged:
            self.metrics.counter("get.hedged").increment()
        return winner, (effective, versions)

    def _read_repair(self, key: bytes, frontier: list[Versioned],
                     responses: dict[int, list[Versioned]],
                     missing_nodes: list[int],
                     deadline: Deadline | None = None) -> None:
        """Push frontier versions to replicas that lack them (§II.B),
        inside whatever remains of the read's budget: repair rides on
        the caller's request, so an exhausted deadline skips it (it is
        best-effort) and each push clamps its timeout to the remainder.
        """
        stale: list[int] = list(missing_nodes)
        for node_id, versions in responses.items():
            clocks = {v.clock for v in versions}
            if any(f.clock not in clocks for f in frontier):
                stale.append(node_id)
        for node_id in stale:
            timeout = self._hop_timeout(deadline)
            if timeout is not None and timeout <= 0:
                self.metrics.counter("read_repair.deadline_skipped") \
                    .increment()
                return
            # repair is bulk-class traffic: under pressure it is the
            # first thing to go, so live reads keep their tokens
            if self.admission is not None and \
                    not self.admission.try_admit(PRIORITY_BULK):
                self.metrics.counter("read_repair.shed").increment()
                return
            server = self.cluster.server_for(node_id)
            for versioned in frontier:
                try:
                    self.cluster.network.invoke(
                        self.client_name, self.cluster.node_name(node_id),
                        server.engine(self.store).put, key, versioned,
                        timeout=timeout)
                    self.metrics.counter("read_repairs").increment()
                except ObsoleteVersionError:
                    # the replica already caught up past this version —
                    # the repair is moot, not a failure
                    self.metrics.counter("read_repair.obsolete").increment()
                except ServerOverloadedError:
                    # the replica shed the repair: best-effort traffic,
                    # dropped without penalty
                    self.metrics.counter("read_repair.shed").increment()
                except NodeUnavailableError:
                    # best-effort by design (§II.B), but the miss must
                    # stay observable to the failure detector and metrics
                    self.detector.record_failure(node_id)
                    self.metrics.counter("read_repair.failures").increment()

    def get_all(self, keys: list[bytes]
                ) -> tuple[dict[bytes, Sequence[Versioned]], float]:
        """Batched quorum reads: one request per node, not per key.

        Planned and counted per replica set: the distinct keys are
        hashed in one pass and grouped by the owners of their partition
        (a ring has far fewer replica sets than partitions), a node is
        ranked once per request and each replica set ordered once.  All
        keys of a replica set go to the same replicas in the same round,
        so one answer count per set is every one of its keys' quorum
        count.  Each set is asked of its first R replicas; sets a failed
        or shedding node leaves short are asked of the rest of their
        list in one more batched round (:meth:`get`'s fall-through).  A
        node answers one dict per replica set, and replies are compared
        a set at a time: its first reply gives its keys their frontiers,
        a later reply equal to it (every value and clock) adds nothing,
        and only a set whose replies differ is walked key by key, where
        only keys whose replies differ go through :func:`frontier_of`.
        Returns (key -> version frontier, simulated latency); keys
        absent everywhere are omitted, and a frontier may be an
        immutable tuple shared with an engine.  Keys that cannot reach R
        replicas raise, as in ``get``.
        """
        if self.admission is not None:
            self.admission.admit(PRIORITY_LIVE, what="get_all")
        required = self.definition.required_reads
        ring = self.cluster.ring
        distinct = list(dict.fromkeys(keys))
        partitions = ring.partitions_for_keys(distinct)
        if self.admin is None or not self.admin.redirects:
            owners_of = ring.routing_table(self.definition.replication_factor,
                                           self.definition.required_zones)
        else:   # redirects come and go without a new ring
            owners_of = {partition: self._preference(ring, partition)
                         for partition in dict.fromkeys(partitions)}
        keys_of: dict[tuple[int, ...], list[bytes]] = {}   # first-key order
        for key, owners in zip(distinct, map(owners_of.__getitem__,
                                             partitions)):
            group = keys_of.get(owners)
            if group is None:
                keys_of[owners] = [key]
            else:
                group.append(key)
        # walking replica sets in first-key order makes each node first
        # appear in ``per_node`` where the first key it serves would put
        # it: RPC order feeds the network RNG
        ranks: dict[int, tuple] = {}
        replicas_of = {owners: self._ordered_by_availability(owners, ranks)
                       for owners in keys_of}
        answered = dict.fromkeys(keys_of, 0)
        first_replies: dict[tuple[int, ...], dict] = {}  # set -> first answer
        frontiers: dict[bytes, Sequence[Versioned]] = {}
        disagreeing: dict[bytes, list[Sequence[Versioned]]] = {}
        operation_latency = 0.0
        short = list(keys_of)
        # first choice, then the rest of the list for whatever is short
        for first, last in ((0, required), (required, None)):
            per_node: dict[int, list[tuple[int, ...]]] = {}
            for owners in short:
                for node_id in replicas_of[owners][first:last]:
                    per_node.setdefault(node_id, []).append(owners)
            if first > 0:
                self.metrics.counter("get_all.fallback_rounds").increment()
            latency, answers = self._read_batches(per_node, keys_of,
                                                  answered)
            # the rounds are sequential, so their latencies add
            operation_latency += latency
            for replica_sets, groups in answers:
                for owners, found in zip(replica_sets, groups):
                    first_reply = first_replies.setdefault(owners, found)
                    if first_reply is found:
                        frontiers.update(found)
                        continue
                    if found == first_reply:
                        continue
                    for key, versions in found.items():
                        kept = frontiers.get(key)
                        if kept is None:
                            frontiers[key] = versions
                        elif key in disagreeing:
                            disagreeing[key].append(versions)
                        elif versions != kept and \
                                not same_single_version(kept, versions):
                            disagreeing[key] = [kept, versions]
            short = [owners for owners in short
                     if answered[owners] < required]
            if not short:
                break
        if short:
            raise InsufficientOperationalNodesError(
                f"{sum(len(keys_of[owners]) for owners in short)} keys "
                f"reached fewer than {required} replicas",
                required=required,
                achieved=min(answered[owners] for owners in short))
        self.metrics.histogram("get_all").record(operation_latency)
        for key, replies in disagreeing.items():
            frontiers[key] = frontier_of(replies)
        return frontiers, operation_latency

    def _read_batches(self, per_node: dict[int, list[tuple[int, ...]]],
                      keys_of: dict[tuple[int, ...], list[bytes]],
                      answered: dict[tuple[int, ...], int]
                      ) -> tuple[float, list[tuple[list[tuple[int, ...]],
                                                   list[dict]]]]:
        """One ``get_batch`` per node, one key group per replica set.
        Counts each answering node once toward each of its sets'
        quorums; returns the round's latency (its slowest answer) and,
        in node order, each answering node's replica sets beside its
        per-set answers."""
        slowest = 0.0
        answers = []
        for node_id, replica_sets in per_node.items():
            server = self.cluster.server_for(node_id)
            try:
                groups, latency = self.cluster.network.invoke(
                    self.client_name, self.cluster.node_name(node_id),
                    server.get_batch, self.store,
                    [keys_of[owners] for owners in replica_sets])
            except ServerOverloadedError:
                self.detector.record_success(node_id)
                self.metrics.counter("get_all.replica_shed").increment()
            except NodeUnavailableError:
                self.detector.record_failure(node_id)
                self.metrics.counter("get_all.node_failures").increment()
            else:
                self.detector.record_success(node_id)
                slowest = max(slowest, latency)
                for owners in replica_sets:
                    answered[owners] += 1
                answers.append((replica_sets, groups))
        return slowest, answers

    # -- writes ---------------------------------------------------------------------

    def put(self, key: bytes, versioned: Versioned,
            transform: tuple | None = None,
            deadline: Deadline | None = None) -> float:
        """Quorum write; returns simulated latency.

        Needs W replica acks.  Unreachable replicas trigger hinted
        handoff (when enabled): the write is parked on a live non-
        replica node and counts toward neither W nor failure.
        """
        return self._write(key, versioned, transform, is_delete=False,
                           deadline=deadline)

    def delete(self, key: bytes, versioned: Versioned,
               deadline: Deadline | None = None) -> float:
        """Tombstone write with the same quorum rules."""
        return self._write(key, versioned, None, is_delete=True,
                           deadline=deadline)

    def _write(self, key: bytes, versioned: Versioned,
               transform: tuple | None, is_delete: bool,
               deadline: Deadline | None = None) -> float:
        # shed before breaker (same front-door rule as reads); writes
        # outrank bulk traffic but yield to live reads under pressure
        if self.admission is not None:
            self.admission.admit(
                PRIORITY_WRITE, what="delete" if is_delete else "put")
        replicas = self.replica_nodes(key)
        required = self.definition.required_writes
        successes = 0
        first_error: Exception | None = None
        latencies: list[float] = []
        pending = list(replicas)
        max_rounds = self.retry_policy.max_attempts if self.retry_policy else 1
        round_number = 1
        while True:
            failed_nodes = self._write_round(key, versioned, transform,
                                             is_delete, pending, deadline,
                                             latencies)
            successes = len(latencies)
            first_error = first_error or failed_nodes.pop("conflict", None)
            failed = failed_nodes["failed"]
            if first_error is not None:
                self.metrics.counter("put.conflicts").increment()
                raise first_error
            if successes >= required and not failed:
                break
            if not failed or round_number >= max_rounds:
                break
            if deadline is not None and deadline.expired:
                break
            self._sleep_before_retry(round_number, "put", deadline)
            round_number += 1
            pending = failed
        if failed and self.enable_hinted_handoff and not is_delete:
            self._hand_off(key, versioned, replicas, failed)
        if successes < required:
            if deadline is not None and deadline.expired:
                self.metrics.counter("put.deadline_exceeded").increment()
                raise DeadlineExceededError(
                    f"write of {key!r} exhausted its deadline with "
                    f"{successes} of {required} acks")
            self.metrics.counter("put.unavailable").increment()
            raise InsufficientOperationalNodesError(
                f"only {successes} of {required} required writes succeeded",
                required=required, achieved=successes)
        operation_latency = sorted(latencies)[required - 1]
        self._put_latency.record(operation_latency)
        return operation_latency

    def _write_round(self, key: bytes, versioned: Versioned,
                     transform: tuple | None, is_delete: bool,
                     pending: list[int], deadline: Deadline | None,
                     latencies: list[float]) -> dict:
        """One fan-out pass over ``pending`` replicas.  Appends each
        ack's latency; returns the nodes that failed (and any
        optimistic-locking conflict) for the retry loop to act on."""
        out: dict = {"failed": []}
        for node_id in pending:
            # deadline before breaker: an expired hop must not consume
            # an admitted slot without ever recording an outcome
            timeout = self._hop_timeout(deadline)
            if timeout is not None and timeout <= 0:
                out["failed"].append(node_id)
                continue
            breaker = self.breaker_for(node_id)
            if not self.detector.is_available(node_id) or (
                    self.retry_policy is not None and not breaker.allow()):
                out["failed"].append(node_id)
                continue
            server = self.cluster.server_for(node_id)
            try:
                if is_delete:
                    _, latency = self.cluster.network.invoke(
                        self.client_name, self.cluster.node_name(node_id),
                        server.delete, self.store, key, versioned,
                        timeout=timeout)
                else:
                    _, latency = self.cluster.network.invoke(
                        self.client_name, self.cluster.node_name(node_id),
                        server.put, self.store, key, versioned, transform,
                        timeout=timeout)
                latencies.append(latency)
                self.detector.record_success(node_id)
                breaker.record_success()
            except ObsoleteVersionError as exc:
                # optimistic-locking conflict: surface to the caller
                self.detector.record_success(node_id)
                breaker.record_success()
                out["conflict"] = exc
            except ServerOverloadedError:
                # shed by the replica: alive (breaker success), but the
                # write did not land — eligible for retry/handoff like
                # any other miss
                self.detector.record_success(node_id)
                breaker.record_success()
                self.metrics.counter("put.replica_shed").increment()
                out["failed"].append(node_id)
            except NodeUnavailableError:
                self.detector.record_failure(node_id)
                breaker.record_failure()
                out["failed"].append(node_id)
        return out

    def _hand_off(self, key: bytes, versioned: Versioned,
                  replicas: list[int], failed_nodes: list[int]) -> None:
        """Park writes for unreachable replicas on live fallback nodes."""
        fallbacks = [n for n in self.cluster.ring.nodes
                     if n not in replicas and self.detector.is_available(n)]
        if not fallbacks:
            return
        for i, dead_node in enumerate(failed_nodes):
            holder_id = fallbacks[i % len(fallbacks)]
            holder = self.cluster.server_for(holder_id)
            hint = Hint(self.store, key, versioned, dead_node)
            try:
                self.cluster.network.invoke(
                    self.client_name, self.cluster.node_name(holder_id),
                    holder.store_hint, hint)
                self.metrics.counter("hints_stored").increment()
            except OverloadError:
                self.metrics.counter("hints_shed").increment()
                continue
            except NodeUnavailableError:
                continue

    # -- helpers -------------------------------------------------------------------------

    def _zone_distance(self, node_id: int) -> int:
        """0 for the client's own zone, then proximity-list order."""
        if self.client_zone is None:
            return 0
        node_zone = self.cluster.ring.nodes[node_id].zone_id
        if node_zone == self.client_zone:
            return 0
        zone = self.cluster.ring.zones.get(self.client_zone)
        if zone is None or node_zone not in zone.proximity:
            return 10 ** 6
        return zone.proximity.index(node_zone) + 1

    def _ordered_by_availability(self, replicas: Sequence[int],
                                 ranks: dict[int, tuple] | None = None
                                 ) -> list[int]:
        """Available replicas first, nearest zone first, least-loaded
        (shallowest server queue) within a zone; the stable sort keeps
        ring order among ties.  ``ranks`` shares node rankings between
        the calls of one request, while none of the inputs can change."""
        ranks = {} if ranks is None else ranks
        for node_id in replicas:
            if node_id not in ranks:
                ranks[node_id] = (
                    not self.detector.is_available(node_id),
                    self._zone_distance(node_id),
                    self.cluster.network.queue_depth(
                        self.cluster.node_name(node_id)))
        return sorted(replicas, key=ranks.__getitem__)
