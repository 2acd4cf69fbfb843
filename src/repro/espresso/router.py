"""The Espresso router (§IV.B "Router").

"The router accepts HTTP requests, inspects the URI and forwards the
request to the appropriate storage node.  For a given request, the
router examines the database component of the path and retrieves the
routing function from the corresponding database schema.  It then
applies the routing function to the resource_id element of the request
URI to compute a partition id.  Next it consults the routing table
maintained by the cluster manager to determine which storage node is
the master for the partition.  Finally, the router forwards the HTTP
request to the selected storage node."

The interface is HTTP-shaped (GET/PUT/POST/DELETE on URIs) returning
plain Python results; a thin status-code layer maps library exceptions
onto the responses an HTTP gateway would emit.

Routing runs under the shared resilience layer
(:mod:`repro.common.resilience`): a request that lands on a partition
with no master — or on a node that lost mastership — is retried under
the configured :class:`RetryPolicy`.  With ``auto_failover`` enabled
the router nudges the Helix controller (``cluster.failover()``) between
attempts, so a retry after a master crash lands on the freshly promoted
slave; this is the §IV.B failover sequence seen from the client side.
Only when retries are exhausted does the client see a 503.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import (
    ConfigurationError,
    KeyNotFoundError,
    NotMasterError,
    ServerOverloadedError,
    TransactionAbortedError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.overload import (
    PRIORITY_LIVE,
    PRIORITY_WRITE,
    AdmissionController,
)
from repro.common.resilience import RetryPolicy, call_with_retries
from repro.espresso.cluster import EspressoCluster
from repro.espresso.uri import EspressoUri, parse_index_query, parse_uri


@dataclass
class Response:
    """An HTTP-flavoured response."""

    status: int
    body: object = None
    etag: str | None = None
    #: set on load-shed 503s: the server's Retry-After hint in seconds
    retry_after: float | None = None


class Router:
    """Stateless request router over one cluster."""

    def __init__(self, cluster: EspressoCluster,
                 retry_policy: RetryPolicy | None = None,
                 auto_failover: bool = False,
                 admission_rate: float | None = None,
                 admission_burst: float | None = None):
        self.cluster = cluster
        self.retry_policy = retry_policy
        self.auto_failover = auto_failover
        self._retry_rng = random.Random(0)
        self.metrics = MetricsRegistry()
        self.requests_routed = 0
        # per-partition admission control (off unless a rate is given):
        # a hot partition sheds its own overflow as fast 503s instead of
        # queueing behind the storage node, and the other partitions of
        # the same node stay unaffected.  Shed 503s are retried against
        # the resilience budget (see _execute) — the backoff sleeps are
        # what let the partition's token bucket refill.
        self.admission_rate = admission_rate
        self.admission_burst = admission_burst
        self._admission: dict[int, AdmissionController] = {}

    def admission_for(self, partition_id: int) -> AdmissionController | None:
        """The partition's admission controller (created on first use;
        None when admission control is disabled)."""
        if self.admission_rate is None:
            return None
        controller = self._admission.get(partition_id)
        if controller is None:
            controller = AdmissionController(
                self.cluster.clock, self.admission_rate,
                self.admission_burst, metrics=self.metrics,
                name=f"admission.p{partition_id}")
            self._admission[partition_id] = controller
        return controller

    def _admit(self, resource_id: str, priority: int, what: str) -> None:
        if self.admission_rate is None:
            return
        partition = self.cluster.database.partition_for(resource_id)
        self.admission_for(partition).admit(
            priority, what=f"{what} partition {partition}")

    def _target(self, uri: EspressoUri):
        if uri.database != self.cluster.database.name:
            raise ConfigurationError(f"unknown database {uri.database!r}")
        if uri.resource_id is None:
            raise ConfigurationError("URI names no resource")
        self.requests_routed += 1
        return self.cluster.node_for_resource(uri.resource_id)

    def _execute(self, name: str, fn):
        """Run one routed operation, retrying NotMasterError.

        Between attempts the router (optionally) asks the controller to
        converge, promoting a slave for any masterless partition.
        """
        def on_retry(_retry_number, exc):
            if self.auto_failover and isinstance(exc, NotMasterError):
                self.metrics.counter("router.failovers").increment()
                self.cluster.failover()

        # shed 503s are retryable *within the resilience budget*: the
        # policy's bounded attempts and backoff sleeps (during which the
        # admission bucket refills) are precisely the "clients retry
        # against the budget" contract — no policy, no retry, fast 503
        return call_with_retries(
            fn, clock=self.cluster.clock, policy=self.retry_policy,
            rng=self._retry_rng,
            retry_on=(NotMasterError, ServerOverloadedError),
            metrics=self.metrics, name=name, on_retry=on_retry)

    # -- verbs ------------------------------------------------------------------

    def get(self, uri: str) -> Response:
        """Point read, collection read, or secondary-index query."""
        parsed = parse_uri(uri)

        def attempt():
            self._admit(parsed.resource_id, PRIORITY_LIVE, "GET")
            node = self._target(parsed)
            if parsed.query is not None:
                fieldname, value = parse_index_query(parsed.query)
                records = node.query_index(parsed.table, fieldname, value,
                                           resource_id=parsed.resource_id)
                return Response(200, records)
            if parsed.is_collection and \
                    self.cluster.database.table(parsed.table).key_depth > 1:
                records = node.get_collection(parsed.table, parsed.resource_id)
                if not records:
                    return Response(404, f"no documents under {uri}")
                return Response(200, records)
            record = node.get_document(parsed.table, parsed.key)
            return Response(200, record, etag=record.etag)

        try:
            return self._execute("get", attempt)
        except KeyNotFoundError as exc:
            return Response(404, str(exc))
        except NotMasterError as exc:
            return Response(503, str(exc))
        except ServerOverloadedError as exc:
            return Response(503, str(exc), retry_after=exc.retry_after)
        except ConfigurationError as exc:
            return Response(400, str(exc))

    def put(self, uri: str, document: dict,
            if_match: str | None = None) -> Response:
        """Create or replace one document (conditional on ``if_match``)."""
        parsed = parse_uri(uri)

        def attempt():
            self._admit(parsed.resource_id, PRIORITY_WRITE, "PUT")
            node = self._target(parsed)
            etag = node.put_document(parsed.table, parsed.key, document,
                                     expected_etag=if_match)
            return Response(200, None, etag=etag)

        try:
            return self._execute("put", attempt)
        except NotMasterError as exc:
            return Response(503, str(exc))
        except ServerOverloadedError as exc:
            return Response(503, str(exc), retry_after=exc.retry_after)
        except TransactionAbortedError as exc:
            return Response(412, str(exc))
        except ConfigurationError as exc:
            return Response(400, str(exc))

    def delete(self, uri: str) -> Response:
        parsed = parse_uri(uri)

        def attempt():
            self._admit(parsed.resource_id, PRIORITY_WRITE, "DELETE")
            node = self._target(parsed)
            node.delete_document(parsed.table, parsed.key)
            return Response(200)

        try:
            return self._execute("delete", attempt)
        except KeyNotFoundError as exc:
            return Response(404, str(exc))
        except NotMasterError as exc:
            return Response(503, str(exc))
        except ServerOverloadedError as exc:
            return Response(503, str(exc), retry_after=exc.retry_after)
        except ConfigurationError as exc:
            return Response(400, str(exc))

    def post_transaction(self, database: str, resource_id: str,
                         operations: list[tuple[str, str, tuple, dict | None]]
                         ) -> Response:
        """Transactional multi-table update: POST to a wildcard table
        URI where 'the entity-body contains the individual document
        updates' (§IV.A)."""
        if database != self.cluster.database.name:
            return Response(400, f"unknown database {database!r}")

        def attempt():
            self._admit(resource_id, PRIORITY_WRITE, "POST")
            node = self.cluster.node_for_resource(resource_id)
            self.requests_routed += 1
            scn = node.transact(resource_id, operations)
            return Response(200, {"scn": scn})

        try:
            return self._execute("post", attempt)
        except NotMasterError as exc:
            return Response(503, str(exc))
        except ServerOverloadedError as exc:
            return Response(503, str(exc), retry_after=exc.retry_after)
        except (TransactionAbortedError, ConfigurationError) as exc:
            return Response(409, str(exc))
