"""Additional capture topologies (§III.C, §III.E).

The paper names two capture approaches — "triggers or consuming from
the database replication log" — and describes relays "connected
directly to the database, or to other relays to provide replicated
availability of the change stream".  :mod:`repro.databus.relay` ships
the log-tailing puller; this module adds:

* :class:`TriggerCapture` — push-mode capture: a commit hook on the
  source database forwards each transaction to the relay synchronously,
  the way trigger-based capture behaves (no polling, but the capture
  work runs inside the commit path);
* :class:`RelayChain` — a downstream relay that tails an upstream
  relay instead of a database, giving replicated availability of the
  stream without adding source connections.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.databus.events import DatabusEvent
from repro.databus.relay import Relay
from repro.sqlstore.binlog import BinlogTransaction
from repro.sqlstore.database import SqlDatabase


class TriggerCapture:
    """Push-mode (trigger-style) capture from a database into a relay.

    Registers a binlog subscription so every commit lands in the relay
    before control returns to the committing transaction — which is
    also what makes triggers costlier for the source than log shipping:
    capture work happens on the database's time.
    """

    def __init__(self, database: SqlDatabase, relay: Relay):
        from repro.databus.events import row_schema_for
        self.database = database
        self.relay = relay
        for table_name in database.table_names():
            if relay.schemas.latest(table_name) is None:
                relay.register_schema(
                    row_schema_for(database.table(table_name).schema))
        self.transactions_captured = 0
        self._listener = self._on_commit
        database.binlog.subscribe(self._listener)

    def _on_commit(self, txn: BinlogTransaction) -> None:
        self.relay.capture_transaction(txn)
        self.transactions_captured += 1

    def detach(self) -> None:
        """Drop the trigger (e.g. when switching to log capture)."""
        self.database.binlog.unsubscribe(self._listener)


class RelayChain:
    """A downstream relay fed from an upstream relay's buffer.

    The downstream serves the same windows under the same SCNs, so
    clients can switch between chain members freely; it isolates the
    upstream (and transitively the source database) from the
    downstream's consumer fan-out.
    """

    def __init__(self, upstream: Relay, downstream: Relay):
        if upstream is downstream:
            raise ConfigurationError("a relay cannot chain to itself")
        self.upstream = upstream
        self.downstream = downstream
        # mirror schemas (all versions) so downstream clients can decode
        for name in upstream.schemas.names():
            latest = upstream.schemas.latest(name)
            for version in range(1, latest.version + 1):
                downstream.schemas.register_exact(
                    upstream.schemas.get(name, version))
        self.copied_through = downstream.newest_scn()
        self.windows_copied = 0

    def poll(self, max_events: int = 10_000) -> int:
        """Copy newly available windows downstream; returns events copied.

        Raises :class:`SCNGoneError` if the downstream fell so far
        behind that the upstream evicted its position — the chain must
        then be re-seeded (same rule as any other consumer).
        """
        events = self.upstream.stream_from(self.copied_through,
                                           max_events=max_events)
        if not events:
            return 0
        window: list[DatabusEvent] = []
        copied = 0
        for event in events:
            window.append(event)
            if event.end_of_window:
                self.downstream.buffer().append_window(window)
                self.copied_through = event.scn
                self.windows_copied += 1
                copied += len(window)
                window = []
        return copied
