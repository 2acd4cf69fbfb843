"""Multi-tenancy for relays (§III.E future work).

"Future work includes ... supporting declarative data transformations
and multi-tenancy."  A multi-tenant relay serves many subscriber
organizations from one buffer while preventing any tenant from starving
the rest.  This implementation provides:

* per-tenant registration with a declared events-per-poll quota;
* enforcement at the serve path: a poll never returns more than the
  tenant's quota (rounded up to a window boundary, because partial
  windows would break timeline consistency);
* token-bucket style accounting over a sliding interval so a tenant
  that bursts gets throttled until its bucket refills;
* per-tenant usage metrics for capacity planning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock, SimClock
from repro.common.errors import ConfigurationError, ReproError
from repro.databus.events import DatabusEvent, EventFilter
from repro.databus.relay import DEFAULT_BUFFER, Relay


class QuotaExceededError(ReproError):
    """The tenant exhausted its event budget for the current interval."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class TenantQuota:
    """Budget: at most ``events_per_interval`` over ``interval_seconds``."""

    events_per_interval: int
    interval_seconds: float = 1.0

    def __post_init__(self):
        if self.events_per_interval <= 0 or self.interval_seconds <= 0:
            raise ConfigurationError("quota values must be positive")


@dataclass
class _TenantState:
    quota: TenantQuota
    tokens: float = 0.0
    last_refill: float = 0.0
    events_served: int = 0
    polls: int = 0
    throttled: int = 0


class MultiTenantRelay:
    """A quota-enforcing facade over one relay."""

    def __init__(self, relay: Relay, clock: Clock | None = None):
        self.relay = relay
        self.clock = clock if clock is not None else SimClock()
        self._tenants: dict[str, _TenantState] = {}

    # -- registration -----------------------------------------------------

    def register_tenant(self, tenant: str, quota: TenantQuota) -> None:
        if tenant in self._tenants:
            raise ConfigurationError(f"tenant {tenant!r} already registered")
        self._tenants[tenant] = _TenantState(
            quota, tokens=float(quota.events_per_interval),
            last_refill=self.clock.now())

    def _state(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise ConfigurationError(f"unknown tenant {tenant!r}") from None

    # -- quota mechanics ------------------------------------------------------

    def _refill(self, state: _TenantState) -> None:
        now = self.clock.now()
        elapsed = now - state.last_refill
        if elapsed <= 0:
            return
        rate = state.quota.events_per_interval / state.quota.interval_seconds
        state.tokens = min(float(state.quota.events_per_interval),
                           state.tokens + elapsed * rate)
        state.last_refill = now

    # -- serving -------------------------------------------------------------------

    def stream_from(self, tenant: str, scn: int,
                    buffer_name: str = DEFAULT_BUFFER,
                    event_filter: EventFilter | None = None
                    ) -> list[DatabusEvent]:
        """Quota-bounded serve; whole windows only.

        Raises :class:`QuotaExceededError` (with a retry hint) when the
        tenant's bucket is empty.
        """
        state = self._state(tenant)
        state.polls += 1
        self._refill(state)
        if state.tokens < 1.0:
            state.throttled += 1
            rate = (state.quota.events_per_interval
                    / state.quota.interval_seconds)
            raise QuotaExceededError(
                f"tenant {tenant!r} out of quota",
                retry_after=(1.0 - state.tokens) / rate)
        budget = int(state.tokens)
        events = self.relay.stream_from(scn, buffer_name, event_filter,
                                        max_events=budget)
        state.tokens -= len(events)
        state.events_served += len(events)
        return events

    # -- reporting ----------------------------------------------------------------------

    def usage(self, tenant: str) -> dict[str, float]:
        state = self._state(tenant)
        return {
            "events_served": state.events_served,
            "polls": state.polls,
            "throttled": state.throttled,
            "tokens_remaining": round(state.tokens, 3),
        }

    def tenants(self) -> list[str]:
        return sorted(self._tenants)
