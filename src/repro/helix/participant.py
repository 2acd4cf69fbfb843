"""Helix participants: cluster members that execute state transitions.

A participant registers liveness in Zookeeper with an ephemeral znode
and exposes transition handlers.  The managed system (an Espresso
storage node, a Databus relay) subclasses or composes a participant and
reacts to callbacks — ``on_transition(partition, from_state, to_state)``
— by doing the real work (draining the relay before mastership, etc.).
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import ConfigurationError
from repro.helix.statemodel import StateModelDef, Transition
from repro.zookeeper import CreateMode, ZooKeeperServer, ZooKeeperSession

TransitionHandler = Callable[[Transition], None]


class Participant:
    """One cluster member's replica-state machine executor."""

    def __init__(self, instance_name: str, cluster: str,
                 zookeeper: ZooKeeperServer,
                 handler: TransitionHandler | None = None):
        if not instance_name:
            raise ConfigurationError("instance_name required")
        self.instance_name = instance_name
        self.cluster = cluster
        self._handler = handler
        self._session: ZooKeeperSession | None = None
        self._zookeeper = zookeeper
        # resource -> partition -> state
        self.current_states: dict[str, dict[int, str]] = {}
        # called after every change to current_states — how a controller
        # learns its external view is out of date
        self.state_listeners: list[Callable[[], None]] = []
        self.transitions_executed: list[Transition] = []

    # -- liveness -----------------------------------------------------------

    @property
    def live_path(self) -> str:
        return f"/{self.cluster}/liveinstances/{self.instance_name}"

    def connect(self) -> None:
        """Join the cluster: ephemeral liveness znode."""
        if self.is_connected:
            return
        self._session = self._zookeeper.connect()
        self._session.ensure_path(f"/{self.cluster}/liveinstances")
        self._session.create(self.live_path, mode=CreateMode.EPHEMERAL)

    def disconnect(self) -> None:
        """Leave the cluster (process stop or crash): ephemerals vanish,
        and this node's replicas are implicitly OFFLINE."""
        if self._session is not None:
            self._session.close()
            self._session = None
        self.current_states.clear()
        self._states_changed()

    def _states_changed(self) -> None:
        for listener in self.state_listeners:
            listener()

    @property
    def is_connected(self) -> bool:
        return (self._session is not None
                and self._zookeeper.session_alive(self._session.session_id))

    # -- state ----------------------------------------------------------------

    def state_of(self, resource: str, partition: int,
                 model: StateModelDef) -> str:
        return self.current_states.get(resource, {}).get(
            partition, model.initial_state)

    def execute(self, transition: Transition, model: StateModelDef) -> None:
        """Apply one controller-issued transition.

        Raises when the transition is illegal for the state model or
        does not match this replica's current state — the controller is
        supposed never to issue such a task.
        """
        current = self.state_of(transition.resource, transition.partition, model)
        if current != transition.from_state:
            raise ConfigurationError(
                f"{self.instance_name}: transition {transition} but replica is "
                f"in {current}")
        if not model.is_legal(transition.from_state, transition.to_state):
            raise ConfigurationError(f"illegal transition {transition}")
        if self._handler is not None:
            self._handler(transition)
        states = self.current_states.setdefault(transition.resource, {})
        if transition.to_state == "DROPPED":
            states.pop(transition.partition, None)
        else:
            states[transition.partition] = transition.to_state
        self.transitions_executed.append(transition)
        self._states_changed()
