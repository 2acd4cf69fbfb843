"""The Helix controller: converge CURRENTSTATE toward BESTPOSSIBLESTATE.

Each :meth:`HelixController.run_pipeline` call is one controller
iteration, mirroring the paper's description (§IV.B): observe liveness
and current states, compute the best possible state given live nodes,
emit the transition tasks that move the cluster one legal hop closer,
and apply them.  Repeated calls converge; with all nodes live the
fixpoint *is* the IDEALSTATE.

Safety property enforced structurally: a partition never has two
masters.  When moving mastership the old master is demoted in the same
pipeline pass *before* any promotion is issued, and a promotion is only
issued to a replica already in SLAVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, NonConvergenceError
from repro.helix.idealstate import IdealState, rebalance_ideal_state
from repro.helix.participant import Participant
from repro.helix.statemodel import Transition
from repro.zookeeper import SessionExpiredError, WatchedEvent, ZooKeeperServer


@dataclass
class ExternalView:
    """The converged routing picture spectators consume (§IV.B
    'Service discovery'): resource -> partition -> {instance: state}.
    A view is a snapshot: it is built once and never edited."""

    resource: str
    assignments: dict[int, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._masters: dict[int, str] = {}
        for partition, states in self.assignments.items():
            for instance, state in states.items():
                if state == "MASTER":
                    self._masters.setdefault(partition, instance)

    def master_of(self, partition: int) -> str | None:
        return self._masters.get(partition)

    def instances_in_state(self, partition: int, state: str) -> list[str]:
        return sorted(i for i, s in self.assignments.get(partition, {}).items()
                      if s == state)


class HelixController:
    """Single-leader controller for one cluster."""

    def __init__(self, cluster: str, zookeeper: ZooKeeperServer):
        self.cluster = cluster
        self._zookeeper = zookeeper
        self._session = zookeeper.connect()
        self._session.ensure_path(f"/{cluster}/liveinstances")
        self._ideal_states: dict[str, IdealState] = {}
        self._participants: dict[str, Participant] = {}
        # resource -> the external view spectators are handed, kept until
        # liveness (the child watch) or a CURRENTSTATE (a participant's
        # notification) changes; there is no timeout
        self._views: dict[str, ExternalView] = {}
        self._liveness_watched = False
        self.pipeline_runs = 0
        self.transitions_issued: list[Transition] = []

    # -- registration --------------------------------------------------------

    def add_resource(self, ideal_state: IdealState) -> None:
        if ideal_state.resource in self._ideal_states:
            raise ConfigurationError(f"resource {ideal_state.resource} exists")
        self._ideal_states[ideal_state.resource] = ideal_state

    def register_participant(self, participant: Participant) -> None:
        self._participants[participant.instance_name] = participant
        participant.state_listeners.append(self._views.clear)
        self._views.clear()

    def ideal_state(self, resource: str) -> IdealState:
        return self._ideal_states[resource]

    def rebalance_resource(self, resource: str, instances: list[str]) -> None:
        """Recompute IDEALSTATE over a new membership (expansion)."""
        self._ideal_states[resource] = rebalance_ideal_state(
            self._ideal_states[resource], instances)

    # -- observation ----------------------------------------------------------

    def live_instances(self) -> set[str]:
        watch = None if self._liveness_watched else self._liveness_changed
        live = self._session.get_children(f"/{self.cluster}/liveinstances",
                                          watch)
        self._liveness_watched = True
        return set(live)

    def _liveness_changed(self, _event: WatchedEvent) -> None:
        self._liveness_watched = False   # one-shot: the next read re-arms
        self._views.clear()

    def current_state(self, resource: str) -> dict[int, dict[str, str]]:
        """CURRENTSTATE: what live participants report right now."""
        live = self.live_instances()
        out: dict[int, dict[str, str]] = {}
        for name, participant in self._participants.items():
            if name not in live:
                continue
            for partition, state in participant.current_states.get(
                    resource, {}).items():
                out.setdefault(partition, {})[name] = state
        return out

    def best_possible_state(self, resource: str) -> dict[int, dict[str, str]]:
        """BESTPOSSIBLESTATE: ideal placement restricted to live nodes.

        For each partition: the first live instance in the preference
        list should be MASTER, the remaining live listed instances
        SLAVEs.  With every node live this equals the IDEALSTATE.
        """
        ideal = self._ideal_states[resource]
        live = self.live_instances()
        target: dict[int, dict[str, str]] = {}
        for partition in range(ideal.num_partitions):
            plist = [i for i in ideal.preference_list(partition) if i in live]
            states: dict[str, str] = {}
            if plist:
                top_state = ("MASTER" if "MASTER" in ideal.state_model.states
                             else "ONLINE")
                states[plist[0]] = top_state
                secondary = ("SLAVE" if "SLAVE" in ideal.state_model.states
                             else top_state)
                for follower in plist[1:]:
                    states[follower] = secondary
            target[partition] = states
        return target

    # -- convergence ------------------------------------------------------------

    def compute_transitions(self, resource: str) -> list[Transition]:
        """Diff current vs best-possible; emit one legal hop per replica.

        Ordering rules that keep the single-master invariant:
        1. demotions / tear-downs (MASTER->SLAVE, SLAVE->OFFLINE, drops);
        2. bring-ups (OFFLINE->SLAVE);
        3. promotions (SLAVE->MASTER), only when no other replica is
           currently MASTER for that partition.
        """
        ideal = self._ideal_states[resource]
        model = ideal.state_model
        live = self.live_instances()
        current = self.current_state(resource)
        target = self.best_possible_state(resource)

        demotions: list[Transition] = []
        bring_ups: list[Transition] = []
        promotions: list[Transition] = []

        # sorted so transition messages fan out in a defined order —
        # set iteration order would leak the hash seed into the schedule
        partitions = set(current) | set(target)
        for partition in sorted(partitions):
            have = current.get(partition, {})
            want = target.get(partition, {})
            for instance, state in have.items():
                desired = want.get(instance, model.initial_state)
                if state == desired:
                    continue
                hop = model.next_step(state, desired)
                if hop is None:
                    continue
                transition = Transition(instance, resource, partition, state, hop)
                if _rank(state) > _rank(hop):
                    demotions.append(transition)
                elif hop == "MASTER":
                    promotions.append(transition)
                else:
                    bring_ups.append(transition)
            for instance, desired in want.items():
                if instance in have or instance not in live:
                    continue
                hop = model.next_step(model.initial_state, desired)
                if hop is None:
                    continue
                transition = Transition(instance, resource, partition,
                                        model.initial_state, hop)
                if hop == "MASTER":
                    promotions.append(transition)
                else:
                    bring_ups.append(transition)

        # suppress promotions while another master still holds the partition
        masters_now: dict[int, set[str]] = {}
        for partition, states in current.items():
            masters_now[partition] = {i for i, s in states.items() if s == "MASTER"}
        demoted = {(t.partition, t.instance) for t in demotions
                   if t.from_state == "MASTER"}
        safe_promotions = []
        for transition in promotions:
            holders = masters_now.get(transition.partition, set())
            blockers = {h for h in holders if h != transition.instance
                        and (transition.partition, h) not in demoted}
            if not blockers:
                safe_promotions.append(transition)
        return demotions + bring_ups + safe_promotions

    def run_pipeline(self) -> list[Transition]:
        """One controller iteration over every resource; returns the
        transitions issued (empty list means converged)."""
        self.pipeline_runs += 1
        issued: list[Transition] = []
        live = self.live_instances()
        for resource, ideal in self._ideal_states.items():
            for transition in self.compute_transitions(resource):
                participant = self._participants.get(transition.instance)
                if participant is None or transition.instance not in live:
                    continue
                participant.execute(transition, ideal.state_model)
                issued.append(transition)
        self.transitions_issued.extend(issued)
        return issued

    def converge(self, max_iterations: int = 20) -> int:
        """Run pipelines until no transitions are issued; returns the
        number of iterations taken."""
        for iteration in range(1, max_iterations + 1):
            if not self.run_pipeline():
                return iteration
        raise NonConvergenceError(
            f"did not converge in {max_iterations} pipeline runs")

    def external_view(self, resource: str) -> ExternalView:
        """The spectator's routing table: computed from
        :meth:`current_state` once, then served from memory until a
        participant joins, leaves, expires or executes a transition."""
        if not self._zookeeper.session_alive(self._session.session_id):
            raise SessionExpiredError(
                f"session {self._session.session_id} expired")
        view = self._views.get(resource)
        if view is None:
            view = ExternalView(resource, self.current_state(resource))
            self._views[resource] = view
        return view


_STATE_RANKS = {"DROPPED": -1, "OFFLINE": 0, "SLAVE": 1, "ONLINE": 1, "MASTER": 2}


def _rank(state: str) -> int:
    return _STATE_RANKS.get(state, 0)
