"""Controller convergence, failover, and the single-master invariant."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.helix import (
    MASTER_SLAVE,
    HelixController,
    Participant,
    compute_ideal_state,
)
from repro.helix.statemodel import Transition
from repro.zookeeper import (
    SessionExpiredError,
    ZooKeeperServer,
    ZooKeeperSession,
)


def build_cluster(instances=("node-a", "node-b", "node-c"),
                  partitions=6, replicas=2):
    zk = ZooKeeperServer()
    controller = HelixController("espresso", zk)
    participants = {}
    for name in instances:
        participant = Participant(name, "espresso", zk)
        participant.connect()
        controller.register_participant(participant)
        participants[name] = participant
    ideal = compute_ideal_state("Album", list(instances), partitions,
                                replicas, MASTER_SLAVE)
    controller.add_resource(ideal)
    return zk, controller, participants


def assert_single_master_invariant(controller, resource="Album"):
    for partition, states in controller.current_state(resource).items():
        masters = [i for i, s in states.items() if s == "MASTER"]
        assert len(masters) <= 1, f"partition {partition} has masters {masters}"


def test_ideal_state_balanced_masters():
    ideal = compute_ideal_state("r", ["a", "b", "c"], 9, 2, MASTER_SLAVE)
    counts = ideal.master_counts()
    assert set(counts.values()) == {3}


def test_ideal_state_validation():
    with pytest.raises(ConfigurationError):
        compute_ideal_state("r", [], 4, 1, MASTER_SLAVE)
    with pytest.raises(ConfigurationError):
        compute_ideal_state("r", ["a"], 4, 2, MASTER_SLAVE)


def test_converges_to_ideal_state():
    _, controller, participants = build_cluster()
    iterations = controller.converge()
    assert iterations >= 2  # OFFLINE->SLAVE then SLAVE->MASTER
    ideal = controller.ideal_state("Album")
    current = controller.current_state("Album")
    for partition in range(ideal.num_partitions):
        assert current[partition][ideal.ideal_master(partition)] == "MASTER"
        slaves = [i for i, s in current[partition].items() if s == "SLAVE"]
        assert len(slaves) == ideal.replicas - 1
    assert_single_master_invariant(controller)


def test_every_pipeline_pass_preserves_single_master():
    _, controller, _ = build_cluster()
    for _ in range(10):
        controller.run_pipeline()
        assert_single_master_invariant(controller)


def test_failover_promotes_slave():
    _, controller, participants = build_cluster()
    controller.converge()
    ideal = controller.ideal_state("Album")
    victim = ideal.ideal_master(0)
    participants[victim].disconnect()
    controller.converge()
    view = controller.external_view("Album")
    new_master = view.master_of(0)
    assert new_master is not None
    assert new_master != victim
    assert_single_master_invariant(controller)


def test_recovered_node_reclaims_ideal_mastership():
    _, controller, participants = build_cluster()
    controller.converge()
    ideal = controller.ideal_state("Album")
    victim = ideal.ideal_master(0)
    participants[victim].disconnect()
    controller.converge()
    participants[victim].connect()
    controller.converge()
    assert controller.external_view("Album").master_of(0) == victim
    assert_single_master_invariant(controller)


def test_mastership_move_demotes_before_promoting():
    _, controller, participants = build_cluster()
    controller.converge()
    ideal = controller.ideal_state("Album")
    victim = ideal.ideal_master(0)
    participants[victim].disconnect()
    controller.converge()
    participants[victim].connect()
    # record the order of transitions in the reconvergence
    start = len(controller.transitions_issued)
    controller.converge()
    relevant = [t for t in controller.transitions_issued[start:]
                if t.partition == 0]
    promote_idx = [i for i, t in enumerate(relevant)
                   if t.to_state == "MASTER" and t.instance == victim]
    demote_idx = [i for i, t in enumerate(relevant)
                  if t.from_state == "MASTER" and t.instance != victim]
    assert promote_idx and demote_idx
    assert max(demote_idx) < min(promote_idx)


def test_all_nodes_down_leaves_no_assignment():
    _, controller, participants = build_cluster()
    controller.converge()
    for participant in participants.values():
        participant.disconnect()
    controller.converge()
    assert controller.current_state("Album") == {}


def test_external_view_lists_slaves():
    _, controller, _ = build_cluster(partitions=2, replicas=3)
    controller.converge()
    view = controller.external_view("Album")
    assert len(view.instances_in_state(0, "SLAVE")) == 2


def test_expansion_rebalances_masters():
    zk, controller, participants = build_cluster(partitions=8, replicas=2)
    controller.converge()
    newcomer = Participant("node-d", "espresso", zk)
    newcomer.connect()
    controller.register_participant(newcomer)
    controller.rebalance_resource(
        "Album", ["node-a", "node-b", "node-c", "node-d"])
    controller.converge()
    view = controller.external_view("Album")
    master_counts = {}
    for partition in range(8):
        master = view.master_of(partition)
        assert master is not None
        master_counts[master] = master_counts.get(master, 0) + 1
    assert master_counts.get("node-d", 0) == 2
    assert max(master_counts.values()) == 2
    assert_single_master_invariant(controller)


def test_duplicate_resource_rejected():
    _, controller, _ = build_cluster()
    with pytest.raises(ConfigurationError):
        controller.add_resource(controller.ideal_state("Album"))


def test_participant_transition_history_records_work():
    _, controller, participants = build_cluster(partitions=2, replicas=1)
    controller.converge()
    total = sum(len(p.transitions_executed) for p in participants.values())
    # 2 partitions, replica 1: OFFLINE->SLAVE + SLAVE->MASTER each
    assert total == 4


# -- the spectator's external view ----------------------------------------


def assert_view_is_current(controller, resources=("Album", "Song")):
    """The view handed to spectators equals a fresh CURRENTSTATE, and
    its master map agrees with a scan of the assignments."""
    for resource in resources:
        view = controller.external_view(resource)   # before the fresh read
        current = controller.current_state(resource)
        assert view.assignments == current
        for partition in range(8):
            masters = [i for i, s in current.get(partition, {}).items()
                       if s == "MASTER"]
            assert view.master_of(partition) == (masters[0] if masters
                                                 else None)


@pytest.mark.parametrize("seed", range(8))
def test_external_view_tracks_every_cluster_change(seed):
    rng = random.Random(seed)
    zk, controller, participants = build_cluster()
    controller.add_resource(compute_ideal_state(
        "Song", list(participants), 4, 2, MASTER_SLAVE))
    assert_view_is_current(controller)
    for step in range(120):
        name = rng.choice(sorted(participants))
        participant = participants[name]
        draw = rng.random()
        if draw < 0.15:
            participant.connect()
        elif draw < 0.30:
            participant.disconnect()
        elif draw < 0.40 and participant.is_connected:
            zk.expire_session(participant._session.session_id)
        elif draw < 0.65:
            controller.run_pipeline()
        elif draw < 0.80:
            controller.converge()
        elif draw < 0.90:
            members = rng.sample(sorted(participants),
                                 rng.randint(2, len(participants)))
            controller.rebalance_resource(rng.choice(("Album", "Song")),
                                          members)
        else:
            # a member that already holds a replica when it registers
            newcomer = Participant(f"node-{step}", "espresso", zk)
            newcomer.connect()
            assert_view_is_current(controller)
            newcomer.execute(Transition(newcomer.instance_name, "Album", 0,
                                        "OFFLINE", "SLAVE"), MASTER_SLAVE)
            controller.register_participant(newcomer)
            participants[newcomer.instance_name] = newcomer
        assert_view_is_current(controller)
    controller.converge()
    assert_view_is_current(controller)


def test_participant_tells_listeners_of_every_state_change():
    zk = ZooKeeperServer()
    participant = Participant("node-a", "espresso", zk)
    heard = []
    participant.state_listeners.append(
        lambda: heard.append(dict(participant.current_states)))
    participant.connect()
    participant.execute(Transition("node-a", "Album", 3, "OFFLINE", "SLAVE"),
                        MASTER_SLAVE)
    participant.disconnect()
    assert heard == [{"Album": {3: "SLAVE"}}, {}]


def test_routing_reads_touch_zookeeper_only_after_a_change(monkeypatch):
    _, controller, participants = build_cluster()
    controller.converge()
    controller.external_view("Album")
    reads = []
    plain = ZooKeeperSession.get_children
    monkeypatch.setattr(
        ZooKeeperSession, "get_children",
        lambda self, path, watch=None: (reads.append(path),
                                        plain(self, path, watch))[1])
    for partition in range(600):
        assert controller.external_view("Album").master_of(
            partition % 6) is not None
    assert reads == []
    participants["node-a"].disconnect()
    controller.external_view("Album")
    controller.external_view("Album")
    assert len(reads) == 1


def test_external_view_of_an_expired_controller_raises():
    zk, controller, _ = build_cluster()
    controller.converge()
    controller.external_view("Album")       # a view is in memory
    zk.expire_session(controller._session.session_id)
    with pytest.raises(SessionExpiredError):
        controller.external_view("Album")
    with pytest.raises(SessionExpiredError):
        controller.external_view("Song")    # and one that never was
