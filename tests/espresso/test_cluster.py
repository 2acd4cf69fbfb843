"""Cluster behaviour: replication, failover, expansion (§IV.B)."""

import pytest

from repro.espresso import EspressoCluster

from tests.espresso.conftest import ALBUM_SCHEMA, ARTIST_SCHEMA, MUSIC, SONG_SCHEMA


def put_artists(cluster, count=20):
    keys = []
    for i in range(count):
        artist = f"artist-{i}"
        node = cluster.node_for_resource(artist)
        node.put_document("Artist", (artist,),
                          {"name": artist, "genre": "pop", "bio": None})
        keys.append((artist,))
    return keys


def test_start_assigns_masters_and_slaves(cluster):
    masters = cluster.masters_by_partition()
    assert all(m is not None for m in masters.values())
    cluster.assert_single_master()
    for node in cluster.nodes.values():
        assert node.mastered_partitions() or node.slaved_partitions()
    # FIG-IV.3: 8 partitions x 2 replicas on 3 nodes, balanced and disjoint
    roles = [(node.mastered_partitions(), node.slaved_partitions())
             for node in cluster.nodes.values()]
    assert [(len(m), len(s)) for m, s in roles] == [(3, 2), (3, 3), (2, 3)]
    assert not any(set(m) & set(s) for m, s in roles)


def test_replication_propagates_to_slaves(cluster):
    keys = put_artists(cluster, 20)
    cluster.pump_replication()
    for key in keys:
        partition = MUSIC.partition_for(key[0])
        view = cluster.controller.external_view(MUSIC.name)
        for slave_name in view.instances_in_state(partition, "SLAVE"):
            record = cluster.nodes[slave_name].get_document("Artist", key)
            assert record.document["name"] == key[0]


def test_timeline_consistency_on_slaves(cluster):
    """Slaves apply changes in master commit order (same final state,
    dense SCNs)."""
    artist = "artist-x"
    node = cluster.node_for_resource(artist)
    for i in range(10):
        node.put_document("Artist", (artist,),
                          {"name": artist, "genre": f"g{i}", "bio": None})
    cluster.pump_replication()
    partition = MUSIC.partition_for(artist)
    view = cluster.controller.external_view(MUSIC.name)
    for slave_name in view.instances_in_state(partition, "SLAVE"):
        slave = cluster.nodes[slave_name]
        assert slave.partition_scn[partition] == node.partition_scn[partition]
        assert slave.get_document("Artist", (artist,)).document["genre"] == "g9"


def test_failover_promotes_caught_up_slave(cluster):
    keys = put_artists(cluster, 30)
    cluster.pump_replication()
    victim_name = cluster.masters_by_partition()[0]
    victim_mastered = cluster.nodes[victim_name].mastered_partitions()
    cluster.crash_node(victim_name)
    cluster.failover()
    masters = cluster.masters_by_partition()
    assert all(m is not None and m != victim_name for m in masters.values())
    cluster.assert_single_master()
    # no committed write lost: every document readable from new masters
    for key in keys:
        node = cluster.node_for_resource(key[0])
        assert node.get_document("Artist", key).document["name"] == key[0]
    # the new masters continue the SCN sequence
    for partition in victim_mastered:
        new_master = cluster.master_node(partition)
        assert new_master.partition_scn.get(partition, 0) >= 0


def test_failover_drains_relay_before_promotion(cluster):
    """A lagging slave consumes outstanding relay changes before taking
    mastership, so acknowledged commits survive (§IV.B Robustness)."""
    artist = "artist-lag"
    partition = MUSIC.partition_for(artist)
    master = cluster.master_node(partition)
    # writes reach relay + master only; slaves are NOT pumped
    for i in range(5):
        master.put_document("Artist", (artist,),
                            {"name": artist, "genre": f"g{i}", "bio": None})
    view = cluster.controller.external_view(MUSIC.name)
    slave_name = view.instances_in_state(partition, "SLAVE")[0]
    assert cluster.nodes[slave_name].partition_scn.get(partition, 0) == 0
    cluster.crash_node(master.instance_name)
    cluster.failover()
    new_master = cluster.master_node(partition)
    record = new_master.get_document("Artist", (artist,))
    assert record.document["genre"] == "g4"
    assert new_master.partition_scn[partition] == 5


@pytest.mark.parametrize("lag", [0, 50, 200])
def test_exp_e1_failover_drains_exactly_the_slave_lag(cluster, lag):
    artist = "artist-lag"
    partition = MUSIC.partition_for(artist)
    master = cluster.master_node(partition)
    for rev in range(lag):   # slaves are not pumped: they lag by `lag` windows
        master.put_document("Artist", (artist,),
                            {"name": artist, "genre": f"g{rev}", "bio": None})
    cluster.crash_node(master.instance_name)
    applied = sum(n.windows_applied for n in cluster.nodes.values())
    cluster.failover()
    assert sum(n.windows_applied for n in cluster.nodes.values()) - applied == lag
    if lag:
        survivor = cluster.master_node(partition).get_document("Artist", (artist,))
        assert survivor.document["genre"] == f"g{lag - 1}"


def test_exp_e1_single_master_through_a_rolling_failure_storm(cluster):
    put_artists(cluster, 60)
    cluster.pump_replication()
    for name in list(cluster.nodes):
        for change in (cluster.crash_node, cluster.recover_node):
            change(name)
            cluster.failover()
            cluster.assert_single_master()
        cluster.pump_replication()
    assert all(cluster.masters_by_partition().values())
    assert len(cluster.controller.transitions_issued) == 64


def test_writes_after_failover_continue_scn_stream(cluster):
    artist = "artist-cont"
    partition = MUSIC.partition_for(artist)
    master = cluster.master_node(partition)
    master.put_document("Artist", (artist,),
                        {"name": artist, "genre": "g0", "bio": None})
    cluster.crash_node(master.instance_name)
    cluster.failover()
    new_master = cluster.master_node(partition)
    new_master.put_document("Artist", (artist,),
                            {"name": artist, "genre": "g1", "bio": None})
    assert new_master.partition_scn[partition] == 2
    cluster.pump_replication()
    cluster.assert_single_master()


def test_recovered_node_rejoins_as_consistent_replica(cluster):
    keys = put_artists(cluster, 10)
    cluster.pump_replication()
    victim_name = cluster.masters_by_partition()[0]
    cluster.crash_node(victim_name)
    cluster.failover()
    put_artists(cluster, 10)  # more writes while it is down
    cluster.recover_node(victim_name)
    cluster.failover()
    cluster.pump_replication()
    victim = cluster.nodes[victim_name]
    for partition in victim.slaved_partitions() + victim.mastered_partitions():
        current_master = cluster.master_node(partition)
        assert victim.partition_scn.get(partition, 0) == \
            current_master.partition_scn.get(partition, 0)


def test_expansion_bootstraps_and_takes_mastership(cluster):
    keys = put_artists(cluster, 40)
    cluster.pump_replication()
    before = cluster.masters_by_partition()
    newcomer = cluster.add_node("storage-3")
    cluster.assert_single_master()
    assert newcomer.mastered_partitions()  # took over some masters
    # EXP-E4: 5 masterships moved, and every node now masters 2 partitions
    after = cluster.masters_by_partition()
    assert sum(after[p] != before[p] for p in after) == 5
    assert sorted(after.values()) == sorted(list(cluster.nodes) * 2)
    # the newcomer's partitions are fully caught up
    for partition in newcomer.mastered_partitions():
        prior_masters = [n for n in cluster.nodes.values()
                         if n is not newcomer
                         and n.partition_scn.get(partition, 0)]
        if prior_masters:
            assert newcomer.partition_scn[partition] == max(
                n.partition_scn[partition] for n in prior_masters)
    # every key still served, and writes go on (no downtime)
    for key in keys + put_artists(cluster, 20):
        node = cluster.node_for_resource(key[0])
        assert node.get_document("Artist", key).document["name"] == key[0]


def test_expansion_with_evicted_relay_uses_snapshot(cluster):
    """When the relay buffer no longer holds a partition's history, the
    new replica bootstraps from a master snapshot then catches up."""
    from repro.databus.relay import EventBuffer
    put_artists(cluster, 40)
    cluster.pump_replication()
    # shrink every partition buffer so history is gone
    for name in cluster.relay.buffer_names():
        tiny = EventBuffer(max_events=1)
        old = cluster.relay.buffer(name)
        tiny._evicted_through = old.newest_scn or 0
        cluster.relay._buffers[name] = tiny
    newcomer = cluster.add_node("storage-3")
    for partition in (newcomer.mastered_partitions()
                      + newcomer.slaved_partitions()):
        others = [n.partition_scn.get(partition, 0)
                  for n in cluster.nodes.values() if n is not newcomer]
        assert newcomer.partition_scn.get(partition, 0) == max(others)


def test_routing_follows_membership_without_asking_zookeeper(cluster,
                                                              monkeypatch):
    """Routers are spectators: a routed request reads the view held in
    memory, which every join, crash, recovery and failover replaces."""
    from repro.zookeeper import ZooKeeperSession
    reads = []
    plain = ZooKeeperSession.get_children
    monkeypatch.setattr(
        ZooKeeperSession, "get_children",
        lambda self, path, watch=None: (reads.append(path),
                                        plain(self, path, watch))[1])

    def check_routing():
        view = cluster.controller.external_view(MUSIC.name)
        assert view.assignments == cluster.controller.current_state(MUSIC.name)
        cluster.controller.external_view(MUSIC.name)
        del reads[:]
        for i in range(200):
            node = cluster.node_for_resource(f"artist-{i}")
            assert node.is_master(MUSIC.partition_for(f"artist-{i}"))
        assert reads == []

    keys = put_artists(cluster, 20)
    cluster.pump_replication()
    check_routing()
    cluster.add_node("storage-3")
    check_routing()
    for victim in ("storage-0", "storage-3", "storage-1"):
        cluster.crash_node(victim)
        cluster.failover()
        check_routing()
        cluster.recover_node(victim)
        cluster.failover()
        check_routing()
    for key in keys:
        node = cluster.node_for_resource(key[0])
        assert node.get_document("Artist", key).document["name"] == key[0]


def test_too_few_nodes_rejected():
    from repro.common.errors import ConfigurationError
    from repro.espresso import EspressoCluster
    with pytest.raises(ConfigurationError):
        EspressoCluster(MUSIC, num_nodes=1)  # replication_factor 2


def test_snapshot_bootstrap_drops_rows_the_donor_deleted():
    """A replica that missed a delete and then the relay's history
    bootstraps from a snapshot that replaces its partition: the deleted
    row goes, and a replay of its commit log rebuilds the same rows."""
    cluster = EspressoCluster(MUSIC, relay_buffer_events=20)
    for table, schema in (("Artist", ARTIST_SCHEMA), ("Album", ALBUM_SCHEMA),
                          ("Song", SONG_SCHEMA)):
        cluster.post_document_schema(table, schema)
    cluster.start()
    partition = MUSIC.partition_for("victim")
    neighbours = [f"artist-{i}" for i in range(1000)
                  if MUSIC.partition_for(f"artist-{i}") == partition]
    cluster.node_for_resource("victim").put_document(
        "Artist", ("victim",), {"name": "victim", "genre": "pop", "bio": None})
    cluster.pump_replication()
    view = cluster.controller.external_view(MUSIC.name)
    slave_name = view.instances_in_state(partition, "SLAVE")[0]
    cluster.crash_node(slave_name)
    cluster.failover()
    master = cluster.master_node(partition)
    master.delete_document("Artist", ("victim",))
    for artist in neighbours[:60]:   # evicts the relay's history
        master.put_document("Artist", (artist,),
                            {"name": artist, "genre": "pop", "bio": None})
    cluster.recover_node(slave_name)
    cluster.failover()
    cluster.pump_replication()
    replica = cluster.nodes[slave_name]
    assert replica.partition_snapshot(partition) == \
        master.partition_snapshot(partition)
    pop = replica.query_index("Artist", "genre", "pop", resource_id="victim")
    assert pop == []
    cluster.crash_node(slave_name)
    cluster.recover_node(slave_name)
    assert cluster.nodes[slave_name].partition_snapshot(partition) == \
        master.partition_snapshot(partition)
