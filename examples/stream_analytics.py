#!/usr/bin/env python3
"""Stream processing (§V, ROADMAP item 4): Who Viewed Your Profile.

A Samza-style job — partitioned stateful tasks on Kafka, placed by
Helix, state backed by compacted changelog topics — counts profile
views per member in real time.  Mid-run, one container is killed with
uncommitted work; the rebalanced survivor recovers from snapshot plus
changelog replay, and the serving numbers come back identical.

Run:  python examples/stream_analytics.py
"""

from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk
from repro.kafka.message import Message, MessageSet
from repro.kafka import KafkaCluster
from repro.streams import (
    JobCoordinator,
    StreamContainer,
    encode_stream_message,
    route_key,
)
from repro.streams.apps import (
    WhoViewedYourProfileService,
    who_viewed_your_profile_job,
)
from repro.workloads import ProfileViewEventGenerator
from repro.zookeeper import ZooKeeperServer

PARTITIONS = 4


def produce_views(cluster, generator, count, clock):
    staged = {}
    for _ in range(count):
        clock.advance(0.01)
        event = generator.next_event(timestamp=clock.now())
        partition = route_key(event["viewer"], PARTITIONS)
        staged.setdefault(partition, []).append(Message(
            encode_stream_message(event["viewer"],
                                  {"viewee": event["viewee"],
                                   "ts": event["ts"]}, event["ts"])))
    for partition, messages in sorted(staged.items()):
        broker = cluster.broker_for("profile-views", partition)
        broker.produce("profile-views", partition, MessageSet(messages))
        broker.log("profile-views", partition).flush()


def drain(containers):
    while sum(c.run_cycle() for c in containers if c.alive):
        pass


def main() -> None:
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=42)
    zookeeper = ZooKeeperServer()
    cluster = KafkaCluster(3, "/kafka", zookeeper=zookeeper, clock=clock,
                           partitions_per_topic=PARTITIONS, disk=disk)
    cluster.create_topic("profile-views")

    spec = who_viewed_your_profile_job(PARTITIONS, window_s=60.0)
    coordinator = JobCoordinator(spec, cluster, zookeeper)
    containers = [
        StreamContainer(f"c{i}", spec, cluster, zookeeper, clock,
                        disk.scope(f"c{i}"), "/state",
                        snapshot_interval_commits=2)
        for i in range(3)]
    coordinator.deploy(containers)
    tasks = sum(len(c.tasks) for c in containers)
    print(f"deployed job {spec.name!r}: {len(spec.stages)} stages x "
          f"{PARTITIONS} partitions = {tasks} tasks on 3 containers")

    generator = ProfileViewEventGenerator(num_members=500, seed=42)
    produce_views(cluster, generator, 2000, clock)
    drain(containers)
    service = WhoViewedYourProfileService(coordinator, containers)
    top = sorted(((service.total_views(
        ProfileViewEventGenerator.member_id(rank)), rank)
        for rank in range(20)), reverse=True)[:5]
    print("top profiles after 2000 views:")
    for views, rank in top:
        print(f"  {ProfileViewEventGenerator.member_id(rank)}: "
              f"{views} views")

    # crash one container mid-stream, with processed-but-uncommitted work
    produce_views(cluster, generator, 500, clock)
    for container in containers:
        if container.alive:
            container.poll()         # no commit: this work dies with c1
    victim = containers[1]
    lost = len(victim.tasks)
    victim.kill()
    coordinator.rebalance()
    recovered = [t for c in containers if c.alive
                 for t in c.tasks.values() if t.replayed_mutations
                 or t.recovered_from_snapshot]
    print(f"killed {victim.name} hosting {lost} tasks; "
          f"{len(recovered)} tasks recovered "
          f"({sum(t.replayed_mutations for t in recovered)} changelog "
          "mutations replayed)")
    drain(containers)

    after = sorted(((service.total_views(
        ProfileViewEventGenerator.member_id(rank)), rank)
        for rank in range(20)), reverse=True)[:5]
    expected = {rank: views for views, rank in top}
    print("top profiles after recovery (2500 views, none lost):")
    for views, rank in after:
        print(f"  {ProfileViewEventGenerator.member_id(rank)}: "
              f"{views} views")
    assert all(views >= expected[rank] for views, rank in after
               if rank in expected), "recovery lost acked counts"
    member = ProfileViewEventGenerator.member_id(after[0][1])
    windows = service.views_by_window(member)
    print(f"windowed counts for {member}: "
          f"{{{', '.join(f'{w}: {n}' for w, n in sorted(windows.items()))}}}")


if __name__ == "__main__":
    main()
