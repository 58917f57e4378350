"""Fabric-level STONITH: serialization, coalescing, sabotage accounting."""

from repro.cluster.arbiter import ClusterArbiter
from repro.sim.simulator import Simulator


class FakeHost:
    def __init__(self, name):
        self.name = name
        self.is_up = True
        self.crashes = 0

    def crash(self):
        self.is_up = False
        self.crashes += 1


def make(delay=0.010, seed=1):
    sim = Simulator(seed=seed)
    return sim, ClusterArbiter(sim, actuation_delay=delay)


def test_single_cut_after_actuation_delay():
    sim, arbiter = make()
    host = FakeHost("p0")
    fired = []
    arbiter.cut_power(host, lambda: fired.append(sim.now))
    sim.run(until=0.009)
    assert host.is_up and not fired  # the relay is still actuating
    sim.run(until=0.011)
    assert not host.is_up
    assert fired == [0.010]
    assert arbiter.cuts_performed == 1
    assert arbiter.fence_requests == 1


def test_concurrent_fences_are_serialized():
    sim, arbiter = make()
    a, b = FakeHost("p0"), FakeHost("p1")
    times = {}
    arbiter.cut_power(a, lambda: times.setdefault("a", sim.now))
    arbiter.cut_power(b, lambda: times.setdefault("b", sim.now))
    sim.run(until=0.1)
    assert not a.is_up and not b.is_up
    # One actuator: the second cut lands a full actuation later.
    assert times["b"] - times["a"] == arbiter.actuation_delay
    assert arbiter.max_queue_depth == 1
    assert arbiter.cuts_performed == 2


def test_storm_requests_coalesce_per_host():
    sim, arbiter = make()
    host = FakeHost("p0")
    fired = []
    for index in range(5):
        arbiter.cut_power(host, lambda index=index: fired.append(index))
    sim.run(until=0.1)
    # Five suspicious backups, one relay actuation — every waiter fires.
    assert host.crashes == 1
    assert sorted(fired) == [0, 1, 2, 3, 4]
    assert arbiter.fence_requests == 5
    assert arbiter.requests_coalesced == 4
    assert arbiter.cuts_performed == 1


def test_fencing_a_dead_host_still_completes():
    sim, arbiter = make()
    host = FakeHost("p0")
    host.is_up = False
    done = []
    arbiter.cut_power(host, lambda: done.append(True))
    sim.run(until=0.1)
    assert done == [True]
    assert host.crashes == 0  # no double kill
    assert arbiter.cuts_performed == 1


def test_sabotaged_arbiter_acknowledges_without_cutting():
    sim, arbiter = make()
    arbiter.sabotaged = True
    host = FakeHost("p0")
    done = []
    arbiter.cut_power(host, lambda: done.append(True))
    sim.run(until=0.1)
    assert host.is_up  # the mutation hook: acked, never actuated
    assert done == [True]
    assert arbiter.cuts_performed == 0
    assert arbiter.fence_requests == 1
    assert not arbiter.fences_actuated


def test_fences_actuated_only_once_every_queued_cut_landed():
    sim, arbiter = make()
    assert arbiter.fences_actuated  # nothing requested, nothing owed
    hosts = [FakeHost("p0"), FakeHost("p1")]
    for host in hosts + hosts[:1]:  # the repeat for p0 coalesces
        arbiter.cut_power(host)
    assert not arbiter.fences_actuated  # queued, not yet actuated
    sim.run(until=0.015)
    assert arbiter.cuts_performed == 1
    assert not arbiter.fences_actuated  # p1's cut still in flight
    sim.run(until=1.0)
    assert arbiter.requests_coalesced == 1
    assert arbiter.cuts_performed == 2
    assert arbiter.fences_actuated


def test_queue_drains_in_fifo_order():
    sim, arbiter = make()
    hosts = [FakeHost(f"p{i}") for i in range(4)]
    order = []
    for host in hosts:
        arbiter.cut_power(host, lambda h=host: order.append(h.name))
    sim.run(until=1.0)
    assert order == ["p0", "p1", "p2", "p3"]
    assert arbiter.max_queue_depth == 3
