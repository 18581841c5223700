"""Unit tests for the YARN layer (RM, NM, containers, liveness)."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.yarn import ContainerKilled, ResourceManager, YarnConfig


def make_env(num_nodes=4, memory_mb=8192, **yarn_kw):
    sim = Simulator()
    racks = min(2, num_nodes)
    cluster = Cluster(sim, ClusterSpec(num_nodes=num_nodes, num_racks=racks, node=NodeSpec(memory_mb=memory_mb)))
    cfg = YarnConfig(nm_memory_fraction=1.0, **yarn_kw)
    rm = ResourceManager(sim, cluster, cfg)
    return sim, cluster, rm


class TestAllocation:
    def test_grant_after_allocation_latency(self):
        sim, cluster, rm = make_env(allocation_latency=1.0)
        grant = rm.request_container(2048)
        c = sim.run(until=grant)
        assert sim.now == pytest.approx(1.0)
        assert c.memory_mb == 2048
        assert c.alive

    def test_memory_rounding_to_allocation_bounds(self):
        sim, cluster, rm = make_env()
        c = sim.run(until=rm.request_container(100))
        assert c.memory_mb == 1024  # min allocation
        c2 = sim.run(until=rm.request_container(99999))
        assert c2.memory_mb == 6144  # max allocation

    def test_queueing_when_cluster_full(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=4096)
        c1 = sim.run(until=rm.request_container(4096))
        grant2 = rm.request_container(4096)
        sim.run(until=sim.now + 20)
        assert not grant2.triggered
        rm.release_container(c1)
        c2 = sim.run(until=grant2)
        assert c2.alive

    def test_priority_order(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=4096)
        c1 = sim.run(until=rm.request_container(4096))
        low = rm.request_container(4096, priority=10)
        high = rm.request_container(4096, priority=1)
        rm.release_container(c1)
        first = sim.run(until=sim.any_of([low, high]))
        assert high.triggered and not low.triggered
        assert first is high.value

    def test_preferred_node_honoured(self):
        sim, cluster, rm = make_env()
        target = cluster.nodes[2]
        c = sim.run(until=rm.request_container(1024, preferred_nodes=[target]))
        assert c.node is target

    def test_excluded_node_avoided(self):
        sim, cluster, rm = make_env(num_nodes=2)
        bad = cluster.nodes[0]
        for _ in range(4):
            c = sim.run(until=rm.request_container(1024, exclude_nodes=[bad]))
            assert c.node is not bad

    def test_load_balancing_spreads_containers(self):
        sim, cluster, rm = make_env(num_nodes=4)
        nodes = set()
        for _ in range(4):
            c = sim.run(until=rm.request_container(1024))
            nodes.add(c.node.node_id)
        assert len(nodes) == 4

    def test_cancel_request(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=4096)
        c1 = sim.run(until=rm.request_container(4096))
        grant = rm.request_container(4096)
        rm.cancel_request(grant)
        rm.release_container(c1)
        sim.run(until=sim.now + 5)
        assert not grant.triggered

    def test_available_mb_accounting(self):
        sim, cluster, rm = make_env(num_nodes=2, memory_mb=4096)
        assert rm.available_mb() == 8192
        sim.run(until=rm.request_container(2048))
        assert rm.available_mb() == 8192 - 2048


class TestPendingQueue:
    def test_interleaved_priorities_and_requeue_stay_sorted(self):
        sim, cluster, rm = make_env(num_nodes=2, memory_mb=4096)
        full = [sim.run(until=rm.request_container(4096)) for _ in range(2)]
        grants = {}
        for label, prio in [("a", 10.0), ("b", 5.0), ("c", 20.0), ("d", 5.0), ("e", 10.0)]:
            grants[label] = rm.request_container(4096, priority=prio)
        assert rm._pending == sorted(rm._pending)
        # Free one node: "b" (first in queue order) is granted there,
        # and the node crashes during the handout, so "b" is requeued
        # behind the other priority-5 request with a fresh sequence.
        victim = full[0].node
        rm.release_container(full[0])
        sim.run(until=sim.now + 0.5)
        cluster.crash_node(victim)
        for label, prio in [("f", 1.0), ("g", 10.0)]:
            grants[label] = rm.request_container(4096, priority=prio)
        sim.run(until=sim.now + 1.0)
        assert rm._pending == sorted(rm._pending)
        by_grant = {id(g): label for label, g in grants.items()}
        order = [by_grant[id(req.grant)] for req in rm._pending]
        assert order == ["f", "d", "b", "a", "e", "g", "c"]
        assert not any(g.triggered for g in grants.values())


class _PickEveryRequestRM(ResourceManager):
    """The matcher without the free-memory bound: every pending request
    goes through ``_pick_node``."""

    def _match(self):
        granted = []
        for req in self._pending:
            if req.cancelled:
                granted.append(req)
                continue
            nm = self._pick_node(req)
            if nm is None:
                continue
            granted.append(req)
            self._deliver(req, nm.allocate(req.memory_mb))
        for req in granted:
            self._pending.remove(req)


def _usable_free_mb(rm):
    return max((nm.available_mb for nm in rm.node_managers.values()
                if not nm.lost and nm.node.reachable), default=-1)


def _burst_on_full_cluster(rm_cls):
    """Fill six 8 GB nodes to 2 GB free each, queue a burst of 4 GB
    (too big for any node) and 2 GB asks, then drain the fillers one at
    a time. Returns the grant log, the final rng state and every
    ``(requested_mb, usable_free_mb)`` pair seen by ``_pick_node``."""
    picks = []

    class Recording(rm_cls):
        def _pick_node(self, req):
            picks.append((req.memory_mb, _usable_free_mb(self)))
            return super()._pick_node(req)

    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=6, num_racks=2, seed=11,
                                       node=NodeSpec(memory_mb=8192)))
    rm = Recording(sim, cluster, YarnConfig(nm_memory_fraction=1.0))
    grants = []

    def ask(label, memory_mb, priority):
        grant = rm.request_container(memory_mb, priority=priority)
        grant.callbacks.append(
            lambda ev: grants.append((sim.now, label, ev.value.node.node_id)))
        return grant

    fillers = [ask(f"fill{i}", 3072, 5.0) for i in range(12)]

    def driver():
        yield sim.all_of(fillers)
        assert _usable_free_mb(rm) == 2048
        for i in range(8):
            ask(f"big{i}", 4096, 10.0 - i % 3)
            ask(f"small{i}", 2048, 20.0)
        for grant in fillers:
            yield sim.timeout(3.0)
            rm.release_container(grant.value)

    sim.process(driver(), name="driver")
    sim.run(until=200.0)
    return grants, cluster.rng.bit_generator.state, picks


class TestMatchBound:
    def test_oversized_requests_skip_pick_and_keep_grants(self):
        grants, rng_state, picks = _burst_on_full_cluster(ResourceManager)
        # Never scan the nodes for a request no usable node can fit.
        assert picks and all(mem <= free for mem, free in picks)
        assert any(label.startswith("big") for _, label, _ in grants)
        # Same grants (time, request, node) and the same rng stream as
        # picking for every request.
        ref_grants, ref_rng_state, ref_picks = _burst_on_full_cluster(
            _PickEveryRequestRM)
        assert any(mem > free for mem, free in ref_picks)
        assert grants == ref_grants
        assert rng_state == ref_rng_state


class TestNodeManager:
    def test_over_allocation_rejected(self):
        sim, cluster, rm = make_env(num_nodes=1, memory_mb=2048)
        nm = rm.node_managers[0]
        nm.allocate(2048)
        with pytest.raises(SimulationError):
            nm.allocate(1)

    def test_double_release_is_noop(self):
        sim, cluster, rm = make_env()
        nm = rm.node_managers[0]
        c = nm.allocate(1024)
        nm.release(c)
        nm.release(c)
        assert nm.used_mb == 0

    def test_memory_fraction_reserves_headroom(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=1, num_racks=1, node=NodeSpec(memory_mb=10000)))
        rm = ResourceManager(sim, cluster, YarnConfig(nm_memory_fraction=0.9))
        assert rm.node_managers[0].capacity_mb == 9000


class TestLiveness:
    def test_node_loss_detected_after_timeout(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=70.0)
        lost = []
        rm.node_lost_listeners.append(lambda n: lost.append((n.name, sim.now)))

        def killer(sim):
            yield sim.timeout(10.0)
            cluster.crash_node(cluster.nodes[1])

        sim.process(killer(sim))
        sim.run(until=200.0)
        assert len(lost) == 1
        name, t = lost[0]
        assert name == "node-1"
        # Last heartbeat at ~10s, expiry 70s later, detected within a
        # heartbeat-scan period.
        assert 79.0 <= t <= 82.0

    def test_network_stop_also_detected(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=70.0)
        lost = []
        rm.node_lost_listeners.append(lambda n: lost.append(n.name))

        def killer(sim):
            yield sim.timeout(5.0)
            cluster.stop_network(cluster.nodes[2])

        sim.process(killer(sim))
        sim.run(until=100.0)
        assert lost == ["node-2"]

    def test_containers_killed_on_node_loss(self):
        sim, cluster, rm = make_env(nm_liveness_timeout=10.0)
        c = sim.run(until=rm.request_container(1024, preferred_nodes=[cluster.nodes[1]]))
        caught = []

        def task(sim):
            try:
                yield c.killed
            except ContainerKilled as exc:
                caught.append(exc.reason)

        sim.process(task(sim))
        cluster.crash_node(cluster.nodes[1])
        sim.run(until=50.0)
        assert caught == ["node-1 lost"]
        assert not c.alive

    def test_lost_node_not_scheduled(self):
        sim, cluster, rm = make_env(num_nodes=2, nm_liveness_timeout=5.0)
        cluster.crash_node(cluster.nodes[0])
        sim.run(until=10.0)
        assert rm.is_lost(cluster.nodes[0])
        for _ in range(3):
            c = sim.run(until=rm.request_container(1024))
            assert c.node is cluster.nodes[1]

    def test_grant_in_flight_when_node_dies_is_retried(self):
        sim, cluster, rm = make_env(num_nodes=2, allocation_latency=5.0, nm_liveness_timeout=5.0)
        target = cluster.nodes[0]
        grant = rm.request_container(1024, preferred_nodes=[target])

        def killer(sim):
            yield sim.timeout(1.0)
            cluster.crash_node(target)

        sim.process(killer(sim))
        c = sim.run(until=grant)
        assert c.node is cluster.nodes[1]

    def test_healthy_nodes_listing(self):
        sim, cluster, rm = make_env(num_nodes=3, nm_liveness_timeout=5.0)
        cluster.crash_node(cluster.nodes[1])
        sim.run(until=10.0)
        healthy = {n.node_id for n in rm.healthy_nodes()}
        assert healthy == {0, 2}


class TestConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(SimulationError):
            YarnConfig(min_allocation_mb=0)
        with pytest.raises(SimulationError):
            YarnConfig(min_allocation_mb=2048, max_allocation_mb=1024)
        with pytest.raises(SimulationError):
            YarnConfig(nm_heartbeat_interval=0)
