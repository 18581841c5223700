"""Property-based tests for the HDFS and YARN substrates."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.cluster.node import MB
from repro.hdfs import Hdfs, HdfsConfig, ReplicationLevel
from repro.sim import Simulator
from repro.yarn.rm import ResourceManager, YarnConfig

# Hypothesis suites drive whole simulations per example: tier-2.
pytestmark = pytest.mark.slow

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_env(num_nodes, num_racks, seed, block_mb=64, replication=2):
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(
        num_nodes=num_nodes, num_racks=num_racks,
        node=NodeSpec(memory_mb=8192), seed=seed))
    hdfs = Hdfs(sim, cluster, HdfsConfig(block_size=block_mb * MB,
                                         replication=replication))
    return sim, cluster, hdfs


class TestHdfsPlacementProperties:
    @given(
        num_nodes=st.integers(min_value=4, max_value=16),
        num_racks=st.integers(min_value=2, max_value=4),
        size_mb=st.floats(min_value=1.0, max_value=2048.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(**_SETTINGS)
    def test_ingest_invariants(self, num_nodes, num_racks, size_mb, seed):
        if num_racks > num_nodes:
            return
        _, cluster, hdfs = build_env(num_nodes, num_racks, seed)
        f = hdfs.ingest("data", size_mb * MB)
        # Sizes sum exactly; every block within block_size.
        assert sum(b.size for b in f.blocks) == pytest.approx(size_mb * MB)
        for b in f.blocks:
            assert 0 < b.size <= hdfs.config.block_size
            # Replicas distinct and (given >=2 racks) spread across racks.
            assert len({n.node_id for n in b.replicas}) == len(b.replicas)
            if len(b.replicas) >= 2:
                assert len({n.rack.rack_id for n in b.replicas}) >= 2

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        level=st.sampled_from(list(ReplicationLevel)),
        replication=st.integers(min_value=1, max_value=3),
    )
    @settings(**_SETTINGS)
    def test_choose_replicas_respects_level(self, seed, level, replication):
        _, cluster, hdfs = build_env(9, 3, seed)
        writer = cluster.nodes[0]
        chosen = hdfs._choose_replicas(writer, replication, level)
        assert chosen[0] is writer
        assert len({n.node_id for n in chosen}) == len(chosen)
        if level is ReplicationLevel.NODE:
            assert chosen == [writer]
        elif level is ReplicationLevel.RACK:
            assert all(n.rack is writer.rack for n in chosen)
        elif replication >= 2:
            assert chosen[1].rack is not writer.rack

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(**_SETTINGS)
    def test_crash_only_loses_that_nodes_replicas(self, seed):
        _, cluster, hdfs = build_env(8, 2, seed)
        f = hdfs.ingest("data", 512 * MB)
        victim = cluster.nodes[int(seed) % 8]
        before = {b.block_id: (len(b.replicas), victim in b.replicas)
                  for b in f.blocks}
        cluster.crash_node(victim)
        for b in f.blocks:
            count, had_victim = before[b.block_id]
            assert len(b.replicas) == count - (1 if had_victim else 0)
            assert victim not in b.replicas


class TestYarnSchedulerProperties:
    @given(
        requests=st.lists(
            st.tuples(st.integers(min_value=512, max_value=6144),
                      st.floats(min_value=0, max_value=20)),
            min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(**_SETTINGS)
    def test_capacity_never_exceeded(self, requests, seed):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=4, num_racks=2,
                                           node=NodeSpec(memory_mb=8192), seed=seed))
        rm = ResourceManager(sim, cluster, YarnConfig(nm_memory_fraction=1.0))
        for mem, prio in requests:
            rm.request_container(mem, priority=prio)
        sim.run(until=100.0)
        for nm in rm.node_managers.values():
            assert 0 <= nm.used_mb <= nm.capacity_mb

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(**_SETTINGS)
    def test_release_restores_full_capacity(self, seed):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=3, num_racks=3,
                                           node=NodeSpec(memory_mb=8192), seed=seed))
        rm = ResourceManager(sim, cluster, YarnConfig(nm_memory_fraction=1.0))
        total = rm.available_mb()
        grants = [rm.request_container(2048) for _ in range(6)]
        containers = []

        def collect(sim):
            for g in grants:
                containers.append((yield g))

        sim.process(collect(sim))
        sim.run(until=50.0)
        for c in containers:
            rm.release_container(c)
        assert rm.available_mb() == total
