"""Machine specs, fat-tree topology and cluster flow model."""

import pytest

from repro.errors import ConfigError
from repro.network.cluster import Cluster, block_placement
from repro.network.fattree import FatTree
from repro.network.machine import CURIE, TERA100, small_test_machine
from repro.simt.kernel import Kernel
from repro.util.units import GB


class TestMachineSpec:
    def test_paper_machine_sizes(self):
        assert TERA100.total_cores == 4370 * 32  # ~140k cores
        assert CURIE.total_cores == 5040 * 16  # ~80k cores

    def test_fs_scaling_matches_paper(self):
        # Paper Sec. IV-B: 500 GB/s scaled to 2560 cores ~ 9.1 GB/s.
        assert TERA100.fs_job_bandwidth(2560) == pytest.approx(9.14e9, rel=0.01)

    def test_fs_share_capped_at_total(self):
        assert TERA100.fs_job_bandwidth(10**9) == TERA100.fs_bandwidth_total

    def test_nic_effective_monotone_in_ranks(self):
        values = [TERA100.nic_effective_bandwidth(n) for n in range(1, 33)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nic_effective_plateau(self):
        plateau = TERA100.nic_bandwidth * TERA100.nic_efficiency
        assert TERA100.nic_effective_bandwidth(32) == pytest.approx(plateau)

    def test_single_rank_injection_cap(self):
        assert TERA100.nic_effective_bandwidth(1) == TERA100.rank_injection_max

    def test_bisection_calibration(self):
        # 160 nodes -> the paper's measured 98.5 GB/s aggregate (Fig. 14).
        assert TERA100.bisection_bandwidth(160) == pytest.approx(98.56e9, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_test_machine(nodes=0)
        with pytest.raises(ConfigError):
            small_test_machine(nic_bandwidth=0)
        with pytest.raises(ConfigError):
            small_test_machine(nic_efficiency=1.5)


class TestFatTree:
    def test_leaf_grouping(self):
        ft = FatTree(nodes=40, radix=18)
        assert ft.leaf_switches == 3
        assert ft.leaf_of(0) == 0
        assert ft.leaf_of(17) == 0
        assert ft.leaf_of(18) == 1

    def test_hops(self):
        ft = FatTree(nodes=40, radix=18)
        assert ft.hops(3, 3) == 0
        assert ft.hops(0, 17) == 2
        assert ft.hops(0, 20) == 4

    def test_latency_model(self):
        ft = FatTree(nodes=40, radix=18)
        assert ft.latency(0, 20, per_hop=1e-6, base=2e-6) == pytest.approx(6e-6)

    def test_same_leaf_nodes(self):
        ft = FatTree(nodes=40, radix=18)
        peers = [n for n in range(40) if ft.leaf_of(n) == ft.leaf_of(20)]
        assert peers == list(range(18, 36))

    def test_node_bounds_checked(self):
        ft = FatTree(nodes=4)
        with pytest.raises(ConfigError):
            ft.leaf_of(4)
        with pytest.raises(ConfigError):
            ft.hops(0, 99)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FatTree(0)
        with pytest.raises(ConfigError):
            FatTree(10, radix=1)


class TestPlacement:
    def test_block_fill(self, machine):
        p = block_placement(10, machine)  # 4 cores/node
        assert p.node_of_rank[:4] == (0, 0, 0, 0)
        assert p.node_of_rank[4:8] == (1, 1, 1, 1)
        assert p.ranks_per_node == {0: 4, 1: 4, 2: 2}
        assert p.nodes_used == 3

    def test_oversubscription_rejected(self, machine):
        with pytest.raises(ConfigError):
            block_placement(machine.total_cores + 1, machine)

    def test_empty_rejected(self, machine):
        with pytest.raises(ConfigError):
            block_placement(0, machine)


class TestCluster:
    def test_same_node_detection(self, machine):
        cluster = Cluster(Kernel(), machine, nranks=8)
        assert cluster.node_of(0) == cluster.node_of(3)
        assert cluster.node_of(0) != cluster.node_of(4)

    def test_rank_bounds(self, machine):
        cluster = Cluster(Kernel(), machine, nranks=8)
        with pytest.raises(ConfigError):
            cluster.node_of(8)

    def test_intranode_faster_than_internode(self, machine):
        kernel = Kernel()
        cluster = Cluster(kernel, machine, nranks=8)
        times = []

        def proc(k):
            t0 = k.now
            yield cluster.transfer(0, 1, 1_000_000)  # same node
            times.append(k.now - t0)
            t0 = k.now
            yield cluster.transfer(0, 4, 1_000_000)  # cross node
            times.append(k.now - t0)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert times[0] < times[1]

    def test_incast_serializes_on_ingress(self, machine):
        """Many senders to one node cannot exceed its NIC bandwidth."""
        kernel = Kernel()
        cluster = Cluster(kernel, machine, nranks=32)  # 8 nodes
        nbytes = 10_000_000
        done = []

        def sender(k, src):
            yield cluster.transfer(src, 0, nbytes)
            done.append(k.now)

        # 7 senders on distinct nodes all target node 0.
        for src in (4, 8, 12, 16, 20, 24, 28):
            kernel.spawn(sender(kernel, src))
        kernel.run()
        total = 7 * nbytes
        ingress_bw = machine.nic_effective_bandwidth(4)
        assert max(done) >= total / ingress_bw

    def test_transfer_accounting(self, machine):
        kernel = Kernel()
        cluster = Cluster(kernel, machine, nranks=8)

        def proc(k):
            yield cluster.transfer(0, 1, 100)
            yield cluster.transfer(0, 4, 200)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert cluster.bytes_intranode == 100
        assert cluster.bytes_internode == 200

    def test_crossleaf_traffic_hits_bisection(self):
        machine = small_test_machine(nodes=40, cores_per_node=1)
        kernel = Kernel()
        cluster = Cluster(kernel, machine, nranks=40)

        def proc(k):
            yield cluster.transfer(0, 1, 100)  # same leaf (radix 18)
            yield cluster.transfer(0, 39, 100)  # cross leaf

        kernel.spawn(proc(kernel))
        kernel.run()
        assert cluster.bytes_crossleaf == 100

    def test_negative_transfer_rejected(self, machine):
        cluster = Cluster(Kernel(), machine, nranks=4)
        with pytest.raises(ConfigError):
            cluster.transfer(0, 1, -5)

    def test_nic_utilization_reporting(self, machine):
        kernel = Kernel()
        cluster = Cluster(kernel, machine, nranks=8)

        def proc(k):
            yield cluster.transfer(0, 4, 10 * GB // 100)

        kernel.spawn(proc(kernel))
        kernel.run()
        util = cluster.nic_utilization()
        assert util[0][0] > 0.9  # egress of node 0 busy for most of the run
        assert util[1][1] > 0.9  # ingress of node 1
