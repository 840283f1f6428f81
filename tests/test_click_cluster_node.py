"""End-to-end tests of the Click-built cluster (core.click_node)."""

import pytest

from repro.core.click_node import ClickCluster, ClickClusterNode
from repro.core.mac_encoding import encode_output_node
from repro.errors import ConfigurationError
from repro.net import IPv4Address, Packet
from repro.net.icmp import TYPE_DEST_UNREACHABLE, TYPE_TIME_EXCEEDED
from repro.routing import Route, RoutingTable


@pytest.fixture
def table():
    t = RoutingTable()
    for node in range(4):
        t.add_route("10.%d.0.0/16" % node,
                    Route(port=node,
                          next_hop=IPv4Address("10.%d.0.1" % node)))
    return t


@pytest.fixture
def cluster(table):
    return ClickCluster(4, table, seed=1)


class TestPortArithmetic:
    def test_port_toward_and_back(self, table):
        node = ClickClusterNode(1, 4, table)
        for peer in (0, 2, 3):
            port = node.port_toward(peer)
            assert 1 <= port <= 3
            assert node.peer_of_port(port) == peer

    def test_external_port_guard(self, table):
        node = ClickClusterNode(0, 4, table)
        with pytest.raises(ConfigurationError):
            node.peer_of_port(0)

    def test_too_many_nodes(self, table):
        with pytest.raises(ConfigurationError):
            ClickClusterNode(0, 9, table)


class TestEndToEnd:
    def test_packets_exit_at_lpm_selected_node(self, cluster):
        for i in range(12):
            packet = Packet.udp("172.16.0.%d" % i, "10.%d.5.5" % (i % 4),
                                length=200, src_port=i)
            assert cluster.inject(0, packet)
        delivered = cluster.run(rounds=10)
        assert delivered == 12
        for node in range(4):
            assert len(cluster.delivered[node]) == 3
            for packet in cluster.delivered[node]:
                assert packet.ip.dst.value >> 16 == (10 << 8) | node

    def test_ttl_decremented_exactly_once(self, cluster):
        packet = Packet.udp("172.16.0.1", "10.3.5.5", length=200, ttl=9)
        cluster.inject(0, packet)
        cluster.run(rounds=10)
        (out,) = cluster.delivered[3]
        # Decremented at the input node only (the MAC trick skips IP
        # processing at transit nodes).
        assert out.ip.ttl == 8

    def test_routing_miss_generates_icmp(self, cluster):
        cluster.inject(1, Packet.udp("172.16.9.9", "203.0.113.7", length=90))
        cluster.run(rounds=10)
        (icmp,) = cluster.delivered[1]
        assert icmp.annotations["icmp_type"] == TYPE_DEST_UNREACHABLE
        assert icmp.ip.dst == IPv4Address("172.16.9.9")

    def test_ttl_expiry_generates_icmp(self, cluster):
        cluster.inject(2, Packet.udp("172.16.9.9", "10.0.5.5", length=90,
                                     ttl=1))
        cluster.run(rounds=10)
        (icmp,) = cluster.delivered[2]
        assert icmp.annotations["icmp_type"] == TYPE_TIME_EXCEEDED

    def test_any_to_any(self, cluster):
        count = 0
        for src in range(4):
            for dst in range(4):
                packet = Packet.udp("172.16.%d.%d" % (src, dst),
                                    "10.%d.1.1" % dst, length=128,
                                    src_port=src * 4 + dst)
                cluster.inject(src, packet)
                count += 1
        delivered = cluster.run(rounds=12)
        assert delivered == count
        assert all(len(v) == 4 for v in cluster.delivered.values())

    def test_transit_does_no_ip_work(self, cluster):
        cluster.inject(0, Packet.udp("172.16.0.1", "10.2.5.5", length=200))
        cluster.run(rounds=10)
        # The packet crossed node 2's transit path; its VLBTransit element
        # reports zero header-processing cycles by design.
        node2 = cluster.nodes[2]
        transits = [node2.graph["transit-p%d" % p] for p in (1, 2, 3)]
        assert sum(t.delivered for t in transits) == 1

    def test_quiescent_run_is_cheap(self, cluster):
        assert cluster.run(rounds=5) == 0

    def test_scheduler_rules_hold(self, cluster):
        for node in cluster.nodes:
            assert node.scheduler.validate_rules() == []

    def test_cycles_charged_per_node(self, cluster):
        from repro.net import Packet
        for i in range(8):
            cluster.inject(0, Packet.udp("172.16.1.%d" % i,
                                         "10.3.5.5", length=128,
                                         src_port=i))
        cluster.run(rounds=8)
        # The input node did routing work; the transit/egress node less.
        assert cluster.nodes[0].cycles_used() > 0
        assert cluster.nodes[3].cycles_used() >= 0
        assert cluster.nodes[0].cycles_used() > \
            cluster.nodes[3].cycles_used()

    def test_full_direct_ring_detours_via_least_loaded_peer(self, cluster):
        node0 = cluster.nodes[0]

        def queue_filler(dst):
            filler = Packet.udp("172.16.9.9", "10.%d.0.9" % dst)
            encode_output_node(filler, dst, max_nodes=4)
            return node0.to_devices[node0.port_toward(dst)].queue.push(filler)

        while queue_filler(3):  # the direct ring is full
            pass
        queue_filler(2)  # node 2's link is busier than node 1's
        packet = Packet.udp("172.16.0.1", "10.3.5.5", length=200, ttl=9)
        cluster.inject(0, packet)
        cluster.run(rounds=40)
        assert node0.to_devices[node0.port_toward(3)].packets_dropped == 0
        assert any(out is packet for out in cluster.delivered[3])
        assert packet.ip.ttl == 8
        forwarded = {node.node_id: sum(
            node.graph["transit-p%d" % p].forwarded for p in (1, 2, 3))
            for node in cluster.nodes}
        assert forwarded == {0: 0, 1: 1, 2: 0, 3: 0}
