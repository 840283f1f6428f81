"""Tests for the two RB4 Click elements (VLBIngress, VLBTransit)."""

import pytest

from repro.click import CounterElement, Discard
from repro.click.elements.cluster import VLBIngress, VLBTransit
from repro.errors import ConfigurationError
from repro.hw.nic import NicQueue
from repro.net import IPv4Address, Packet
from repro.routing import Route, RoutingTable


def _table(num_nodes=4):
    table = RoutingTable()
    for node in range(num_nodes):
        table.add_route("10.%d.0.0/16" % node,
                        Route(port=node, next_hop=IPv4Address("10.%d.0.1" % node)))
    return table


def _rings(num_nodes=4, full=(), loaded=()):
    """TX rings toward each node: ``full`` ones at capacity, ``loaded``
    ones holding one packet, the rest empty."""
    rings = [NicQueue(node, "tx", capacity=4) for node in range(num_nodes)]
    for node in full:
        while rings[node].push(Packet.udp("1.1.1.1", "2.2.2.2")):
            pass
    for node in loaded:
        rings[node].push(Packet.udp("1.1.1.1", "2.2.2.2"))
    return rings


def _wire(element):
    sinks = []
    for i in range(element.n_outputs):
        sink = CounterElement(name="%s-out%d" % (element.name, i))
        sink.connect_to(Discard(name="%s-d%d" % (element.name, i)))
        element.connect_to(sink, output=i)
        sinks.append(sink)
    return sinks


class TestVLBIngress:
    def test_local_delivery(self):
        ingress = VLBIngress(_table(), self_node=1, num_nodes=4)
        sinks = _wire(ingress)
        ingress.receive(Packet.udp("1.1.1.1", "10.1.5.5"))
        assert sinks[1].count == 1  # own output node

    def test_direct_path_when_links_free(self):
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4)
        sinks = _wire(ingress)
        ingress.receive(Packet.udp("1.1.1.1", "10.3.5.5"))
        assert sinks[3].count == 1

    def test_mac_encodes_output_node(self):
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4)
        _wire(ingress)
        packet = Packet.udp("1.1.1.1", "10.2.9.9")
        ingress.receive(packet)
        assert packet.eth.dst.node_id() == 2

    def test_busy_direct_link_detours(self):
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4,
                             tx_rings=_rings(full={3}),
                             use_flowlets=False)
        sinks = _wire(ingress)
        for _ in range(20):
            ingress.receive(Packet.udp("1.1.1.1", "10.3.5.5",
                                       src_port=1234))
        assert sinks[3].count == 0
        assert sinks[1].count + sinks[2].count == 20

    def test_flowlets_pin_path(self):
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4,
                             tx_rings=_rings(full={2}),
                             use_flowlets=True, seed=1)
        sinks = _wire(ingress)
        for i in range(10):
            ingress.now = i * 1e-6
            ingress.receive(Packet.udp("1.1.1.1", "10.2.9.9", src_port=5))
        detour_counts = [sinks[i].count for i in (1, 3)]
        assert max(detour_counts) == 10  # all packets took one pinned path

    def test_routing_miss_goes_to_last_output(self):
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4)
        sinks = _wire(ingress)
        ingress.receive(Packet.udp("1.1.1.1", "99.9.9.9"))
        assert sinks[4].count == 1
        assert ingress.misses == 1

    def test_cycle_cost_includes_flowlet_overhead(self):
        with_fl = VLBIngress(_table(), self_node=0, num_nodes=4,
                             use_flowlets=True)
        without = VLBIngress(_table(), self_node=0, num_nodes=4,
                             use_flowlets=False, name="nofl")
        assert (with_fl.cost(1, 64).cpu_cycles
                > without.cost(1, 64).cpu_cycles)

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            VLBIngress(_table(), self_node=5, num_nodes=4)
        with pytest.raises(ConfigurationError):
            VLBIngress(_table(), self_node=0, num_nodes=1)


class TestVLBTransit:
    def test_local_delivery(self):
        transit = VLBTransit(self_node=2, num_nodes=4)
        sinks = _wire(transit)
        packet = Packet.udp("1.1.1.1", "10.2.5.5")
        packet.eth.dst = packet.eth.dst.with_node_id(2)
        transit.receive(packet)
        assert sinks[2].count == 1
        assert transit.delivered == 1

    def test_forwarding_by_mac_only(self):
        transit = VLBTransit(self_node=1, num_nodes=4)
        sinks = _wire(transit)
        packet = Packet.udp("1.1.1.1", "10.3.5.5")
        packet.eth.dst = packet.eth.dst.with_node_id(3)
        # Corrupt the IP destination: transit must not look at it.
        packet.ip.dst = IPv4Address("99.99.99.99")
        transit.receive(packet)
        assert sinks[3].count == 1
        assert transit.forwarded == 1

    def test_zero_cycle_cost(self):
        # The whole point of the MAC trick: no CPU header processing.
        transit = VLBTransit(self_node=0, num_nodes=4)
        cost = transit.cost(1, 64)
        assert cost.cpu_cycles == 0.0

    def test_out_of_range_node_dropped(self):
        transit = VLBTransit(self_node=0, num_nodes=2)
        _wire(transit)
        packet = Packet.udp("1.1.1.1", "2.2.2.2")
        packet.eth.dst = packet.eth.dst.with_node_id(7)
        transit.receive(packet)
        assert transit.packets_dropped == 1


class TestTwoElementCluster:
    def test_ingress_plus_transit_form_a_path(self):
        """Chain the two elements as RB4 does: ingress at node 0, transit
        at node 3, local delivery at node 3."""
        ingress = VLBIngress(_table(), self_node=0, num_nodes=4,
                             use_flowlets=False, seed=2,
                             # Force a detour via the least-loaded node 1.
                             tx_rings=_rings(full={3}, loaded={2}))
        transit = VLBTransit(self_node=1, num_nodes=4)
        egress = VLBTransit(self_node=3, num_nodes=4, name="egress")
        # ingress output 1 -> transit at node 1; transit output 3 -> node 3.
        for i in range(5):
            ingress.connect_to(Discard(name="i-d%d" % i), output=i) \
                if i not in (1,) else ingress.connect_to(transit, output=1)
        for i in range(4):
            if i == 3:
                transit.connect_to(egress, output=3)
            else:
                transit.connect_to(Discard(name="t-d%d" % i), output=i)
        sinks = _wire(egress)
        packet = Packet.udp("1.1.1.1", "10.3.7.7")
        ingress.receive(packet)
        assert transit.forwarded == 1
        assert egress.delivered == 1
        assert sinks[3].count == 1
