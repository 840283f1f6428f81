"""Failure handling in the cluster DES: routing around dead cables with
purely local information (a property VLB's design makes natural)."""

import pytest

from repro.core import RouteBricksRouter
from repro.core.vlb import direct_first_hop
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.net.packet import Packet
from repro.workloads import FixedSizeWorkload


def _events(num_nodes=4, packets=1200, ingress=0, egress=1, seed=7):
    workload = FixedSizeWorkload(packet_bytes=740, num_flows=32, seed=seed)
    gap = 1e-6
    return [(index * gap, ingress, egress, packet)
            for index, packet in enumerate(workload.packets(packets))]


def _cut(*links):
    """A schedule that cuts each directed (src, dst) cable at t = 0."""
    schedule = FaultSchedule()
    for src, dst in links:
        schedule.fail_link(at=0.0, src=src, dst=dst)
    return schedule


class TestFailedLinks:
    def test_direct_link_down_traffic_detours(self):
        router = RouteBricksRouter(seed=1)
        report = router.simulate(_events(), faults=_cut((0, 1)))
        # Everything still arrives -- via intermediates.
        assert report.delivered_packets == report.offered_packets
        assert report.indirect_packets == report.offered_packets
        assert report.direct_packets == 0

    def test_no_failure_baseline_goes_direct(self):
        router = RouteBricksRouter(seed=1)
        report = router.simulate(_events())
        assert report.indirect_packets == 0

    def test_two_dead_links_still_one_path_left(self):
        router = RouteBricksRouter(seed=2)
        report = router.simulate(
            _events(), faults=_cut((0, 1), (0, 2)))
        # Only the 0->3->1 path remains.
        assert report.delivered_packets == report.offered_packets
        stats = {s["node"]: s for s in report.node_stats}
        assert stats[3]["intermediate"] == report.offered_packets

    def test_transit_committed_to_dead_hop_drops(self):
        # Force the path 0 -> 2 -> 1 while 2 -> 1 is dead: node 0 cannot
        # know, so packets are lost at node 2.
        router = RouteBricksRouter(seed=3)
        report = router.simulate(
            _events(), faults=_cut((0, 1), (0, 3), (2, 1)))
        assert report.dropped_packets == report.offered_packets
        assert report.delivered_packets == 0

    def test_failure_costs_latency(self):
        baseline = RouteBricksRouter(seed=4).simulate(_events())
        detoured = RouteBricksRouter(seed=4).simulate(
            _events(), faults=_cut((0, 1)))
        assert detoured.latency_usec.percentile(50) > \
            baseline.latency_usec.percentile(50)

    def test_bad_link_spec_rejected(self):
        router = RouteBricksRouter()
        with pytest.raises(ConfigurationError):
            router.simulate(_events(packets=1), faults=_cut((0, 9)))

    def test_cut_cable_stays_down_when_its_far_end_recovers(self):
        # Node 1 crashes and comes back while the 0 -> 1 cable is cut:
        # the recovery must not revive the cable.
        schedule = (_cut((0, 1)).crash_node(at=0.5e-3, node=1)
                    .recover_node(at=1.0e-3, node=1))
        router = RouteBricksRouter(seed=3, use_flowlets=False)
        report = router.simulate(_events(packets=3000), faults=schedule)
        assert report.delivered_packets > 0
        assert report.direct_packets == 0

    def test_a_cut_cable_is_a_fault_event_only(self):
        with pytest.raises(TypeError):
            RouteBricksRouter().simulate(_events(packets=1),
                                         failed_links=[(0, 1)])


class TestFailedHopsWiring:
    """Unit-level checks that ClusterNode's failed_hops drives every
    path-choice primitive (the knob the fault injector turns)."""

    def _node(self, seed=0):
        router = RouteBricksRouter(seed=seed)
        sim, nodes = router.build_simulation()
        return sim, nodes

    def _fresh_path(self, node, egress):
        """The shared Direct-VLB rule, fed from ``node``'s own oracle."""
        return direct_first_hop(
            node.node_id, egress, node.num_nodes, node._link_available,
            node.failed_hops, node._queued_bits, node.rng)

    def test_failed_hop_is_never_available(self):
        _, nodes = self._node()
        nodes[0].failed_hops.add(1)
        assert not nodes[0]._link_available(1)
        for index in range(20):
            packet = Packet.udp("10.0.0.1", "10.1.0.1", length=740,
                                src_port=index)
            assert nodes[0].choose_path(packet, egress=1, now=0.0) != 1

    def test_fresh_path_skips_failed_intermediates(self):
        _, nodes = self._node()
        # Direct link 0->1 dead, intermediate 2 dead: only 3 remains.
        nodes[0].failed_hops.update({1, 2})
        for _ in range(20):
            assert self._fresh_path(nodes[0], egress=1) == 3

    def test_all_hops_failed_falls_back_to_direct(self):
        _, nodes = self._node()
        nodes[0].failed_hops.update({1, 2, 3})
        # Nothing is reachable; the node still answers (the send will
        # drop) instead of deadlocking path choice.
        assert self._fresh_path(nodes[0], egress=1) == 1

    def test_choose_path_moves_pinned_flowlet_off_dead_hop(self):
        sim, nodes = self._node()
        packet = Packet.udp("10.0.0.1", "10.1.0.1", length=740)
        first = nodes[0].choose_path(packet, egress=1, now=0.0)
        # Kill whatever hop the flowlet pinned; the next packet of the
        # same flow must move to a live path immediately.
        nodes[0].failed_hops.add(first)
        second = nodes[0].choose_path(packet, egress=1, now=1e-6)
        assert second != first
        assert second not in nodes[0].failed_hops

    def test_send_to_failed_hop_counts_a_drop(self):
        _, nodes = self._node()
        packet = Packet.udp("10.0.0.1", "10.1.0.1", length=740)
        nodes[0].failed_hops.add(1)
        before = nodes[0].dropped
        nodes[0]._send(packet, 1)
        assert nodes[0].dropped == before + 1

    def test_dead_node_drops_everything_it_touches(self):
        sim, nodes = self._node()
        nodes[0].fail()
        packet = Packet.udp("10.0.0.1", "10.1.0.1", length=740)
        nodes[0].ingress(packet, egress_node=1)
        nodes[0].receive_internal(packet)
        assert nodes[0].dropped == 2
        assert nodes[0].ingress_packets == 0

    def test_recover_resets_flowlet_state(self):
        _, nodes = self._node()
        packet = Packet.udp("10.0.0.1", "10.1.0.1", length=740)
        nodes[0].choose_path(packet, egress=1, now=0.0)
        table_before = nodes[0].flowlets
        nodes[0].fail()
        nodes[0].recover()
        assert nodes[0].alive
        assert nodes[0].flowlets is not table_before
        assert nodes[0].flowlets.delta_sec == table_before.delta_sec
