"""Full-stack integration: every subsystem in one scenario.

Builds a RIB, churns it, compiles FIBs through the control plane, writes a
trace to a real pcap file, and routes the loaded trace through the DES
cluster by live per-node FIB lookups -- the whole library working
together.
"""

import pytest

from repro.control import ChurnSchedule
from repro.core import RouteBricksRouter
from repro.core.control import ClusterManager
from repro.net import IPv4Address, Packet
from repro.workloads.pcapio import load_trace, save_trace


@pytest.fixture
def manager():
    m = ClusterManager()
    for port in range(4):
        m.add_node(external_port=port)
        m.announce("10.%d.0.0/16" % port, port)
    m.push_fibs()
    return m


class TestFullStack:
    def test_control_plane_to_dataplane(self, manager, tmp_path):
        # 1. Churn the master RIB a little, re-announce, re-push.
        churn = ChurnSchedule.bursts(
            list(manager.rib), burst_updates=20, interval_sec=1.0, bursts=1,
            withdraw_fraction=0.0, reannounce_fraction=0.0, seed=1)
        for update in churn:
            manager.announce(update.prefix, update.port)
        manager.push_fibs()
        assert manager.stale_nodes() == []

        # 2. Write traffic to disk and load it back.
        path = str(tmp_path / "full.pcap")
        pairs = []
        for i in range(40):
            packet = Packet.udp("172.16.0.%d" % (i % 250),
                                "10.%d.9.9" % (i % 4), length=200,
                                src_port=i)
            pairs.append((i * 1e-5, packet))
        save_trace(path, pairs)

        # 3. Route the loaded trace in at node 0; each packet's egress
        # comes from node 0's FIB at arrival, not from the event.
        events = [(time, 0, None, packet)
                  for time, packet in load_trace(path)]
        assert len(events) == len(pairs)
        report = RouteBricksRouter(seed=2).simulate(
            events, manager=manager, route_via_fib=True)
        assert report.fib_miss_packets == 0
        assert report.delivered_packets == len(events)
        assert [stats["egress"] for stats in report.node_stats] == [10] * 4

    def test_membership_change_reaches_dataplane(self, manager):
        # Add a node and prefix; the new FIB routes to the new node.
        manager.add_node(external_port=4)
        manager.announce("10.4.0.0/16", 4)
        manager.push_fibs()
        fib = manager.fib_of(0)
        route = fib.lookup(IPv4Address("10.4.1.1"))
        assert route is not None and route.port == 4
