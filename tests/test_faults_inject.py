"""Fault injection through the cluster DES (repro.faults.inject).

The paper's claim under test (Sec. 3.2): when servers or internal links
die, Direct VLB re-balances around them on purely local information and
the cluster degrades instead of collapsing.
"""

import pytest

from repro.core import RouteBricksRouter
from repro.core.control import ClusterManager
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSchedule
from repro.obs.metrics import MetricsRegistry
from repro.workloads import FixedSizeWorkload, WorkloadSpec
from repro.workloads.matrices import uniform_matrix


def _pair_events(packets=1200, ingress=0, egress=1, seed=7):
    workload = FixedSizeWorkload(packet_bytes=740, num_flows=32, seed=seed)
    gap = 1e-6
    return [(index * gap, ingress, egress, packet)
            for index, packet in enumerate(workload.packets(packets))]


def _uniform_workload(num_nodes=4, load_bps=3e9, seed=0):
    return WorkloadSpec.fixed(740, app="forwarding", seed=seed).with_matrix(
        uniform_matrix(num_nodes, load_bps))


def _managed_cluster(num_nodes=4):
    manager = ClusterManager()
    for port in range(num_nodes):
        manager.add_node(external_port=port)
        manager.announce("10.%d.0.0/16" % port, port)
    manager.push_fibs()
    return manager


class TestNodeCrash:
    def test_crash_mid_run_never_crashes_or_deadlocks(self):
        router = RouteBricksRouter(seed=1)
        schedule = FaultSchedule().crash_node(at=0.5e-3, node=3)
        report = router.simulate(_uniform_workload(), until=1.5e-3,
                                 faults=schedule)
        assert report.fault_events == 1
        # Conservation: every offered packet is delivered, dropped, or
        # still in flight at the horizon -- nothing vanishes or doubles.
        assert report.delivered_packets + report.dropped_packets \
            <= report.offered_packets
        assert report.delivered_packets > 0
        assert report.dropped_packets > 0

    def test_in_flight_packets_on_dying_node_counted_as_losses(self):
        router = RouteBricksRouter(seed=2)
        baseline = router.simulate(_uniform_workload(), until=1.5e-3)
        faulty = RouteBricksRouter(seed=2).simulate(
            _uniform_workload(),
            until=1.5e-3,
            faults=FaultSchedule().crash_node(at=0.5e-3, node=3))
        assert faulty.dropped_packets > baseline.dropped_packets
        assert faulty.delivered_packets < baseline.delivered_packets

    def test_survivors_rebalance_around_failed_intermediate(self):
        # All 0 -> 1 traffic is indirect (direct cable dead from t=0);
        # node 2 then dies mid-run, so flowlets pinned to it must spill
        # to node 3 -- the only intermediate left.
        router = RouteBricksRouter(seed=3)
        schedule = (FaultSchedule().fail_link(at=0.0, src=0, dst=1)
                    .crash_node(at=0.4e-3, node=2))
        report = router.simulate(_pair_events(), faults=schedule,
                                 detection_latency_sec=20e-6)
        stats = {s["node"]: s for s in report.node_stats}
        assert stats[3]["intermediate"] > 0
        # Most traffic survives: only packets in the detection window and
        # in flight through node 2 are lost.
        assert report.delivered_packets > 0.8 * report.offered_packets
        assert report.flowlet_spills > 0

    def test_faults_accept_dict_form(self):
        router = RouteBricksRouter(seed=1)
        report = router.simulate(
            _pair_events(packets=200),
            faults=[{"time": 0.1e-3, "kind": "node_down", "node": 3}])
        assert report.fault_events == 1

    def test_out_of_range_fault_rejected(self):
        router = RouteBricksRouter(seed=1)
        with pytest.raises(ConfigurationError):
            router.simulate(_pair_events(packets=10),
                            faults=FaultSchedule().crash_node(at=0.0,
                                                              node=9))


class TestRecovery:
    def test_recovered_node_carries_traffic_again(self):
        router = RouteBricksRouter(seed=4)
        schedule = (FaultSchedule()
                    .crash_node(at=0.3e-3, node=3)
                    .recover_node(at=0.8e-3, node=3))
        report = router.simulate(_uniform_workload(seed=4), until=2e-3,
                                 faults=schedule,
                                 detection_latency_sec=50e-6)
        stats = {s["node"]: s for s in report.node_stats}
        # Node 3 forwarded external traffic after its reboot.
        assert stats[3]["egress"] > 0
        assert report.fault_events == 2

    def test_reconvergence_after_recovery(self):
        router = RouteBricksRouter(seed=5)
        manager = _managed_cluster()
        schedule = (FaultSchedule()
                    .crash_node(at=0.3e-3, node=2)
                    .recover_node(at=0.9e-3, node=2))
        report = router.simulate(
            _uniform_workload(seed=5), until=2e-3, faults=schedule,
            manager=manager,
            detection_latency_sec=100e-6, fib_push_latency_sec=50e-6)
        events = [(r.event, r.live_nodes) for r in report.convergence]
        assert events == [("node_down", 3), ("node_up", 4)]
        down, up = report.convergence
        assert down.convergence_sec == pytest.approx(150e-6)
        assert up.convergence_sec == pytest.approx(150e-6)
        # After the full cycle the control plane is whole again.
        assert manager.failed_nodes() == []
        assert manager.stale_nodes() == []


class TestLinkFaults:
    def test_link_down_detours_and_link_up_restores(self):
        router = RouteBricksRouter(seed=6)
        schedule = (FaultSchedule()
                    .fail_link(at=0.2e-3, src=0, dst=1)
                    .restore_link(at=0.7e-3, src=0, dst=1))
        report = router.simulate(_pair_events(), faults=schedule)
        assert report.indirect_packets > 0      # detoured while cut
        assert report.direct_packets > 0        # direct before/after
        assert report.delivered_packets + report.dropped_packets == \
            report.offered_packets

    def test_flapping_link_keeps_cluster_alive(self):
        router = RouteBricksRouter(seed=7)
        schedule = FaultSchedule().flap_link(0, 1, start=0.1e-3,
                                             period_sec=0.3e-3, count=3)
        report = router.simulate(_pair_events(), faults=schedule)
        assert report.fault_events == 6
        assert report.delivered_packets > 0.9 * report.offered_packets

    def test_cut_cable_flush_is_a_counted_drop_cause(self):
        # Slow internal links keep link 0->2 queued when it is cut, so
        # the cut flushes packets; every drop must reach node_drops.
        router = RouteBricksRouter(internal_link_bps=2.5e9)
        registry = MetricsRegistry(enabled=True)
        workload = WorkloadSpec.fixed(64).with_matrix(
            uniform_matrix(4, router.port_rate_bps * 0.9))
        report = router.simulate(
            workload, until=0.4e-3,
            faults=FaultSchedule().fail_link(at=0.2e-3, src=0, dst=2),
            metrics=registry)
        drops = registry.snapshot()["counters"]["node_drops"]
        assert report.fault_flushed_packets > 0
        assert drops["{node=0,reason=cable_flush}"] == \
            report.fault_flushed_packets
        assert sum(drops.values()) == report.dropped_packets


class TestNicStall:
    def test_stall_delays_but_does_not_unplug(self):
        router = RouteBricksRouter(seed=8)
        baseline = router.simulate(_pair_events(seed=9))
        stalled = RouteBricksRouter(seed=8).simulate(
            _pair_events(seed=9),
            faults=FaultSchedule().stall_nic(at=0.2e-3, node=0,
                                             duration_sec=0.3e-3))
        assert stalled.fault_events == 1
        assert stalled.latency_usec.percentile(99) > \
            baseline.latency_usec.percentile(99)
        # Everything accounted for; stall is congestion, not a cut.
        assert stalled.delivered_packets + stalled.dropped_packets == \
            stalled.offered_packets


class TestInjectorValidation:
    def test_negative_latency_rejected(self):
        router = RouteBricksRouter(seed=1)
        sim, nodes = router.build_simulation()
        with pytest.raises(ConfigurationError):
            FaultInjector(sim, nodes, FaultSchedule(),
                          detection_latency_sec=-1.0)

    @pytest.mark.parametrize("latency", ["detection_latency_sec",
                                         "fib_push_latency_sec"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency, bad):
        router = RouteBricksRouter(seed=1)
        sim, nodes = router.build_simulation()
        with pytest.raises(ConfigurationError, match="finite"):
            FaultInjector(sim, nodes, FaultSchedule(), **{latency: bad})

    def test_node_recovery_does_not_resurrect_cut_cable(self):
        router = RouteBricksRouter(seed=1)
        sim, nodes = router.build_simulation()
        schedule = (FaultSchedule()
                    .fail_link(at=0.1e-3, src=0, dst=1)
                    .crash_node(at=0.2e-3, node=1)
                    .recover_node(at=0.4e-3, node=1))
        FaultInjector(sim, nodes, schedule, detection_latency_sec=10e-6)
        sim.run(until=1e-3)
        # The independently cut cable 0 -> 1 stays down after node 1's
        # recovery; other peers re-admit node 1.
        assert 1 in nodes[0].failed_hops
        assert 1 not in nodes[2].failed_hops
