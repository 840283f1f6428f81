"""Tests for the cluster router: analytic model and packet-level DES."""

import pytest

from repro import calibration as cal
from repro.core import RouteBricksRouter
from repro.core.latency import (
    cluster_latency_usec,
    latency_range_usec,
    server_latency_usec,
)
from repro.errors import ConfigurationError
from repro.workloads import FlowGenerator, WorkloadSpec


class TestAnalyticThroughput:
    def test_rb4_64b_matches_paper(self):
        result = RouteBricksRouter().max_throughput(WorkloadSpec.fixed(64))
        assert result.aggregate_gbps == pytest.approx(12.0, rel=0.02)
        assert result.binding == "cpu"

    def test_rb4_abilene_matches_paper(self):
        result = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(cal.ABILENE_MEAN_PACKET_BYTES))
        assert result.aggregate_gbps == pytest.approx(35.0, rel=0.02)
        assert result.binding == "nic"

    def test_64b_in_expected_window(self):
        """Sec. 6.2: expected between 4 x 6.35/2 = 12.7 and 4 x 9.7/2 =
        19.4 Gbps before reordering-avoidance overhead; with it, 12."""
        no_overhead = RouteBricksRouter(
            use_flowlets=False).max_throughput(WorkloadSpec.fixed(64))
        assert 12.7 < no_overhead.aggregate_gbps < 19.4
        with_overhead = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(64))
        assert with_overhead.aggregate_gbps < no_overhead.aggregate_gbps

    def test_worst_case_matrix_slower(self):
        router = RouteBricksRouter()
        uniform = router.max_throughput(WorkloadSpec.fixed(64), uniform=True)
        worst = router.max_throughput(WorkloadSpec.fixed(64), uniform=False)
        assert worst.aggregate_bps < uniform.aggregate_bps

    def test_port_rate_caps_throughput(self):
        # A very fast spec would be port-limited at 10 Gbps per node; at
        # 16 nodes the NIC's internal share (1/15) leaves it room too.
        from repro.hw.presets import NEHALEM_NEXT_GEN
        router = RouteBricksRouter(num_nodes=16, spec=NEHALEM_NEXT_GEN,
                                   internal_link_bps=1e12)
        result = router.max_throughput(WorkloadSpec.fixed(1024))
        assert result.binding == "port"
        assert result.per_port_bps == pytest.approx(10e9)

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ConfigurationError):
            RouteBricksRouter(num_nodes=1)

    def test_ipsec_cluster_much_slower(self):
        """Running IPsec at the input nodes (a VPN-gateway cluster) drops
        aggregate throughput roughly with the encryption tax."""
        router = RouteBricksRouter()
        routing = router.max_throughput(WorkloadSpec.fixed(64))
        ipsec = router.max_throughput(WorkloadSpec.fixed(64),
                                      ingress_app=cal.IPSEC)
        assert ipsec.binding == "cpu"
        assert ipsec.aggregate_bps < routing.aggregate_bps / 2.5

    def test_custom_ingress_app_integrates(self):
        from repro.perfmodel import define_application
        dpi = define_application("dpi", cycles_per_packet=4000)
        router = RouteBricksRouter()
        result = router.max_throughput(WorkloadSpec.fixed(64),
                                       ingress_app=dpi)
        assert 0 < result.aggregate_gbps < 12.0


class TestLatencyModel:
    def test_paper_range(self):
        direct, indirect = latency_range_usec()
        assert direct == pytest.approx(47.6, abs=0.1)
        assert indirect == pytest.approx(66.4, abs=0.1)

    def test_input_node_composition(self):
        # 4 DMA transfers + full batch wait + routing = ~24 us.
        assert server_latency_usec("input") == pytest.approx(23.84, abs=0.01)

    def test_lower_kn_cuts_latency(self):
        assert server_latency_usec("input", kn=1) < server_latency_usec(
            "input", kn=16)

    def test_rate_aware_batch_wait(self):
        # At high rates the batch fills fast: near-zero wait.
        fast = server_latency_usec("input", packet_rate_pps=1e8)
        slow = server_latency_usec("input", packet_rate_pps=None)
        assert fast < slow

    def test_more_hops_more_latency(self):
        assert cluster_latency_usec(3) > cluster_latency_usec(2)
        with pytest.raises(ConfigurationError):
            cluster_latency_usec(1)

    def test_bad_role(self):
        with pytest.raises(ConfigurationError):
            server_latency_usec("wizard")


def _gen(seed=1, packets_per_flow=240):
    # Heavy enough that the single direct path (10 Gbps) saturates and
    # load balancing engages, as in the paper's replay (Sec. 6.2).
    return FlowGenerator(num_flows=60, packets_per_flow=packets_per_flow,
                         packet_bytes=740, burst_size=8,
                         burst_gap_sec=1e-4, intra_burst_gap_sec=4e-7,
                         seed=seed)


class TestMacByteLimit:
    """A packet-level run encodes each packet's output node in one MAC
    byte, so it takes at most 256 nodes; the analytic model takes any."""

    @staticmethod
    def _edge_events(n):
        from repro.net import Packet
        return [(0.0, 0, n - 1, Packet.udp("10.0.0.1", "10.1.0.1")),
                (1e-6, n - 1, 0, Packet.udp("10.1.0.1", "10.0.0.1"))]

    def test_256_nodes_simulate(self):
        report = RouteBricksRouter(num_nodes=256, seed=1).simulate(
            self._edge_events(256), until=1e-4)
        assert report.delivered_packets == report.offered_packets == 2

    def test_257_nodes_refused_before_any_event_runs(self):
        consumed = []

        def events():
            for event in self._edge_events(257):
                consumed.append(event)
                yield event

        router = RouteBricksRouter(num_nodes=257, seed=1)
        with pytest.raises(ConfigurationError, match="MAC byte"):
            router.simulate(events(), until=1e-4)
        assert consumed == []
        assert router.max_throughput(WorkloadSpec.fixed(64)).aggregate_bps > 0


class TestSimulation:
    def test_all_packets_delivered(self):
        router = RouteBricksRouter(seed=1)
        report = router.replay_pair(_gen().timed_packets())
        assert report.delivered_packets == report.offered_packets
        assert report.delivery_ratio == 1.0

    def test_flowlets_cut_reordering(self):
        """The Sec. 6.2 headline: flowlet switching cuts reordering by
        more than an order of magnitude vs per-packet balancing."""
        flowlets = RouteBricksRouter(use_flowlets=True, seed=2).replay_pair(
            _gen().timed_packets())
        per_packet = RouteBricksRouter(use_flowlets=False, seed=2).replay_pair(
            _gen().timed_packets())
        assert per_packet.reordered_fraction > 0
        assert flowlets.reordered_fraction < per_packet.reordered_fraction / 5

    def test_flowlet_reordering_below_one_percent(self):
        report = RouteBricksRouter(use_flowlets=True, seed=3).replay_pair(
            _gen().timed_packets())
        assert report.reordered_fraction < 0.01

    def test_overload_forces_indirect_paths(self):
        report = RouteBricksRouter(seed=1).replay_pair(_gen().timed_packets())
        assert report.indirect_packets > 0
        assert report.direct_packets > 0

    def test_latency_within_model_range(self):
        report = RouteBricksRouter(seed=1).replay_pair(_gen().timed_packets())
        direct, indirect = latency_range_usec()
        assert report.latency_usec.min() >= direct - 0.5
        # Queueing delay can exceed the unloaded indirect figure, but the
        # median should sit inside the paper's range under this load.
        assert direct <= report.latency_usec.percentile(50) <= indirect + 30

    def test_uniform_traffic_mostly_direct(self):
        """With a uniform matrix well under capacity, adaptive Direct VLB
        sends everything directly (the Sec. 6.2 observation)."""
        router = RouteBricksRouter(seed=5)
        gen = FlowGenerator(num_flows=24, packets_per_flow=40,
                            packet_bytes=740, burst_gap_sec=1e-3, seed=7)
        events = []
        for index, (time, packet) in enumerate(gen.timed_packets()):
            ingress = index % 4
            egress = (ingress + 1 + index % 3) % 4
            events.append((time, ingress, egress, packet))
        events.sort(key=lambda e: e[0])
        report = router.simulate(events)
        assert report.indirect_fraction < 0.05
        assert report.delivered_packets == report.offered_packets

    def test_local_delivery_no_internal_hop(self):
        """A packet whose egress is its ingress node never crosses links."""
        router = RouteBricksRouter(seed=1)
        gen = FlowGenerator(num_flows=4, packets_per_flow=10, seed=3)
        events = [(t, 2, 2, p) for t, p in gen.timed_packets()]
        report = router.simulate(events)
        assert report.delivered_packets == report.offered_packets
        assert report.indirect_packets == 0
        assert all(s["intermediate"] == 0 for s in report.node_stats)

    def test_bad_node_ids_rejected(self):
        router = RouteBricksRouter()
        gen = FlowGenerator(num_flows=1, packets_per_flow=1)
        events = [(t, 9, 0, p) for t, p in gen.timed_packets()]
        with pytest.raises(ConfigurationError):
            router.simulate(events)

    def test_deterministic_for_seed(self):
        a = RouteBricksRouter(seed=11).replay_pair(_gen(seed=4).timed_packets())
        b = RouteBricksRouter(seed=11).replay_pair(_gen(seed=4).timed_packets())
        assert a.reordered_fraction == b.reordered_fraction
        assert a.indirect_packets == b.indirect_packets

    def test_node_stats_conserve_packets(self):
        report = RouteBricksRouter(seed=1).replay_pair(_gen().timed_packets())
        total_ingress = sum(s["ingress"] for s in report.node_stats)
        total_egress = sum(s["egress"] for s in report.node_stats)
        assert total_ingress == report.offered_packets
        assert total_egress == report.delivered_packets
