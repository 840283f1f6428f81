"""Tests for the custom-application performance API (Sec. 8)."""

import pytest

from repro import calibration as cal
from repro.errors import ConfigurationError
from repro.perfmodel.custom_app import define_application, predict
from repro.perfmodel.throughput import max_loss_free_rate
from repro.workloads import WorkloadSpec


class TestDefineApplication:
    def test_costs_exceed_forwarding_base(self):
        app = define_application("nat", instructions_per_packet=400,
                                 cycles_per_instruction=1.2)
        base = cal.MINIMAL_FORWARDING
        assert app.cpu_cycles(64) == pytest.approx(
            base.cpu_cycles(64) + 480)

    def test_cycles_direct(self):
        app = define_application("firewall", cycles_per_packet=900)
        assert app.cpu_cycles(64) == pytest.approx(
            cal.MINIMAL_FORWARDING.cpu_cycles(64) + 900)

    def test_per_byte_cost(self):
        dpi = define_application("dpi", cycles_per_packet=500,
                                 cycles_per_byte=4.0)
        small = dpi.cpu_cycles(64)
        large = dpi.cpu_cycles(1500)
        base_growth = (cal.MINIMAL_FORWARDING.cpu_cycles(1500)
                       - cal.MINIMAL_FORWARDING.cpu_cycles(64))
        assert large - small == pytest.approx(base_growth + 4.0 * 1436)

    def test_memory_lines(self):
        app = define_application("flowtable", cycles_per_packet=300,
                                 extra_memory_lines=3)
        assert app.mem_bytes(64) == pytest.approx(
            cal.MINIMAL_FORWARDING.mem_bytes(64) + 192 + 64)

    def test_payload_untouched_saves_memory(self):
        touch = define_application("a", cycles_per_packet=100,
                                   touches_payload=True)
        skip = define_application("b", cycles_per_packet=100,
                                  touches_payload=False)
        assert skip.mem_bytes(1500) < touch.mem_bytes(1500)

    def test_zero_cost_app_equals_forwarding(self):
        app = define_application("noop", cycles_per_packet=0,
                                 touches_payload=False)
        rate_noop = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=app)).rate_bps
        rate_fwd = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=cal.MINIMAL_FORWARDING)).rate_bps
        assert rate_noop == pytest.approx(rate_fwd)

    def test_rejects_ambiguous_spec(self):
        with pytest.raises(ConfigurationError):
            define_application("x", instructions_per_packet=10,
                               cycles_per_packet=10)
        with pytest.raises(ConfigurationError):
            define_application("x")

    def test_rejects_negatives(self):
        with pytest.raises(ConfigurationError):
            define_application("x", cycles_per_packet=-1)
        with pytest.raises(ConfigurationError):
            define_application("x", cycles_per_packet=1, cycles_per_byte=-1)


class TestPredict:
    def test_server_prediction_drops_with_cost(self):
        light = predict(define_application("l", cycles_per_packet=100))
        heavy = predict(define_application("h", cycles_per_packet=5000))
        assert heavy["server_gbps"] < light["server_gbps"]
        assert heavy["bottleneck"] == "cpu"

    def test_cluster_prediction(self):
        app = define_application("nat", cycles_per_packet=600)
        result = predict(app, packet_bytes=64, cluster_nodes=4)
        assert result["cluster_nodes"] == 4
        # The cluster aggregate exceeds a single server running the app
        # alone, but carries the VLB forwarding+flowlet tax per node.
        assert 0 < result["cluster_gbps"] < 4 * result["server_gbps"]

    @pytest.mark.parametrize("nodes", [2, 4, 8, 32])
    @pytest.mark.parametrize("size", [64, 740, 1500])
    def test_cluster_prediction_is_the_routers_operating_point(self, size,
                                                                nodes):
        """``predict`` reads the cluster figure off
        ``RouteBricksRouter.max_throughput``; the hand derivation it used
        to carry (CPU / NIC / port minimum) stays here as the reference."""
        from repro.core.router import RB4_NIC_EFFECTIVE_BPS

        for app in (define_application("nat", cycles_per_packet=600),
                    define_application("dpi", cycles_per_packet=500,
                                       cycles_per_byte=4.0),
                    cal.IP_ROUTING):
            book = cal.DEFAULT_BOOKKEEPING_CYCLES
            cycles = (app.cpu_cycles(size) + book
                      + cal.MINIMAL_FORWARDING.cpu_cycles(size) + book
                      + cal.REORDER_AVOIDANCE_CYCLES)
            cpu_bps = cal.NEHALEM_TOTAL_CYCLES_PER_SEC / cycles * size * 8
            nic_bps = RB4_NIC_EFFECTIVE_BPS / (1 + 1 / (nodes - 1))
            expected = min(cpu_bps, nic_bps, cal.PORT_RATE_BPS) * nodes / 1e9
            result = predict(app, packet_bytes=size, cluster_nodes=nodes)
            assert result["cluster_gbps"] == pytest.approx(expected,
                                                           rel=1e-12)

    def test_routing_like_app_matches_routing(self):
        """Defining an app with IP routing's profile reproduces the
        routing operating point."""
        increment = (cal.IP_ROUTING.cpu_base_cycles
                     - cal.MINIMAL_FORWARDING.cpu_base_cycles)
        extra_lines = (cal.IP_ROUTING.mem_base_bytes
                       - cal.MINIMAL_FORWARDING.mem_base_bytes) / 64
        lookalike = define_application("rtr2", cycles_per_packet=increment,
                                       extra_memory_lines=extra_lines)
        ours = max_loss_free_rate(WorkloadSpec.fixed(64, app=lookalike))
        paper = max_loss_free_rate(WorkloadSpec.fixed(64, app=cal.IP_ROUTING))
        assert ours.rate_gbps == pytest.approx(paper.rate_gbps, rel=0.01)
