"""Tests for the M/D/1 queueing-latency model."""

import pytest

from repro.errors import ConfigurationError
from repro.perfmodel.queueing import (
    latency_vs_load_curve,
    loaded_cluster_latency_usec,
    md1_wait_sec,
    server_service_time_sec,
    utilization_for_latency_budget,
)


class TestMd1:
    def test_zero_load_zero_wait(self):
        assert md1_wait_sec(1e-6, 0.0) == 0.0

    def test_half_load(self):
        # W_q = rho / (2 mu (1 - rho)) = 0.5 * service at rho = 0.5.
        assert md1_wait_sec(2e-6, 0.5) == pytest.approx(1e-6)

    def test_wait_explodes_near_saturation(self):
        assert md1_wait_sec(1e-6, 0.99) > 40 * md1_wait_sec(1e-6, 0.5)

    def test_monotone_in_load(self):
        waits = [md1_wait_sec(1e-6, rho) for rho in (0.1, 0.5, 0.9)]
        assert waits == sorted(waits)

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            md1_wait_sec(0, 0.5)
        with pytest.raises(ConfigurationError):
            md1_wait_sec(1e-6, 1.0)


class TestServerService:
    def test_64b_forwarding_service_time(self):
        # 1173.6 cycles at 2.8 GHz = ~0.42 us per packet per core.
        assert server_service_time_sec() == pytest.approx(0.42e-6, rel=0.02)

    def test_scales_with_app(self):
        from repro import calibration as cal
        fwd = server_service_time_sec(cal.MINIMAL_FORWARDING)
        ipsec = server_service_time_sec(cal.IPSEC)
        assert ipsec > 6 * fwd


class TestClusterLatencyUnderLoad:
    def test_unloaded_matches_base_model(self):
        from repro.core.latency import cluster_latency_usec
        assert loaded_cluster_latency_usec(0.0, hops=2) == pytest.approx(
            cluster_latency_usec(2))

    def test_latency_grows_with_load(self):
        curve = latency_vs_load_curve()
        latencies = [row["latency_usec"] for row in curve]
        assert latencies == sorted(latencies)

    def test_indirect_path_pays_more_queueing(self):
        direct = loaded_cluster_latency_usec(0.8, hops=2)
        indirect = loaded_cluster_latency_usec(0.8, hops=3)
        assert indirect > direct

    def test_budget_inversion(self):
        rho = utilization_for_latency_budget(60.0, hops=2)
        assert 0 < rho < 1
        assert loaded_cluster_latency_usec(rho, hops=2) == pytest.approx(
            60.0, abs=0.5)

    def test_budget_below_base_rejected(self):
        with pytest.raises(ConfigurationError):
            utilization_for_latency_budget(10.0, hops=2)


class TestAgainstSimulation:
    def test_des_latency_within_model_envelope(self):
        """The DES's median latency under moderate load sits between the
        unloaded model and the M/D/1 curve at high utilization."""
        from repro.core import RouteBricksRouter
        from repro.workloads import FlowGenerator

        gen = FlowGenerator(num_flows=40, packets_per_flow=120,
                            packet_bytes=740, burst_size=8,
                            burst_gap_sec=2e-4, intra_burst_gap_sec=4e-7,
                            seed=2)
        report = RouteBricksRouter(seed=3).replay_pair(gen.timed_packets())
        p50 = report.latency_usec.percentile(50)
        unloaded = loaded_cluster_latency_usec(0.0, hops=2)
        heavy = loaded_cluster_latency_usec(0.97, hops=3)
        assert unloaded <= p50 <= heavy
