"""Tests for per-server port sizing (the Sec. 9 conclusion numbers)."""

import pytest

from repro.core.sizing import (
    conclusion_claims,
    ports_per_server,
    processing_capacity_bps,
)
from repro.errors import ConfigurationError
from repro.hw.presets import NEHALEM_NEXT_GEN


class TestCapacity:
    def test_realistic_capacity_is_nic_limited(self):
        assert processing_capacity_bps("realistic") == pytest.approx(
            24.6e9, rel=0.01)

    def test_worst_case_capacity(self):
        assert processing_capacity_bps("worst-case") == pytest.approx(
            6.35e9, rel=0.01)

    def test_bad_workload(self):
        with pytest.raises(ConfigurationError):
            processing_capacity_bps("average")


class TestPortsPerServer:
    def test_about_8_or_9_one_gig_ports(self):
        """Sec. 9: 'multiple (about 8-9) 1 Gbps ports per server'."""
        sizing = ports_per_server(1e9, workload="realistic",
                                  worst_case_matrix=True)
        assert sizing.ports in (8, 9)

    def test_uniform_traffic_doubles_the_budget(self):
        worst = ports_per_server(1e9, worst_case_matrix=True)
        uniform = ports_per_server(1e9, worst_case_matrix=False)
        assert uniform.ports == pytest.approx(worst.ports * 1.5, abs=1)

    def test_utilization_below_one(self):
        sizing = ports_per_server(1e9)
        required = sizing.ports * sizing.port_rate_bps * sizing.vlb_factor
        assert required <= sizing.processing_capacity_bps

    def test_next_gen_hosts_more_ports(self):
        now = ports_per_server(1e9, workload="worst-case")
        future = ports_per_server(1e9, workload="worst-case",
                                  spec=NEHALEM_NEXT_GEN)
        assert future.ports > 2 * now.ports

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            ports_per_server(0)


class TestConclusionClaims:
    def test_sec9_narrative(self):
        claims = conclusion_claims()
        # "about 8-9 1 Gbps ports per server"
        assert claims["ports_1g"] in (8, 9)
        # "we come very close to achieving a line rate of 10 Gbps"
        assert claims["fraction_of_10g_realistic"] > 0.95
        # "...but falls short for worst-case workloads"
        assert claims["fraction_of_10g_worst_case"] < 0.5
