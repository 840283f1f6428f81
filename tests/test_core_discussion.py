"""Tests for the Sec. 8 discussion models (form factor, power, cost)."""

import pytest

from repro.core import discussion
from repro.errors import ConfigurationError


class TestEstimates:
    def test_rb4_reference_numbers(self):
        rb4 = discussion.rb4_estimate()
        assert rb4.power_kw == pytest.approx(2.6)
        assert rb4.cost_usd == 14_500
        assert rb4.capacity_gbps == 40
        assert rb4.rack_units == 4

    def test_power_overhead_about_60_percent(self):
        # Sec. 8: RB4 draws ~60 % more than a 40 Gbps hardware router.
        overhead = discussion.power_overhead_vs_reference(
            discussion.rb4_estimate())
        assert overhead == pytest.approx(0.625, abs=0.05)

    def test_cost_comparison(self):
        comparison = discussion.cost_comparison()
        assert comparison["ratio"] == pytest.approx(70_000 / 14_500)

    def test_cluster_estimate_scales_linearly(self):
        small = discussion.estimate_cluster(10)
        large = discussion.estimate_cluster(20)
        assert large.capacity_gbps == pytest.approx(2 * small.capacity_gbps)
        assert large.power_kw == pytest.approx(2 * small.power_kw)
        assert large.cost_usd == 2 * small.cost_usd

    def test_integrated_nics_add_power(self):
        plain = discussion.estimate_cluster(30)
        integrated = discussion.estimate_cluster(30, integrated_nics=True)
        assert integrated.power_kw > plain.power_kw
        # +48 W per server.
        assert integrated.power_kw - plain.power_kw == pytest.approx(
            30 * 0.048)

    def test_integrated_mesh_size_cap(self):
        # 2x10G + 30x1G on-board ports -> meshes of 30-40 servers.
        discussion.estimate_cluster(33, integrated_nics=True)
        with pytest.raises(ConfigurationError):
            discussion.estimate_cluster(50, integrated_nics=True)

    def test_form_factor_comparison(self):
        comparison = discussion.form_factor_comparison(33)
        # Sec. 8: 300-400 Gbps in 30-40U vs Cisco's 360 Gbps in 21U.
        assert comparison["cluster_gbps"] == 330
        assert comparison["cluster_rack_units"] == 33
        assert 0.4 < comparison["density_ratio"] < 0.8

    def test_next_gen_form_factor_gain(self):
        # The 4-socket follow-up shrinks form factor ~4x (Sec. 8).
        assert discussion.next_gen_form_factor_gain() == pytest.approx(4.0)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            discussion.estimate_cluster(0)
