"""Tests for the single-server performance model (Tables 1-3, Figs 6-10)."""

import pytest

from repro import calibration as cal
from repro.costs import per_packet_vector
from repro.errors import ConfigurationError
from repro.hw.presets import NEHALEM, NEHALEM_NEXT_GEN, XEON_SHARED_BUS
from repro.perfmodel import (
    ServerConfig,
    batching_rate_bps,
    batching_sweep,
    bounds_for,
    max_loss_free_rate,
    project_rates,
    projected_abilene_forwarding_bps,
    scenario_rate_gbps,
)
from repro.perfmodel.scenarios import fig7_configurations
from repro.workloads import WorkloadSpec


class TestThroughputSolver:
    @pytest.mark.parametrize("app,paper_gbps", [
        ("forwarding", 9.77), ("routing", 6.35), ("ipsec", 1.40)])
    def test_fig8_64b_rates(self, app, paper_gbps):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=cal.APPLICATIONS[app]))
        assert result.rate_gbps == pytest.approx(paper_gbps, rel=0.01)
        assert result.bottleneck == "cpu"

    def test_fig8_abilene_nic_limited(self):
        for app in ("forwarding", "routing"):
            result = max_loss_free_rate(WorkloadSpec.fixed(
                cal.ABILENE_MEAN_PACKET_BYTES, app=cal.APPLICATIONS[app]))
            assert result.rate_gbps == pytest.approx(24.6, rel=0.01)
            assert result.bottleneck == "nic"

    def test_fig8_abilene_ipsec(self):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(cal.ABILENE_MEAN_PACKET_BYTES, app=cal.IPSEC))
        assert result.rate_gbps == pytest.approx(4.45, rel=0.01)
        assert result.bottleneck == "cpu"

    def test_large_packets_nic_limited(self):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(1024, app=cal.MINIMAL_FORWARDING))
        assert result.bottleneck == "nic"
        assert result.rate_gbps == pytest.approx(24.6, rel=0.01)

    def test_rate_monotone_in_packet_size(self):
        rates = [max_loss_free_rate(
            WorkloadSpec.fixed(p, app=cal.MINIMAL_FORWARDING)).rate_bps
                 for p in (64, 128, 256, 512, 1024)]
        assert rates == sorted(rates)

    def test_pps_monotone_decreasing_in_packet_size(self):
        pps = [max_loss_free_rate(
            WorkloadSpec.fixed(p, app=cal.MINIMAL_FORWARDING)).rate_pps
               for p in (64, 128, 256, 512, 1024)]
        assert pps == sorted(pps, reverse=True)

    def test_unlimited_nic_exceeds_limited(self):
        spec_1024 = WorkloadSpec.fixed(1024, app=cal.MINIMAL_FORWARDING)
        limited = max_loss_free_rate(spec_1024)
        free = max_loss_free_rate(spec_1024, nic_limited=False)
        assert free.rate_bps > limited.rate_bps

    def test_invalid_packet_size(self):
        with pytest.raises(ConfigurationError):
            max_loss_free_rate(
                WorkloadSpec.fixed(0, app=cal.MINIMAL_FORWARDING))

    def test_utilization_at_bottleneck_is_one(self):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=cal.MINIMAL_FORWARDING))
        utils = result.utilization_at(result.rate_pps)
        assert utils[result.bottleneck] == pytest.approx(1.0)
        assert all(u <= 1.0 + 1e-9 for u in utils.values())


class TestBatching:
    def test_table1(self):
        rows = batching_sweep()
        measured = {(r["kp"], r["kn"]): r["rate_gbps"] for r in rows}
        assert measured[(1, 1)] == pytest.approx(1.46, rel=0.01)
        assert measured[(32, 1)] == pytest.approx(4.97, rel=0.01)
        assert measured[(32, 16)] == pytest.approx(9.77, rel=0.01)

    def test_rate_monotone_in_batch_sizes(self):
        assert batching_rate_bps(1, 1) < batching_rate_bps(32, 1) \
            < batching_rate_bps(32, 16)

    def test_kn_capped_by_pcie(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(kn=17)


class TestScenarios:
    def test_fig6_paper_anchors(self):
        assert scenario_rate_gbps("parallel") == pytest.approx(1.7, abs=0.05)
        assert scenario_rate_gbps("pipeline") == pytest.approx(1.2, abs=0.05)
        assert scenario_rate_gbps("pipeline_cross_cache") == pytest.approx(
            0.6, abs=0.05)
        assert scenario_rate_gbps("overlap") == pytest.approx(0.7, abs=0.05)

    def test_parallel_beats_pipeline(self):
        assert scenario_rate_gbps("parallel") > scenario_rate_gbps("pipeline")
        assert scenario_rate_gbps("pipeline") > scenario_rate_gbps(
            "pipeline_cross_cache")

    def test_multi_queue_fixes_split(self):
        # Fig 6: (d) achieves more than 3x the rate of (c).
        ratio = (scenario_rate_gbps("split_multi_queue")
                 / scenario_rate_gbps("split"))
        assert ratio > 3.0

    def test_multi_queue_fixes_overlap(self):
        assert scenario_rate_gbps("overlap_multi_queue") == pytest.approx(
            scenario_rate_gbps("parallel"))

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario_rate_gbps("bogus")


class TestFig7:
    def test_ordering(self):
        rows = fig7_configurations()
        rates = [row["rate_mpps"] for row in rows]
        assert rates == sorted(rates)

    def test_xeon_gap(self):
        rows = {r["label"]: r for r in fig7_configurations()}
        final = rows["nehalem/multi-queue/batching"]["rate_mpps"]
        xeon = rows["xeon/single-queue/no-batching"]["rate_mpps"]
        # Paper: 11x improvement over the shared-bus Xeon.
        assert 9 < final / xeon < 14

    def test_unmodified_nehalem_gap(self):
        rows = {r["label"]: r for r in fig7_configurations()}
        final = rows["nehalem/multi-queue/batching"]["rate_mpps"]
        base = rows["nehalem/single-queue/no-batching"]["rate_mpps"]
        # Paper: 6.7x improvement from multi-queue + batching.
        assert 5.5 < final / base < 8.5

    def test_nehalem_beats_xeon_unmodified(self):
        rows = {r["label"]: r for r in fig7_configurations()}
        ratio = (rows["nehalem/single-queue/no-batching"]["rate_mpps"]
                 / rows["xeon/single-queue/no-batching"]["rate_mpps"])
        # Paper: the new architecture alone is a 2-3x improvement.
        assert 1.5 < ratio < 3.5


class TestProjections:
    def test_next_gen_rates(self):
        results = project_rates()
        assert results["forwarding"].rate_gbps == pytest.approx(38.8, rel=0.05)
        assert results["routing"].rate_gbps == pytest.approx(19.9, rel=0.05)
        assert results["ipsec"].rate_gbps == pytest.approx(5.8, rel=0.05)

    def test_routing_turns_memory_bound(self):
        # The paper's key scaling insight: 4x CPU but 2x memory makes the
        # routing workload memory-bound on the next-gen server.
        results = project_rates()
        assert results["routing"].bottleneck == "memory"
        assert results["forwarding"].bottleneck == "cpu"

    def test_abilene_what_if(self):
        rate_gbps = projected_abilene_forwarding_bps() / 1e9
        # Paper estimates ~70 Gbps; we land in the same regime.
        assert 60 < rate_gbps < 90

    def test_what_if_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            projected_abilene_forwarding_bps(io_nominal_fraction=0)


class TestBounds:
    def test_table2_values(self):
        bounds = bounds_for(NEHALEM)
        assert bounds["memory"].nominal == pytest.approx(410e9)
        assert bounds["memory"].empirical == pytest.approx(262e9)
        assert bounds["io"].empirical == pytest.approx(117e9)
        assert bounds["pcie"].empirical == pytest.approx(50.8e9)

    def test_per_packet_bound_scales_inversely(self):
        bound = bounds_for(NEHALEM)["memory"]
        assert bound.per_packet_bound(2e6) == pytest.approx(
            bound.per_packet_bound(1e6) / 2)

    def test_xeon_has_fsb_bound(self):
        assert "fsb" in bounds_for(XEON_SHARED_BUS)

    def test_bound_rejects_bad_rate(self):
        bound = bounds_for(NEHALEM)["cpu"]
        with pytest.raises(ValueError):
            bound.per_packet_bound(0)


class TestLoads:
    def test_loads_positive(self):
        loads = per_packet_vector(cal.IP_ROUTING, 64)
        assert loads.cpu_cycles > 0
        assert loads.mem_bytes > 0
        assert loads.io_bytes > 0

    def test_single_queue_costs_more(self):
        multi = per_packet_vector(cal.MINIMAL_FORWARDING, 64,
                                  ServerConfig(multi_queue=True))
        single = per_packet_vector(cal.MINIMAL_FORWARDING, 64,
                                   ServerConfig(multi_queue=False))
        assert single.cpu_cycles > multi.cpu_cycles

    def test_xeon_cpi_inflation(self):
        plain = per_packet_vector(cal.MINIMAL_FORWARDING, 64, spec=NEHALEM)
        xeon = per_packet_vector(cal.MINIMAL_FORWARDING, 64,
                                 spec=XEON_SHARED_BUS)
        assert xeon.cpu_cycles == pytest.approx(
            plain.cpu_cycles * cal.XEON_CPI_FACTOR)

    def test_scaled(self):
        loads = per_packet_vector(cal.MINIMAL_FORWARDING, 64)
        doubled = loads.scaled(2)
        assert doubled.cpu_cycles == pytest.approx(2 * loads.cpu_cycles)

    def test_next_gen_spec_has_higher_cpu_limit(self):
        spec_64 = WorkloadSpec.fixed(64, app=cal.MINIMAL_FORWARDING)
        small = max_loss_free_rate(spec_64, nic_limited=False)
        big = max_loss_free_rate(spec_64, spec=NEHALEM_NEXT_GEN,
                                 nic_limited=False)
        assert big.rate_bps > 3 * small.rate_bps
