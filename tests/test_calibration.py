"""Calibration self-consistency: the derived constants must reproduce the
paper's published operating points (the anchors everything else rests on)."""

import pytest

from repro import calibration as cal
from repro.errors import ConfigurationError


def _rate_bps(cycles_per_packet, packet_bytes=64):
    pps = cal.NEHALEM_TOTAL_CYCLES_PER_SEC / cycles_per_packet
    return pps * packet_bytes * 8


class TestBatchingModel:
    @pytest.mark.parametrize("kp,kn,paper_gbps", [
        (1, 1, 1.46), (32, 1, 4.97), (32, 16, 9.77)])
    def test_table1_operating_points(self, kp, kn, paper_gbps):
        cycles = (cal.MINIMAL_FORWARDING.cpu_cycles(64)
                  + cal.bookkeeping_cycles(kp, kn))
        assert _rate_bps(cycles) / 1e9 == pytest.approx(paper_gbps,
                                                    rel=0.01)

    def test_base_matches_infinite_batching(self):
        # At infinite batch sizes only the application cost remains.
        assert cal.MINIMAL_FORWARDING.cpu_cycles(64) == pytest.approx(
            cal.BOOK_BASE_CYCLES, rel=0.001)

    def test_bookkeeping_monotone_in_batch_size(self):
        assert cal.bookkeeping_cycles(1, 1) > cal.bookkeeping_cycles(32, 1) \
            > cal.bookkeeping_cycles(32, 16)

    def test_bookkeeping_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            cal.bookkeeping_cycles(0, 1)
        with pytest.raises(ConfigurationError):
            cal.bookkeeping_cycles(1, 0)


class TestApplicationCosts:
    @pytest.mark.parametrize("app,paper_gbps", [
        (cal.MINIMAL_FORWARDING, 9.77),
        (cal.IP_ROUTING, 6.35),
        (cal.IPSEC, 1.40)])
    def test_64b_saturation_rates(self, app, paper_gbps):
        cycles = app.cpu_cycles(64) + cal.DEFAULT_BOOKKEEPING_CYCLES
        assert _rate_bps(cycles) / 1e9 == pytest.approx(paper_gbps,
                                                    rel=0.01)

    def test_forwarding_64b_mpps(self):
        cycles = (cal.MINIMAL_FORWARDING.cpu_cycles(64)
                  + cal.DEFAULT_BOOKKEEPING_CYCLES)
        mpps = cal.NEHALEM_TOTAL_CYCLES_PER_SEC / cycles / 1e6
        # Paper: 18.96 Mpps (9.7 Gbps quoted as 9.77 in Table 1).
        assert mpps == pytest.approx(19.0, abs=0.2)

    def test_cpu_scaling_ratio_1024_vs_64(self):
        # Sec 5.3 item 2: 1024 B costs 1.6x the CPU load of 64 B.
        book = cal.DEFAULT_BOOKKEEPING_CYCLES
        small = cal.MINIMAL_FORWARDING.cpu_cycles(64) + book
        large = cal.MINIMAL_FORWARDING.cpu_cycles(1024) + book
        assert large / small == pytest.approx(1.6, rel=0.01)

    def test_memory_scaling_ratio(self):
        ratio = (cal.MINIMAL_FORWARDING.mem_bytes(1024)
                 / cal.MINIMAL_FORWARDING.mem_bytes(64))
        assert ratio == pytest.approx(6.0, rel=0.01)

    def test_io_scaling_ratio(self):
        ratio = (cal.MINIMAL_FORWARDING.io_bytes(1024)
                 / cal.MINIMAL_FORWARDING.io_bytes(64))
        assert ratio == pytest.approx(11.0, rel=0.01)

    def test_routing_costs_exceed_forwarding(self):
        assert cal.IP_ROUTING.cpu_cycles(64) > cal.MINIMAL_FORWARDING.cpu_cycles(64)
        assert cal.IP_ROUTING.mem_bytes(64) > cal.MINIMAL_FORWARDING.mem_bytes(64)

    def test_ipsec_dominated_by_per_byte_cost(self):
        # Encryption scales with bytes: the 1500 B cost is mostly per-byte.
        cost = cal.IPSEC.cpu_cycles(1500)
        per_byte_part = cal.IPSEC.cpu_per_byte_cycles * 1500
        assert per_byte_part > 0.85 * (cost - cal.IPSEC.cpu_base_cycles)

    def test_table3_reported_values(self):
        assert cal.MINIMAL_FORWARDING.instructions_per_packet == 1033
        assert cal.IP_ROUTING.instructions_per_packet == 1512
        assert cal.IPSEC.instructions_per_packet == 14221
        assert cal.IPSEC.cycles_per_instruction == 0.55


class TestHardwareConstants:
    def test_cycle_budget(self):
        assert cal.NEHALEM_TOTAL_CYCLES_PER_SEC == pytest.approx(22.4e9)

    def test_nic_limits(self):
        assert cal.MAX_INPUT_BPS / 1e9 == pytest.approx(24.6)

    def test_max_nic_batch_from_pcie(self):
        # 256 B max payload / 16 B descriptor = 16 (Table 1 caption).
        assert cal.MAX_NIC_BATCH == 16

    def test_latency_decomposition(self):
        # 4 x 2.56 + 12.8 + 0.8 = 24 us (Sec. 6.2, rounded).
        assert cal.INPUT_NODE_LATENCY_USEC == pytest.approx(23.84)

    def test_abilene_ipsec_consistency(self):
        """The Abilene mean size and IPsec per-byte cost jointly give the
        paper's 4.45 Gbps Abilene IPsec rate."""
        mean = cal.ABILENE_MEAN_PACKET_BYTES
        cycles = cal.IPSEC.cpu_cycles(mean) + cal.DEFAULT_BOOKKEEPING_CYCLES
        rate = _rate_bps(cycles, mean)
        assert rate / 1e9 == pytest.approx(4.45, rel=0.01)
