"""Tests for traffic generation."""

import pytest

from repro import calibration as cal
from repro.errors import ConfigurationError
from repro.workloads import (
    AbileneTrace,
    FixedSizeWorkload,
    FlowGenerator,
    TrafficMatrix,
    permutation_matrix,
    uniform_matrix,
)
from repro.workloads.abilene import ABILENE_SIZE_MIX, mix_mean_bytes


class TestFixedSize:
    def test_all_packets_same_size(self):
        workload = FixedSizeWorkload(packet_bytes=128, num_flows=4)
        packets = list(workload.packets(20))
        assert len(packets) == 20
        assert all(p.length == 128 for p in packets)

    def test_flow_sequence_numbers_increase(self):
        workload = FixedSizeWorkload(num_flows=2)
        packets = list(workload.packets(6))
        flow0 = [p.flow_seq for p in packets[::2]]
        assert flow0 == [1, 2, 3]

    def test_deterministic(self):
        a = [p.ip.dst for p in FixedSizeWorkload(seed=5).packets(10)]
        b = [p.ip.dst for p in FixedSizeWorkload(seed=5).packets(10)]
        assert a == b

    def test_dst_pool(self):
        from repro.net import IPv4Address
        pool = [IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2")]
        workload = FixedSizeWorkload(num_flows=2, dst_pool=pool)
        dsts = {str(p.ip.dst) for p in workload.packets(4)}
        assert dsts == {"1.1.1.1", "2.2.2.2"}

    def test_rejects_tiny_packets(self):
        with pytest.raises(ConfigurationError):
            FixedSizeWorkload(packet_bytes=32)

    def test_rejects_negative_count(self):
        workload = FixedSizeWorkload()
        with pytest.raises(ValueError):
            list(workload.packets(-1))


class TestAbilene:
    def test_size_mix_sums_to_one(self):
        assert sum(w for _, w in ABILENE_SIZE_MIX) == pytest.approx(1.0)

    def test_mix_mean_matches_calibration(self):
        assert mix_mean_bytes() == pytest.approx(
            cal.ABILENE_MEAN_PACKET_BYTES, rel=0.005)

    def test_empirical_mean_converges(self):
        trace = AbileneTrace(seed=1)
        sizes = [p.length for p in trace.packets(20000)]
        mean = sum(sizes) / len(sizes)
        assert mean == pytest.approx(cal.ABILENE_MEAN_PACKET_BYTES, rel=0.03)

    def test_sizes_come_from_mix(self):
        trace = AbileneTrace(seed=2)
        allowed = {size for size, _ in ABILENE_SIZE_MIX}
        assert {p.length for p in trace.packets(500)} <= allowed

    def test_flows_have_increasing_seq(self):
        trace = AbileneTrace(num_flows=3, seed=3)
        seen = {}
        for packet in trace.packets(300):
            key = packet.five_tuple()
            if key in seen:
                assert packet.flow_seq == seen[key] + 1
            seen[key] = packet.flow_seq

    def test_timed_packets_rate(self):
        trace = AbileneTrace(seed=4)
        events = list(trace.timed_packets(5000, rate_bps=10e9))
        total_bits = sum(p.length * 8 for _, p in events)
        duration = events[-1][0]
        assert total_bits / duration == pytest.approx(10e9, rel=0.1)

    def test_timed_packets_monotone(self):
        trace = AbileneTrace(seed=5)
        times = [t for t, _ in trace.timed_packets(200, rate_bps=1e9)]
        assert times == sorted(times)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            AbileneTrace(num_flows=0)
        with pytest.raises(ConfigurationError):
            AbileneTrace(mean_flow_packets=0.5)
        with pytest.raises(ConfigurationError):
            AbileneTrace(elephant_fraction=1.0)


class TestMatrices:
    def test_uniform_row_sums(self):
        matrix = uniform_matrix(8, 10e9)
        for i in range(8):
            assert matrix.row_sum(i) == pytest.approx(10e9)
            assert matrix.col_sum(i) == pytest.approx(10e9)
        assert matrix.is_admissible(10e9)

    def test_permutation_admissible(self):
        matrix = permutation_matrix(6, 10e9, shift=2)
        assert matrix.is_admissible(10e9)
        assert matrix.demands[0][2] == 10e9

    def test_permutation_rejects_identity_shift(self):
        with pytest.raises(ConfigurationError):
            permutation_matrix(4, 10e9, shift=4)

    def test_scaled(self):
        matrix = uniform_matrix(4, 10e9).scaled(0.5)
        assert matrix.row_sum(0) == pytest.approx(5e9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            TrafficMatrix([[0, 1, 2], [1, 0, 2]])
        with pytest.raises(ConfigurationError):
            TrafficMatrix([[0, -1], [1, 0]])


class TestFlowGenerator:
    def test_packet_counts(self):
        gen = FlowGenerator(num_flows=5, packets_per_flow=10)
        events = list(gen.timed_packets())
        assert len(events) == 50

    def test_times_sorted(self):
        gen = FlowGenerator(num_flows=5, packets_per_flow=10, seed=2)
        times = [t for t, _ in gen.timed_packets()]
        assert times == sorted(times)

    def test_per_flow_seq_in_arrival_order(self):
        gen = FlowGenerator(num_flows=3, packets_per_flow=20, seed=3)
        last = {}
        for _, packet in gen.timed_packets():
            key = packet.five_tuple()
            assert packet.flow_seq == last.get(key, 0) + 1
            last[key] = packet.flow_seq

    def test_bursty_structure(self):
        gen = FlowGenerator(num_flows=1, packets_per_flow=16, burst_size=8,
                            burst_gap_sec=1e-3, intra_burst_gap_sec=1e-6,
                            seed=4)
        times = [t for t, _ in gen.timed_packets()]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # 14 small intra-burst gaps and 1 big inter-burst gap.
        assert sum(1 for g in gaps if g > 1e-4) == 1

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            FlowGenerator(num_flows=0)
        with pytest.raises(ConfigurationError):
            FlowGenerator(burst_size=0)
