"""Tests for trace characterization."""

import pytest

from repro import calibration as cal
from repro.analysis.trace_report import characterize, characterize_pcap
from repro.errors import ConfigurationError
from repro.net import Packet
from repro.workloads import AbileneTrace, FlowGenerator
from repro.workloads.pcapio import save_trace


class TestCharacterize:
    def test_basic_counts(self):
        pairs = [(i * 1e-5, Packet.udp("10.0.0.1", "10.0.0.2", length=100))
                 for i in range(10)]
        report = characterize(pairs)
        assert report.packets == 10
        assert report.total_bytes == 1000
        assert report.mean_bytes == 100
        assert report.flow_count == 1
        assert report.mean_flow_packets == 10

    def test_rate(self):
        pairs = [(i * 1e-3, Packet.udp("1.1.1.1", "2.2.2.2", length=125))
                 for i in range(11)]
        report = characterize(pairs)
        # 10 ms window carrying 11 * 1000 bits.
        assert report.rate_bps == pytest.approx(1.1e6, rel=0.01)

    def test_abilene_mean_matches_calibration(self):
        trace = AbileneTrace(seed=1)
        report = characterize(trace.timed_packets(8000, rate_bps=10e9))
        assert report.mean_bytes == pytest.approx(
            cal.ABILENE_MEAN_PACKET_BYTES, rel=0.05)

    def test_imix_size_shares(self):
        # The simple IMIX: 7 x 64 B, 4 x 570 B, 1 x 1518 B.
        sizes = ([64] * 7 + [570] * 4 + [1518]) * 500
        pairs = [(i * 1e-6, Packet.udp("10.0.0.1", "10.0.0.2", length=size))
                 for i, size in enumerate(sizes)]
        shares = characterize(pairs).size_shares()
        assert shares[64] == pytest.approx(7 / 12)
        assert shares[570] == pytest.approx(4 / 12)
        assert shares[1518] == pytest.approx(1 / 12)

    def test_bursty_flows_have_high_cv(self):
        gen = FlowGenerator(num_flows=5, packets_per_flow=100,
                            burst_size=8, burst_gap_sec=1e-3,
                            intra_burst_gap_sec=1e-6, seed=3)
        bursty = characterize(gen.timed_packets())
        assert bursty.burstiness() > 1.5

    def test_rejects_time_reversal(self):
        pairs = [(1.0, Packet.udp("1.1.1.1", "2.2.2.2")),
                 (0.5, Packet.udp("1.1.1.1", "2.2.2.2"))]
        with pytest.raises(ConfigurationError):
            characterize(pairs)

    def test_burstiness_needs_gaps(self):
        report = characterize([(0.0, Packet.udp("1.1.1.1", "2.2.2.2"))])
        with pytest.raises(ConfigurationError):
            report.burstiness()


class TestPcapCharacterization:
    def test_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "c.pcap")
        trace = AbileneTrace(seed=4)
        save_trace(path, trace.timed_packets(500, rate_bps=5e9))
        report = characterize_pcap(path)
        assert report.packets == 500
        assert report.rate_bps == pytest.approx(5e9, rel=0.25)
        assert report.flow_count > 10
