"""Tests for the output-node resequencer (the rejected Sec. 6.1 option)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resequencer import Resequencer
from repro.errors import ConfigurationError
from repro.net import Packet


def _packet(seq):
    packet = Packet.udp("1.0.0.1", "2.0.0.2", src_port=7)
    packet.flow_seq = seq
    return packet


class TestResequencer:
    def test_in_order_passthrough(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq))
        for seq in (1, 2, 3):
            reseq.offer("f", _packet(seq), now=seq * 1e-6)
        assert out == [1, 2, 3]
        assert reseq.held == 0

    def test_reordered_arrivals_released_in_order(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq))
        for i, seq in enumerate([1, 4, 2, 3, 5]):
            reseq.offer("f", _packet(seq), now=i * 1e-6)
        assert out == [1, 2, 3, 4, 5]
        assert reseq.held == 1  # p4 waited

    def test_gap_holds_until_fill(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq))
        reseq.offer("f", _packet(2), now=0.0)
        assert out == []
        assert reseq.pending() == 1
        reseq.offer("f", _packet(1), now=1e-6)
        assert out == [1, 2]
        assert reseq.pending() == 0

    def test_timeout_flushes(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq),
                            timeout_sec=1e-3)
        reseq.offer("f", _packet(3), now=0.0)
        assert reseq.expire(0.5e-3) == 0      # not yet
        assert reseq.expire(2e-3) == 1        # flushed
        assert out == [3]
        assert reseq.timed_out == 1

    def test_straggler_after_flush_delivered(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq),
                            timeout_sec=1e-3)
        reseq.offer("f", _packet(2), now=0.0)
        reseq.expire(2e-3)
        reseq.offer("f", _packet(1), now=3e-3)  # late predecessor
        assert out == [2, 1]

    def test_flows_independent(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq))
        reseq.offer("a", _packet(2), now=0.0)
        reseq.offer("b", _packet(1), now=0.0)
        assert out == [1]  # flow b unaffected by a's gap

    def test_buffer_cap_flushes(self):
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq),
                            max_buffer=3)
        for seq in (5, 4, 3):
            reseq.offer("f", _packet(seq), now=0.0)
        # Fourth held packet triggers a flush of the backlog.
        reseq.offer("f", _packet(7), now=0.0)
        assert out == [3, 4, 5]
        assert reseq.pending() == 1  # p7 still waiting for p6

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            Resequencer(deliver=lambda p: None, timeout_sec=0)
        with pytest.raises(ConfigurationError):
            Resequencer(deliver=lambda p: None, max_buffer=0)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(1, 15))))
    def test_any_permutation_is_restored(self, seqs):
        """Property: without timeouts, any arrival order of a complete
        sequence is delivered fully sorted."""
        out = []
        reseq = Resequencer(deliver=lambda p: out.append(p.flow_seq))
        for i, seq in enumerate(seqs):
            reseq.offer("f", _packet(seq), now=i * 1e-9)
        assert out == sorted(seqs)
        assert reseq.pending() == 0


class TestRouterIntegration:
    def test_resequencing_eliminates_reordering(self):
        from repro.core import RouteBricksRouter
        from repro.workloads import FlowGenerator

        def gen():
            # Heavy enough to saturate the direct path and force balancing.
            return FlowGenerator(num_flows=60, packets_per_flow=240,
                                 packet_bytes=740, burst_size=8,
                                 burst_gap_sec=1e-4,
                                 intra_burst_gap_sec=4e-7, seed=1)

        plain = RouteBricksRouter(use_flowlets=False, seed=3).replay_pair(
            gen().timed_packets())
        reseq = RouteBricksRouter(use_flowlets=False, resequence=True,
                                  seed=3).replay_pair(gen().timed_packets())
        assert plain.reordered_fraction > 0.01
        assert reseq.reordered_fraction == 0.0
        assert reseq.delivered_packets == plain.delivered_packets
        assert reseq.resequencer_held > 0
