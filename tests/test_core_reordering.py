"""Tests for the reordering metric (Sec. 6.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReorderingMeter
from repro.net import FiveTuple, IPv4Address, Packet


def _flow(i=0):
    return FiveTuple(IPv4Address(1 + i), IPv4Address(2), 6, 10, 80)


class TestReorderedSequences:
    def test_paper_example(self):
        # <p1, p4, p2, p3, p5>: one reordered sequence (<p2, p3>).
        assert ReorderingMeter.reordered_sequences([1, 4, 2, 3, 5]) == 1

    def test_in_order_counts_zero(self):
        assert ReorderingMeter.reordered_sequences([1, 2, 3, 4, 5]) == 0

    def test_two_separate_displacements(self):
        # p2 displaced, then later p5 displaced: two sequences.
        assert ReorderingMeter.reordered_sequences([1, 3, 2, 4, 6, 5]) == 2

    def test_fully_reversed(self):
        assert ReorderingMeter.reordered_sequences([5, 4, 3, 2, 1]) == 1

    def test_empty_and_single(self):
        assert ReorderingMeter.reordered_sequences([]) == 0
        assert ReorderingMeter.reordered_sequences([1]) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                    max_size=50, unique=True))
    def test_sorted_input_never_reordered(self, seqs):
        assert ReorderingMeter.reordered_sequences(sorted(seqs)) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(1, 12))))
    def test_count_bounded_by_displacements(self, seqs):
        count = ReorderingMeter.reordered_sequences(list(seqs))
        displaced = sum(1 for i, s in enumerate(seqs)
                        if s <= max(seqs[:i], default=0))
        assert 0 <= count <= displaced


def _two_pass_reference(seqs):
    """Reordered sequences in one flow's whole egress order: the loop
    the meter ran over every stored order at the end of a run, before it
    folded online."""
    reordered = 0
    max_seen = 0
    in_reordered_run = False
    for seq in seqs:
        if seq > max_seen:
            max_seen = seq
            in_reordered_run = False
        elif not in_reordered_run:
            reordered += 1
            in_reordered_run = True
    return reordered


class TestOnlineFold:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=40),
           st.integers(min_value=0, max_value=40))
    def test_matches_the_two_pass_count_however_it_is_fed(self, seqs, cut):
        whole, split, by_packet = (ReorderingMeter() for _ in range(3))
        whole.observe_sequence(_flow(), seqs)
        split.observe_sequence(_flow(), seqs[:cut])
        split.observe_sequence(_flow(), seqs[cut:])
        for seq in seqs:
            packet = Packet.udp("1.0.0.1", "2.0.0.2", src_port=5)
            packet.flow_seq = seq
            by_packet.observe(packet)
        reordered = _two_pass_reference(seqs)
        assert ReorderingMeter.reordered_sequences(seqs) == reordered
        for meter in (whole, split, by_packet):
            assert (meter.reordered_count(), meter.packets_observed()) \
                == (reordered, len(seqs))


class TestMeter:
    def test_observe_packets(self):
        meter = ReorderingMeter()
        for seq in (1, 3, 2):
            packet = Packet.udp("1.0.0.1", "2.0.0.2", src_port=5)
            packet.flow_seq = seq
            meter.observe(packet)
        assert meter.packets_observed() == 3
        assert meter.reordered_fraction() == pytest.approx(1 / 3)

    def test_multiple_flows_aggregate(self):
        meter = ReorderingMeter()
        meter.observe_sequence(_flow(0), [1, 2, 3, 4])     # in order
        meter.observe_sequence(_flow(1), [1, 3, 2, 4])     # one reorder
        assert meter.reordered_fraction() == pytest.approx(1 / 8)

    def test_no_packets(self):
        assert ReorderingMeter().reordered_fraction() == 0.0
