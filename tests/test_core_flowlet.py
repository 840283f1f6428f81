"""Tests for flowlet tracking and MAC encoding (Sec. 6.1)."""

import pytest

from repro.core import FlowletTable, decode_output_node, encode_output_node
from repro.core.mac_encoding import mac_trick_feasible, rx_queues_needed
from repro.errors import ConfigurationError
from repro.net import FiveTuple, IPv4Address, Packet


def _flow(i=0):
    return FiveTuple(IPv4Address(10 + i), IPv4Address(20 + i), 17, 1000 + i, 80)


class TestFlowletTable:
    def test_same_flowlet_same_path(self):
        table = FlowletTable(delta_sec=0.1)
        paths = [table.assign(_flow(), t, lambda p: True, lambda: 1)
                 for t in (0.0, 0.01, 0.02)]
        assert paths == [1, 1, 1]
        assert table.spills == 0

    def test_gap_allows_switch(self):
        table = FlowletTable(delta_sec=0.1)
        sequence = iter([1, 2])
        table.assign(_flow(), 0.0, lambda p: True, lambda: next(sequence))
        path = table.assign(_flow(), 0.2, lambda p: True,
                            lambda: next(sequence))
        assert path == 2
        assert table.switches == 1
        assert table.spills == 0

    def test_saturated_path_spills(self):
        table = FlowletTable(delta_sec=0.1)
        table.assign(_flow(), 0.0, lambda p: True, lambda: 1)
        path = table.assign(_flow(), 0.01, lambda p: False, lambda: 2)
        assert path == 2
        assert table.spills == 1

    def test_distinct_flows_tracked_separately(self):
        table = FlowletTable(delta_sec=0.1)
        table.assign(_flow(0), 0.0, lambda p: True, lambda: 1)
        table.assign(_flow(1), 0.0, lambda p: True, lambda: 2)
        assert len(table) == 2
        assert table.assign(_flow(0), 0.01, lambda p: True, lambda: 9) == 1
        assert table.assign(_flow(1), 0.01, lambda p: True, lambda: 9) == 2

    def test_time_cannot_run_backwards(self):
        table = FlowletTable()
        table.assign(_flow(), 1.0, lambda p: True, lambda: 1)
        with pytest.raises(ConfigurationError):
            table.assign(_flow(), 0.5, lambda p: True, lambda: 1)

    def test_eviction_caps_table(self):
        table = FlowletTable(delta_sec=0.01, max_entries=4)
        for i in range(10):
            table.assign(_flow(i), i * 1.0, lambda p: True, lambda: 1)
        assert len(table) <= 4

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            FlowletTable(delta_sec=0)
        with pytest.raises(ConfigurationError):
            FlowletTable(max_entries=0)


class TestMacEncoding:
    def test_round_trip(self):
        packet = Packet.udp("1.1.1.1", "2.2.2.2")
        encode_output_node(packet, 3, max_nodes=4)
        assert decode_output_node(packet) == 3

    def test_out_of_range(self):
        packet = Packet.udp("1.1.1.1", "2.2.2.2")
        with pytest.raises(ConfigurationError):
            encode_output_node(packet, 4, max_nodes=4)

    def test_feasibility_limit(self):
        # Sec. 6.1: "not applicable to a router with more than 64 or so
        # external ports" with current NICs.
        assert mac_trick_feasible(64)
        assert not mac_trick_feasible(65)

    def test_rx_queues_needed(self):
        assert rx_queues_needed(4) == 4
        with pytest.raises(ConfigurationError):
            rx_queues_needed(0)
