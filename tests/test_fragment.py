"""Tests for IPv4 fragmentation and reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketError
from repro.net import Packet
from repro.net.fragment import (
    FLAG_DF,
    FLAG_MF,
    Reassembler,
    fragment_packet,
)


def _big_packet(payload_bytes=3000, ident=42):
    payload = bytes(range(256)) * (payload_bytes // 256 + 1)
    packet = Packet.udp("10.0.0.1", "10.0.0.2",
                        length=14 + 20 + 8 + payload_bytes,
                        payload=payload[:payload_bytes])
    packet.ip.identification = ident
    return packet


class TestFragmentation:
    def test_small_packet_unchanged(self):
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=200)
        assert fragment_packet(packet, mtu=1500) == [packet]

    def test_fragment_sizes_and_offsets(self):
        packet = _big_packet(3000)
        fragments = fragment_packet(packet, mtu=1500)
        assert len(fragments) >= 3
        # All but the last carry MF; offsets are contiguous 8-byte units.
        offset = 0
        for index, fragment in enumerate(fragments):
            assert fragment.ip.fragment_offset == offset // 8
            payload_len = fragment.ip.total_length - 20
            if index < len(fragments) - 1:
                assert fragment.ip.flags & FLAG_MF
                assert payload_len % 8 == 0
            offset += payload_len
        assert not fragments[-1].ip.flags & FLAG_MF

    def test_total_payload_preserved(self):
        packet = _big_packet(2900)
        fragments = fragment_packet(packet, mtu=1000)
        total = sum(f.ip.total_length - 20 for f in fragments)
        assert total == packet.ip.total_length - 20

    def test_df_raises(self):
        packet = _big_packet(3000)
        packet.ip.flags = FLAG_DF
        with pytest.raises(PacketError):
            fragment_packet(packet, mtu=1500)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(PacketError):
            fragment_packet(_big_packet(), mtu=60)

    def test_ident_copied(self):
        fragments = fragment_packet(_big_packet(3000, ident=77), mtu=1500)
        assert all(f.ip.identification == 77 for f in fragments)


class TestReassembly:
    def test_round_trip(self):
        packet = _big_packet(2500)
        original_bytes = packet.pack()[34:]
        reassembler = Reassembler()
        fragments = fragment_packet(packet, mtu=900)
        whole = None
        for fragment in fragments:
            whole = reassembler.offer(fragment)
        assert whole is not None
        assert whole.payload == original_bytes[:len(whole.payload)]
        assert whole.ip.total_length == packet.ip.total_length
        assert reassembler.completed == 1
        assert reassembler.pending() == 0

    def test_out_of_order_reassembly(self):
        packet = _big_packet(2500)
        fragments = fragment_packet(packet, mtu=900)
        reassembler = Reassembler()
        whole = None
        for fragment in reversed(fragments):
            whole = reassembler.offer(fragment) or whole
        assert whole is not None

    def test_missing_fragment_stays_pending(self):
        fragments = fragment_packet(_big_packet(2500), mtu=900)
        reassembler = Reassembler()
        for fragment in fragments[:-1]:
            assert reassembler.offer(fragment) is None or \
                fragment is fragments[0]
        # Last fragment never arrives.
        assert reassembler.pending() == 1

    def test_unfragmented_passthrough(self):
        reassembler = Reassembler()
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=100)
        assert reassembler.offer(packet) is packet

    def test_interleaved_flows(self):
        a = fragment_packet(_big_packet(2000, ident=1), mtu=800)
        b = fragment_packet(_big_packet(2000, ident=2), mtu=800)
        reassembler = Reassembler()
        done = []
        for fa, fb in zip(a, b):
            for fragment in (fa, fb):
                result = reassembler.offer(fragment)
                if result is not None:
                    done.append(result)
        assert len(done) == 2
        assert {p.ip.identification for p in done} == {1, 2}

    def test_timeout_expiry(self):
        fragments = fragment_packet(_big_packet(2500), mtu=900)
        reassembler = Reassembler(timeout_sec=1.0)
        reassembler.offer(fragments[0], now=0.0)
        assert reassembler.expire(now=0.5) == 0
        assert reassembler.expire(now=2.0) == 1
        assert reassembler.timed_out == 1

class TestFragmentProperties:
    @settings(max_examples=25, deadline=None)
    @given(payload=st.integers(min_value=100, max_value=4000),
           mtu=st.integers(min_value=96, max_value=1500))
    def test_fragment_reassemble_property(self, payload, mtu):
        packet = _big_packet(payload)
        fragments = fragment_packet(packet, mtu=mtu)
        reassembler = Reassembler()
        whole = None
        for fragment in fragments:
            result = reassembler.offer(fragment)
            if result is not None:
                whole = result
        assert whole is not None
        assert whole.ip.total_length == packet.ip.total_length
