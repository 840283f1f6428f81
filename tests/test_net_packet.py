"""Tests for the Packet object and flow identification."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketError
from repro.net import FiveTuple, IPv4Address, MACAddress, Packet, rss_hash
from repro.net.flows import queue_for_flow
from repro.net.headers import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.obs.trace import TRACE_ANNOTATION, PathTrace
from repro.workloads.cluster_traffic import matrix_events
from repro.workloads.matrices import uniform_matrix


class TestPacketConstruction:
    def test_udp_factory(self):
        packet = Packet.udp("10.0.0.1", "10.0.0.2", length=128,
                            src_port=5000, dst_port=80)
        assert packet.length == 128
        assert packet.ip.proto == PROTO_UDP
        assert packet.ip.total_length == 128 - 14

    def test_tcp_factory(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", length=64, seq=77)
        assert packet.ip.proto == PROTO_TCP
        assert packet.l4.seq == 77

    def test_rejects_tiny_frame(self):
        with pytest.raises(PacketError):
            Packet(length=10)

    def test_packet_ids_unique(self):
        a = Packet.udp("1.1.1.1", "2.2.2.2")
        b = Packet.udp("1.1.1.1", "2.2.2.2")
        assert a.packet_id != b.packet_id


class TestPacketSerialization:
    def test_pack_pads_to_frame_length(self):
        packet = Packet.udp("10.0.0.1", "10.0.0.2", length=64)
        assert len(packet.pack()) == 64

    def test_pack_unpack_round_trip(self):
        packet = Packet.udp("10.9.8.7", "1.2.3.4", length=200,
                            src_port=1111, dst_port=2222)
        again = Packet.unpack(packet.pack())
        assert again.ip.src == packet.ip.src
        assert again.ip.dst == packet.ip.dst
        assert again.l4.src_port == 1111
        assert again.l4.dst_port == 2222
        assert again.length == 200

    def test_pack_rejects_overflow(self):
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=64,
                            payload=b"x" * 200)
        with pytest.raises(PacketError):
            packet.pack()

    def test_copy_preserves_headers_fresh_identity(self):
        packet = Packet.udp("3.3.3.3", "4.4.4.4", length=100)
        packet.flow_seq = 9
        # A marked fragment: every IP field survives a Tee, not a subset.
        packet.ip.dscp, packet.ip.flags = 46, 1
        packet.ip.fragment_offset, packet.ip.identification = 185, 777
        clone = packet.copy()
        assert clone.packet_id != packet.packet_id
        assert clone.ip == packet.ip and clone.ip is not packet.ip
        assert clone.eth == packet.eth and clone.eth is not packet.eth
        assert clone.flow_seq == 9
        # The clone owns its L4 header: rewriting its ports (a NAT on
        # one Tee branch) leaves the original's alone.
        assert clone.l4 == packet.l4
        clone.l4.src_port = 4321
        assert packet.l4.src_port == 1024
        assert Packet(64).copy().ip is None


class TestFlowKeyStamp:
    """A generated packet carries its flow's key; a copy or a wire
    decode drops the stamp and derives the key from its headers."""

    def _stamped(self):
        _, _, _, packet = next(matrix_events(uniform_matrix(2, 1e9), 1e-3,
                                             seed=1))
        assert packet.flow_key is not None
        return packet

    def test_copy_reports_its_rewritten_port(self):
        packet = self._stamped()
        clone = packet.copy()
        clone.l4.src_port = 4321
        assert clone.five_tuple().src_port == 4321
        assert packet.five_tuple().src_port == packet.l4.src_port != 4321

    def test_wire_round_trip_gives_an_equal_key(self):
        packet = self._stamped()
        for decoded in (Packet.from_wire(packet.to_wire()),
                        pickle.loads(pickle.dumps(packet))):
            assert decoded.flow_key is None
            assert decoded.five_tuple() == packet.five_tuple()


class TestFlows:
    def test_five_tuple_extraction(self):
        packet = Packet.udp("10.0.0.1", "10.0.0.2", src_port=5,
                            dst_port=6)
        ft = packet.five_tuple()
        assert ft == FiveTuple(IPv4Address("10.0.0.1"),
                               IPv4Address("10.0.0.2"), PROTO_UDP, 5, 6)

    def test_five_tuple_requires_ip(self):
        packet = Packet(length=64)
        with pytest.raises(PacketError):
            packet.five_tuple()

    def test_rss_hash_deterministic(self):
        ft = FiveTuple(IPv4Address("9.9.9.9"), IPv4Address("8.8.8.8"),
                       17, 53, 53)
        assert rss_hash(ft) == rss_hash(ft)

    def test_rss_hash_spreads_flows(self):
        counts = [0] * 8
        for port in range(4096):
            ft = FiveTuple(IPv4Address(port), IPv4Address(port * 7 + 1),
                           6, port & 0xFFFF, (port * 3) & 0xFFFF)
            counts[queue_for_flow(ft, 8)] += 1
        # Uniform would be 512 per queue; allow generous slack.
        assert min(counts) > 380
        assert max(counts) < 650

    def test_queue_for_flow_range(self):
        ft = FiveTuple(IPv4Address(1), IPv4Address(2), 6, 3, 4)
        for n in (1, 2, 7, 64):
            assert 0 <= queue_for_flow(ft, n) < n
        with pytest.raises(ValueError):
            queue_for_flow(ft, 0)

    def test_hash_is_the_field_tuples_and_computed_once(self):
        ft = FiveTuple(IPv4Address("10.1.2.3"), IPv4Address("10.4.5.6"),
                       PROTO_UDP, 1024, 80)
        assert hash(ft) == hash((ft.src, ft.dst, ft.proto, ft.src_port,
                                 ft.dst_port))
        assert hash(ft) == hash((IPv4Address("10.1.2.3"),
                                 IPv4Address("10.4.5.6"), 17, 1024, 80))
        assert ft._hash == hash(ft)

    def test_pickle_round_trip_is_equal_and_rehashed(self):
        ft = FiveTuple(IPv4Address("10.1.2.3"), IPv4Address("10.4.5.6"),
                       PROTO_UDP, 1024, 80)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(ft, protocol=protocol))
            assert clone == ft and hash(clone) == hash(ft)
            assert {clone: 1}[ft] == 1
        # The stored hash is not part of the pickled state.
        assert ft.__getstate__() == {
            "src": ft.src, "dst": ft.dst, "proto": PROTO_UDP,
            "src_port": 1024, "dst_port": 80}

    def test_same_flow_same_queue(self):
        a = Packet.udp("10.0.0.1", "10.0.0.2", src_port=99, dst_port=80)
        b = Packet.udp("10.0.0.1", "10.0.0.2", src_port=99, dst_port=80,
                       length=1024)
        assert queue_for_flow(a.five_tuple(), 8) == queue_for_flow(
            b.five_tuple(), 8)


def _assert_same_packet(a, b):
    """Every slot and every header field, not a sample of them."""
    for slot in Packet.__slots__:
        x, y = getattr(a, slot), getattr(b, slot)
        assert type(y) is type(x), slot
        if slot == "annotations":
            # A PathTrace has no __eq__: compare what it records.
            x, y = ({k: v.to_dict() if k == TRACE_ANNOTATION else v
                     for k, v in notes.items()} for notes in (x, y))
        # Dataclass equality covers every header field.
        assert y == x or (x != x and y != y), slot      # nan == nan here
    if a.ip is not None:
        assert b.five_tuple() == a.five_tuple()


class TestWireEncoding:
    """The compact encoding packets ride across partition boundaries.

    The parallel DES runner pickles packets between worker processes;
    both pickle and to_wire()/from_wire() must be lossless -- including
    ``packet_id``, which decoding must restore *without* drawing a fresh
    id from the global counter.
    """

    def _loaded_packet(self):
        p = Packet.udp("10.0.0.1", "10.9.0.2", length=740, src_port=777,
                       dst_port=53, payload=b"abc")
        p.flow_seq = 42
        p.ingress_node = 1
        p.egress_node = 3
        p.path = [1, 2]
        p.arrival_time = 1.25e-4
        p.departure_time = 0.0
        p.annotations["hop_t"] = 1.25e-4
        return p

    def test_wire_round_trip_is_lossless(self):
        p = self._loaded_packet()
        _assert_same_packet(p, Packet.from_wire(p.to_wire()))

    def test_pickle_round_trip_is_lossless(self):
        import pickle
        p = self._loaded_packet()
        _assert_same_packet(p, pickle.loads(pickle.dumps(p)))

    def test_tcp_packet_round_trips(self):
        import pickle
        p = Packet.tcp("1.2.3.4", "5.6.7.8", seq=1234, length=1500)
        clone = pickle.loads(pickle.dumps(p))
        assert clone.l4.seq == 1234
        assert clone.five_tuple() == p.five_tuple()
        assert clone.ip.proto == PROTO_TCP

    def test_decoding_does_not_consume_packet_ids(self):
        p = self._loaded_packet()
        wire = p.to_wire()
        for _ in range(3):
            Packet.from_wire(wire)
        fresh = Packet.udp("10.0.0.1", "10.0.0.2")
        # Only the explicit constructions drew ids: decode never does.
        assert fresh.packet_id == p.packet_id + 1

    def test_wire_is_plain_data(self):
        # The encoding must stay cheap to pickle: one bytes row of fixed
        # width, plus -- only for a packet that carries something
        # uncommon -- a tail of plain values (no custom classes).
        def plain(value):
            if isinstance(value, (int, float, str, bytes, type(None))):
                return True
            if isinstance(value, (tuple, list)):
                return all(plain(v) for v in value)
            if isinstance(value, dict):
                return all(plain(k) and plain(v) for k, v in value.items())
            return False
        width = len(Packet(64).to_wire()[0])
        row, tail = Packet.udp("10.0.0.1", "10.0.0.2").to_wire()
        assert type(row) is bytes and len(row) == width and tail is None
        row, tail = self._loaded_packet().to_wire()
        assert type(row) is bytes and len(row) == width
        assert tail is not None and plain(tail)

    def test_observation_stamps_cross_the_wire_and_pickle(self):
        # An observed cluster run stamps hop_t / prof_t on each packet;
        # a packet crossing a partition boundary must keep both.
        p = Packet.udp("10.0.0.1", "10.0.0.2")
        p.hop_t, p.prof_t = 1.25e-4, 1.5e-4
        row, tail = p.to_wire()
        assert tail is not None
        for clone in (Packet.from_wire((row, tail)),
                      pickle.loads(pickle.dumps(p))):
            assert (clone.hop_t, clone.prof_t) == (1.25e-4, 1.5e-4)
            assert clone.annotations == {}
        plain = Packet.from_wire(Packet.udp("10.0.0.1",
                                            "10.0.0.2").to_wire())
        assert plain.hop_t is None and plain.prof_t is None

    def test_wire_snapshot_is_independent_of_the_packet(self):
        p = self._loaded_packet()
        wire = p.to_wire()
        p.annotations["hop_t"] = 9.0
        first, second = Packet.from_wire(wire), Packet.from_wire(wire)
        assert first.annotations == {"hop_t": 1.25e-4}
        first.annotations["x"] = 1
        first.path.append(7)
        assert second.annotations == {"hop_t": 1.25e-4}
        assert second.path == [1, 2]

    def test_edge_values_round_trip_exactly(self):
        p = Packet.udp("255.255.255.255", "0.0.0.0", length=64,
                       src_port=65535, dst_port=0, ttl=255)
        p.eth = EthernetHeader(dst=MACAddress(0xFFFFFFFFFFFF),
                               src=MACAddress(0x0200DEADBEEF),
                               ethertype=0xFFFF)
        p.path = []
        p.arrival_time, p.departure_time = math.inf, math.nan
        clone = Packet.from_wire(p.to_wire())
        assert clone.eth == p.eth
        assert clone.ingress_node is None and clone.egress_node is None
        assert clone.path == []
        assert clone.arrival_time == math.inf
        assert math.isnan(clone.departure_time)
        assert clone.ip == p.ip and clone.l4 == p.l4

    @pytest.mark.parametrize("spoil", [
        lambda p: setattr(p.ip, "ttl", 300),
        lambda p: setattr(p.l4, "src_port", 1 << 16),
        lambda p: setattr(p.l4, "checksum", -1),
        lambda p: setattr(p, "ingress_node", 1 << 15),
        lambda p: setattr(p, "egress_node", -(1 << 15) - 1),
        lambda p: setattr(p, "path", [0, 1 << 15]),
        lambda p: setattr(p, "flow_seq", 1 << 63),
        lambda p: setattr(p, "flow_seq", 1.5),
        lambda p: setattr(p, "length", 1 << 32),
    ])
    def test_field_that_does_not_fit_its_column_raises(self, spoil):
        # A packed column is not a Python int: out of range must fail
        # loudly and name the packet, never wrap or surface as a bare
        # struct.error from inside a worker.
        p = Packet.udp("10.0.0.1", "10.0.0.2")
        spoil(p)
        with pytest.raises(PacketError, match="packet %d " % p.packet_id):
            p.to_wire()
        with pytest.raises(PacketError):
            pickle.dumps(p)

    def test_addresses_pickle_standalone(self):
        import pickle
        addr = IPv4Address("192.168.7.9")
        assert pickle.loads(pickle.dumps(addr)) == addr
        ft = FiveTuple(IPv4Address(1), IPv4Address(2), 6, 3, 4)
        assert pickle.loads(pickle.dumps(ft)) == ft


class _OtherL4:
    """An L4 header type the row has no columns for (rides the tail)."""

    def __init__(self, spi):
        self.spi = spi

    def __eq__(self, other):
        return type(other) is _OtherL4 and other.spi == self.spi


_u8, _u16 = st.integers(0, 255), st.integers(0, 0xFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)
_node = st.one_of(st.none(), st.integers(0, 32767))
_time = st.floats(allow_nan=True, allow_infinity=True)

_ip = st.one_of(st.none(), st.builds(
    IPv4Header, src=st.builds(IPv4Address, _u32),
    dst=st.builds(IPv4Address, _u32), ttl=_u8,
    proto=st.sampled_from([PROTO_UDP, PROTO_TCP, PROTO_ICMP]),
    total_length=_u16, identification=_u16, dscp=st.integers(0, 63),
    flags=st.integers(0, 7), fragment_offset=st.integers(0, 0x1FFF),
    checksum=_u16))
_l4 = st.one_of(
    st.none(),
    st.builds(UDPHeader, src_port=_u16, dst_port=_u16, length=_u16,
              checksum=_u16),
    st.builds(TCPHeader, src_port=_u16, dst_port=_u16, seq=_u32, ack=_u32,
              flags=st.integers(0, 0x1FF), window=_u16, checksum=_u16,
              urgent=_u16),
    st.builds(_OtherL4, _u32))


@st.composite
def _annotations(draw):
    kind = draw(st.sampled_from(["empty", "floats", "trace"]))
    if kind == "empty":
        return {}
    notes = {"hop_t": draw(st.floats(0, 1)), "prof_t": draw(st.floats(0, 1))}
    if kind == "trace":
        trace = PathTrace(draw(st.integers(0, 1 << 40)), draw(st.floats(0, 1)))
        for site in draw(st.lists(st.sampled_from(["node0.input",
                                                   "node1.tx"]), max_size=3)):
            trace.hop(site, draw(st.one_of(st.none(), st.floats(0, 1))))
        notes[TRACE_ANNOTATION] = trace
    return notes


@st.composite
def _packets(draw):
    packet = Packet(
        draw(st.integers(14, 0xFFFFFFFF)),
        eth=EthernetHeader(
            dst=MACAddress(draw(st.integers(0, 0xFFFFFFFFFFFF))),
            src=MACAddress(draw(st.integers(0, 0xFFFFFFFFFFFF))),
            ethertype=draw(_u16)),
        ip=draw(_ip), l4=draw(_l4),
        payload=draw(st.one_of(st.none(), st.binary(max_size=40))),
        packet_id=draw(st.integers(0, (1 << 63) - 1)))
    packet.flow_seq = draw(st.integers(0, (1 << 63) - 1))
    packet.ingress_node, packet.egress_node = draw(_node), draw(_node)
    packet.path = draw(st.lists(st.integers(0, 32767), max_size=5))
    packet.arrival_time, packet.departure_time = draw(_time), draw(_time)
    packet.annotations = draw(_annotations())
    packet.hop_t = draw(st.one_of(st.none(), _time))
    packet.prof_t = draw(st.one_of(st.none(), _time))
    return packet


@settings(max_examples=300, deadline=None)
@given(_packets())
def test_any_packet_round_trips_through_wire_and_pickle(packet):
    """UDP/TCP/other-L4/no-L4 x IP or none x payload x annotations
    (empty, floats, a PathTrace) x observation stamps x paths of 0-5
    hops x None nodes: the row + tail codec and pickle (which rides it)
    lose nothing."""
    _assert_same_packet(packet, Packet.from_wire(packet.to_wire()))
    _assert_same_packet(packet, pickle.loads(pickle.dumps(packet)))
    row, tail = packet.to_wire()
    uncommon = (packet.payload is not None or bool(packet.annotations)
                or packet.hop_t is not None or packet.prof_t is not None
                or len(packet.path) > 3
                or not isinstance(packet.l4, (UDPHeader, type(None))))
    assert (tail is not None) == uncommon
