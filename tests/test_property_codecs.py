"""Hypothesis property tests on the wire codecs."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import IPv4Address, MACAddress, Packet
from repro.net.checksum import verify_checksum
from repro.net.headers import (
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.workloads.pcapio import read_pcap, write_pcap

addr32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
addr48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
port16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
byte8 = st.integers(min_value=0, max_value=255)


@settings(max_examples=60, deadline=None)
@given(dst=addr48, src=addr48, ethertype=port16)
def test_ethernet_round_trip(dst, src, ethertype):
    header = EthernetHeader(dst=MACAddress(dst), src=MACAddress(src),
                            ethertype=ethertype)
    assert EthernetHeader.unpack(header.pack()) == header


@settings(max_examples=60, deadline=None)
@given(src=addr32, dst=addr32, ttl=st.integers(min_value=1, max_value=255),
       proto=byte8, length=st.integers(min_value=20, max_value=65535),
       ident=port16, dscp=byte8)
def test_ipv4_round_trip_and_checksum(src, dst, ttl, proto, length, ident,
                                      dscp):
    header = IPv4Header(src=IPv4Address(src), dst=IPv4Address(dst), ttl=ttl,
                        proto=proto, total_length=length,
                        identification=ident, dscp=dscp)
    raw = header.pack()
    assert verify_checksum(raw)
    assert IPv4Header.unpack(raw) == header


@settings(max_examples=60, deadline=None)
@given(sp=port16, dp=port16, seq=addr32, ack=addr32,
       flags=st.integers(min_value=0, max_value=0x1FF), window=port16)
def test_tcp_round_trip(sp, dp, seq, ack, flags, window):
    header = TCPHeader(src_port=sp, dst_port=dp, seq=seq, ack=ack,
                       flags=flags, window=window)
    assert TCPHeader.unpack(header.pack()) == header


@settings(max_examples=60, deadline=None)
@given(sp=port16, dp=port16, length=port16)
def test_udp_round_trip(sp, dp, length):
    header = UDPHeader(src_port=sp, dst_port=dp, length=length)
    assert UDPHeader.unpack(header.pack()) == header


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pcap_round_trip_random_packets(data):
    count = data.draw(st.integers(min_value=1, max_value=8))
    pairs = []
    now = 0.0
    for _ in range(count):
        now += data.draw(st.floats(min_value=0, max_value=1e-3,
                                   allow_nan=False))
        src = data.draw(addr32)
        dst = data.draw(addr32)
        length = data.draw(st.integers(min_value=64, max_value=1514))
        pairs.append((now, Packet.udp(IPv4Address(src), IPv4Address(dst),
                                      length=length)))
    buffer = io.BytesIO()
    assert write_pcap(buffer, pairs) == count
    buffer.seek(0)
    loaded = list(read_pcap(buffer))
    assert len(loaded) == count
    for (t0, p0), (t1, p1) in zip(pairs, loaded):
        assert t1 == pytest.approx(t0, abs=1e-6)
        assert (p1.length, int(p1.ip.src), int(p1.ip.dst)) == (
            p0.length, int(p0.ip.src), int(p0.ip.dst))
