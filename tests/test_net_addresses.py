"""Tests for IPv4/MAC addresses and prefixes."""

import pytest

from repro.errors import PacketError, RoutingError
from repro.net import IPv4Address, MACAddress, Prefix


class TestIPv4Address:
    def test_parse_and_str_round_trip(self):
        addr = IPv4Address("192.168.1.200")
        assert str(addr) == "192.168.1.200"
        assert int(addr) == (192 << 24) | (168 << 16) | (1 << 8) | 200

    def test_bytes_round_trip(self):
        addr = IPv4Address("10.0.0.1")
        assert IPv4Address.from_bytes(addr.to_bytes()) == addr

    def test_equality_with_int(self):
        assert IPv4Address("0.0.0.1") == 1

    def test_ordering(self):
        assert IPv4Address("1.0.0.0") < IPv4Address("2.0.0.0")

    def test_hashable(self):
        assert len({IPv4Address("1.2.3.4"), IPv4Address("1.2.3.4")}) == 1

    def test_immutable(self):
        addr = IPv4Address(0)
        with pytest.raises(AttributeError):
            addr.value = 5

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.256", "a.b.c.d",
                                     "1.2.3.4.5", -1, 1 << 32])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PacketError):
            IPv4Address(bad)

    def test_copy_constructor(self):
        a = IPv4Address("9.9.9.9")
        assert IPv4Address(a) == a


class TestMACAddress:
    def test_parse_and_str_round_trip(self):
        mac = MACAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert int(mac) == 0x02000000002A

    def test_bytes_round_trip(self):
        mac = MACAddress(0xAABBCCDDEEFF)
        assert MACAddress.from_bytes(mac.to_bytes()) == mac

    def test_node_id_encoding_round_trip(self):
        base = MACAddress("02:00:00:00:00:00")
        for node in (0, 1, 7, 63, 255):
            encoded = base.with_node_id(node)
            assert encoded.value & MACAddress.NODE_ID_MASK == node

    def test_node_id_preserves_high_bytes(self):
        base = MACAddress("02:aa:bb:cc:dd:ee")
        encoded = base.with_node_id(3)
        assert int(encoded) >> 8 == int(base) >> 8

    def test_node_id_out_of_range(self):
        with pytest.raises(PacketError):
            MACAddress(0).with_node_id(256)

    @pytest.mark.parametrize("bad", ["02:00:00:00:00", "zz:00:00:00:00:00"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PacketError):
            MACAddress(bad)


class TestPrefix:
    def test_parse(self):
        p = Prefix.parse("10.1.0.0/16")
        assert str(p) == "10.1.0.0/16"
        assert p.length == 16

    def test_contains(self):
        p = Prefix.parse("10.1.0.0/16")
        assert p.contains("10.1.200.200")
        assert not p.contains("10.2.0.0")

    def test_zero_length_contains_everything(self):
        p = Prefix(0, 0)
        assert p.contains("255.255.255.255")
        assert p.contains(0)

    def test_host_bits_rejected(self):
        with pytest.raises(RoutingError):
            Prefix("10.1.0.1", 16)

    def test_from_address_truncates(self):
        p = Prefix.from_address("10.1.2.3", 16)
        assert p == Prefix.parse("10.1.0.0/16")

    def test_slash32(self):
        p = Prefix.parse("1.2.3.4/32")
        assert p.contains("1.2.3.4")
        assert not p.contains("1.2.3.5")

    @pytest.mark.parametrize("bad_len", [-1, 33])
    def test_bad_lengths(self, bad_len):
        with pytest.raises(RoutingError):
            Prefix(0, bad_len)

    def test_hash_eq(self):
        assert len({Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/8")}) == 1
