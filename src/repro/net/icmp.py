"""ICMP message codec and generation.

A real IP router answers TTL expiry with ICMP Time Exceeded (type 11) and
unroutable packets with Destination Unreachable (type 3); the dataplane's
``DecIPTTL``/``LookupIPRoute`` error ports feed an ICMP generator element.
The codec serializes per RFC 792: type, code, checksum, then the original
IP header + 8 payload bytes quoted back to the sender.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import PacketError
from .addresses import IPv4Address
from .checksum import internet_checksum
from .headers import ETHERNET_HEADER_BYTES, IPv4Header, PROTO_ICMP
from .packet import Packet

TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_ECHO_REQUEST = 8
TYPE_TIME_EXCEEDED = 11

CODE_NET_UNREACHABLE = 0
CODE_TTL_EXCEEDED = 0

ICMP_HEADER_BYTES = 8
#: RFC 792: quote the offending IP header plus the first 8 payload bytes.
QUOTED_PAYLOAD_BYTES = 8


@dataclass
class IcmpHeader:
    """Type/code/checksum plus the 4 'rest of header' bytes."""

    icmp_type: int
    code: int = 0
    checksum: int = 0
    rest: int = 0

    def pack(self, payload: bytes = b"", *, recompute_checksum: bool = True) -> bytes:
        """Serialize; the checksum covers header + payload."""
        if recompute_checksum:
            self.checksum = 0
            raw = self._pack_raw() + payload
            self.checksum = internet_checksum(raw)
        return self._pack_raw() + payload

    def _pack_raw(self) -> bytes:
        return struct.pack("!BBHI", self.icmp_type & 0xFF, self.code & 0xFF,
                           self.checksum & 0xFFFF, self.rest & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, data: bytes) -> "IcmpHeader":
        if len(data) < ICMP_HEADER_BYTES:
            raise PacketError("truncated ICMP header (%d bytes)" % len(data))
        icmp_type, code, checksum, rest = struct.unpack("!BBHI", data[:8])
        return cls(icmp_type=icmp_type, code=code, checksum=checksum,
                   rest=rest)


def icmp_error_packet(offending: Packet, router_address: IPv4Address,
                      icmp_type: int, code: int = 0) -> Packet:
    """Build the ICMP error a router sends about ``offending``.

    Addressed router -> original sender; quotes the offending packet's IP
    header and first 8 payload bytes, per RFC 792.
    """
    if offending.ip is None:
        raise PacketError("cannot ICMP-report a non-IP packet")
    quoted = offending.pack()[ETHERNET_HEADER_BYTES:
                              ETHERNET_HEADER_BYTES + 20 + QUOTED_PAYLOAD_BYTES]
    header = IcmpHeader(icmp_type=icmp_type, code=code)
    body = header.pack(quoted)
    ip = IPv4Header(src=router_address, dst=offending.ip.src,
                    proto=PROTO_ICMP, ttl=64,
                    total_length=20 + len(body))
    packet = Packet(length=max(ETHERNET_HEADER_BYTES + ip.total_length, 64),
                    ip=ip, payload=body)
    packet.annotations["icmp_type"] = icmp_type
    packet.annotations["icmp_code"] = code
    return packet


def time_exceeded(offending: Packet, router_address: IPv4Address) -> Packet:
    """ICMP Time Exceeded (the DecIPTTL error path)."""
    return icmp_error_packet(offending, router_address,
                             TYPE_TIME_EXCEEDED, CODE_TTL_EXCEEDED)


def destination_unreachable(offending: Packet,
                            router_address: IPv4Address) -> Packet:
    """ICMP Destination Unreachable (the routing-miss path)."""
    return icmp_error_packet(offending, router_address,
                             TYPE_DEST_UNREACHABLE, CODE_NET_UNREACHABLE)


def parse_icmp(packet: Packet) -> IcmpHeader:
    """Extract the ICMP header from a proto-1 packet."""
    if packet.ip is None or packet.ip.proto != PROTO_ICMP:
        raise PacketError("not an ICMP packet")
    if packet.payload is None:
        raise PacketError("ICMP packet carries no bytes")
    return IcmpHeader.unpack(packet.payload)
