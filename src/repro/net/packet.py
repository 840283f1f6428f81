"""The packet object that flows through the simulated dataplane.

A :class:`Packet` carries parsed headers plus simulation metadata (arrival
timestamps, ingress port, per-flow sequence numbers used by the reordering
metric, and VLB annotations such as the chosen output node).  The payload is
represented by its length alone unless bytes are attached -- simulating a
64-byte packet should not cost 64 bytes of Python string churn, but the
functional paths (checksums, encryption) operate on real bytes when present.
"""

from __future__ import annotations

import copy
import itertools
import struct
from typing import Optional

from ..errors import PacketError
from .addresses import IPv4Address
from .flows import FiveTuple
from .headers import (
    ETHERNET_HEADER_BYTES,
    ETHERTYPE_IPV4,
    EthernetHeader,
    IPV4_MIN_HEADER_BYTES,
    IPv4Header,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
    _ZERO_MAC,
)
from .addresses import interned_mac

_packet_ids = itertools.count()

#: The fixed-width part of a packet on the wire, declared once: id,
#: length; MACs (48 bits in a ``Q``), ethertype; the ten IPv4 fields;
#: UDP's four; flow_seq; ingress/egress node (``_NO_NODE`` for None);
#: arrival/departure time; presence bits; hop count and three hops.
WIRE_FORMAT = "qIQQH" "IIBBHHBBHH" "HHHH" "q" "hh" "dd" "B" "Bhhh"
_ROW = struct.Struct("<" + WIRE_FORMAT)
_HAS_IP, _HAS_UDP, _NO_NODE = 1, 2, -1
_NO_IP, _NO_UDP, _NO_TAIL = (0,) * 10, (0,) * 4, (None,) * 6
_PATH_PAD = ((0, 0, 0), (0, 0), (0,), ())


def packet_id_floor(at_least: int = 0) -> int:
    """Raise the process-wide id counter to ``at_least`` (never lower
    it) and return the next id it will hand out.

    A cluster run numbers its arrival stream ``base + position`` instead
    of drawing ids, so that every partition replaying the stream -- in
    this process, a forked one or a spawned one -- agrees on them: the
    caller takes ``base = packet_id_floor()`` before the run and calls
    ``packet_id_floor(base + arrivals)`` after it, which keeps ids drawn
    later clear of the run's.
    """
    global _packet_ids
    at_least = max(at_least, next(_packet_ids))
    _packet_ids = itertools.count(at_least)
    return at_least


class Packet:
    """A network packet plus simulation metadata.

    Attributes
    ----------
    length:
        Total frame length in bytes (Ethernet header included).
    eth, ip, l4:
        Parsed headers; ``l4`` is a UDP or TCP header or ``None``.
    payload:
        Raw payload bytes, or ``None`` when only the length is simulated.
    flow_seq:
        Per-flow sequence number stamped by the traffic generator; the
        reordering metric compares egress order against it.
    flow_key:
        The flow's :class:`~repro.net.flows.FiveTuple`, stamped by the
        traffic generator (one object shared by every packet of a flow,
        so per-flow tables hash a key they do not rebuild), or ``None``
        -- then :meth:`five_tuple` derives the key from the headers.
        :meth:`copy` and :meth:`from_wire` leave it ``None``: a copy's
        headers may be rewritten, and a wire decode rebuilds the key.
    ingress_node, egress_node:
        Cluster node ids assigned by the VLB router.
    arrival_time, departure_time:
        Simulation timestamps (seconds).
    hop_t, prof_t:
        Observation stamps (seconds), ``None`` unless an observed cluster
        run set them: when the packet last crossed a hop (the per-hop
        latency histograms) and its last profiled point (the span
        profiler's per-node frames).
    """

    __slots__ = (
        "packet_id", "length", "eth", "ip", "l4", "payload",
        "flow_seq", "flow_key", "ingress_node", "egress_node", "path",
        "arrival_time", "departure_time", "annotations", "hop_t", "prof_t",
    )

    def __init__(self, length: int, eth: Optional[EthernetHeader] = None,
                 ip: Optional[IPv4Header] = None, l4=None,
                 payload: Optional[bytes] = None,
                 packet_id: Optional[int] = None):
        if length < ETHERNET_HEADER_BYTES:
            raise PacketError("frame length %d below Ethernet minimum" % length)
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)
        self.length = length
        self.eth = eth if eth is not None else EthernetHeader()
        self.ip = ip
        self.l4 = l4
        self.payload = payload
        self.flow_seq = 0
        self.flow_key = None
        self.ingress_node = None
        self.egress_node = None
        self.path = []
        self.arrival_time = 0.0
        self.departure_time = 0.0
        self.annotations = {}
        self.hop_t = self.prof_t = None

    # -- construction -----------------------------------------------------

    @classmethod
    def udp(cls, src, dst, length: int = 64, src_port: int = 1024,
            dst_port: int = 80, ttl: int = 64,
            payload: Optional[bytes] = None,
            packet_id: Optional[int] = None) -> "Packet":
        """Build a UDP-in-IPv4-in-Ethernet packet of total frame ``length``
        (``packet_id``: an id the caller assigns instead of a fresh one)."""
        # IPv4Address is immutable: callers that already hold one (the
        # workload generators' pre-built flow tables) share it as-is.
        if not isinstance(src, IPv4Address):
            src = IPv4Address(src)
        if not isinstance(dst, IPv4Address):
            dst = IPv4Address(dst)
        # Positional, in the headers' field order, with the shared zero
        # MAC: no default factory runs for a generated packet.
        ip = IPv4Header(src, dst, ttl, PROTO_UDP,
                        max(length - ETHERNET_HEADER_BYTES,
                            IPV4_MIN_HEADER_BYTES))
        return cls(length, EthernetHeader(_ZERO_MAC, _ZERO_MAC,
                                          ETHERTYPE_IPV4), ip,
                   UDPHeader(src_port, dst_port,
                             ip.total_length - IPV4_MIN_HEADER_BYTES),
                   payload, packet_id)

    @classmethod
    def tcp(cls, src, dst, length: int = 64, src_port: int = 1024,
            dst_port: int = 80, seq: int = 0, ttl: int = 64) -> "Packet":
        """Build a TCP-in-IPv4-in-Ethernet packet of total frame ``length``."""
        ip = IPv4Header(IPv4Address(src), IPv4Address(dst), ttl, PROTO_TCP,
                        max(length - ETHERNET_HEADER_BYTES,
                            IPV4_MIN_HEADER_BYTES))
        return cls(length, EthernetHeader(_ZERO_MAC, _ZERO_MAC,
                                          ETHERTYPE_IPV4), ip,
                   TCPHeader(src_port, dst_port, seq))

    # -- flow identity ----------------------------------------------------

    def five_tuple(self) -> FiveTuple:
        """The packet's flow key -- the stamped :attr:`flow_key` when
        there is one, else built from the headers; raises for non-IP
        packets."""
        if self.flow_key is not None:
            return self.flow_key
        if self.ip is None:
            raise PacketError("packet %d has no IP header" % self.packet_id)
        src_port = getattr(self.l4, "src_port", 0)
        dst_port = getattr(self.l4, "dst_port", 0)
        return FiveTuple(src=self.ip.src, dst=self.ip.dst,
                         proto=self.ip.proto, src_port=src_port,
                         dst_port=dst_port)

    # -- serialization ----------------------------------------------------

    def pack(self) -> bytes:
        """Serialize headers + payload, padding to the frame length."""
        parts = [self.eth.pack()]
        if self.ip is not None:
            parts.append(self.ip.pack())
        if self.l4 is not None:
            parts.append(self.l4.pack())
        if self.payload is not None:
            parts.append(self.payload)
        raw = b"".join(parts)
        if len(raw) > self.length:
            raise PacketError(
                "headers/payload (%d B) exceed frame length %d"
                % (len(raw), self.length))
        return raw + b"\x00" * (self.length - len(raw))

    @classmethod
    def unpack(cls, data: bytes) -> "Packet":
        """Parse a full frame; non-IPv4 frames keep only the Ethernet header."""
        eth = EthernetHeader.unpack(data)
        ip = None
        l4 = None
        payload = None
        if eth.ethertype == ETHERTYPE_IPV4:
            ip = IPv4Header.unpack(data[ETHERNET_HEADER_BYTES:])
            l4_offset = ETHERNET_HEADER_BYTES + ip.header_length()
            if ip.proto == PROTO_UDP:
                l4 = UDPHeader.unpack(data[l4_offset:])
                payload = data[l4_offset + 8:]
            elif ip.proto == PROTO_TCP:
                l4 = TCPHeader.unpack(data[l4_offset:])
                payload = data[l4_offset + 20:]
            else:
                payload = data[l4_offset:]
        packet = cls(length=len(data), eth=eth, ip=ip, l4=l4, payload=payload)
        return packet

    def copy(self) -> "Packet":
        """A copy with fresh identity and its own header objects (the
        addresses inside them are immutable and shared)."""
        clone = Packet(self.length, eth=copy.copy(self.eth),
                       ip=copy.copy(self.ip), l4=copy.copy(self.l4),
                       payload=self.payload)
        clone.flow_seq = self.flow_seq
        return clone

    # -- wire encoding (partition boundaries) ------------------------------

    def to_wire(self, pack=_ROW.pack, *head):
        """Encode the packet as ``(row, tail)``.

        ``row`` is one :data:`WIRE_FORMAT` struct holding what every
        packet has; ``tail`` is ``None`` unless the packet carries
        something uncommon -- payload bytes, annotations, an L4 header
        that is not UDP (it rides as an object), a path of more than
        three hops, observation stamps -- and is then ``(payload,
        annotations, l4, path, hop_t, prof_t)``.
        :meth:`from_wire` restores the packet *losslessly*, including
        ``packet_id`` (no new id is drawn), bar the ``flow_key`` stamp:
        the decoded packet's :meth:`five_tuple` rebuilds an equal key
        from the headers.  A caller that frames the row
        inside a wider struct (a partition's transit record) passes that
        struct's ``pack`` and its leading values ``head``, so the record
        is packed once.  A field that does not fit its column raises
        :class:`PacketError`.
        """
        ip, l4, path = self.ip, self.l4, self.path
        present, hops, far = 0, len(path), None
        if ip is None:
            ipw = _NO_IP
        else:
            present = _HAS_IP
            ipw = (ip.src.value, ip.dst.value, ip.ttl, ip.proto,
                   ip.total_length, ip.identification, ip.dscp, ip.flags,
                   ip.fragment_offset, ip.checksum)
        if type(l4) is UDPHeader:
            present |= _HAS_UDP
            l4w, l4 = (l4.src_port, l4.dst_port, l4.length, l4.checksum), None
        else:
            l4w = _NO_UDP
        if hops > 3:
            far, path, hops = tuple(path), (), 0
        tail = None
        hop_t, prof_t = self.hop_t, self.prof_t
        if (self.annotations or self.payload is not None or l4 is not None
                or far is not None or hop_t is not None
                or prof_t is not None):
            tail = (self.payload, dict(self.annotations), l4, far, hop_t,
                    prof_t)
        ingress, egress = self.ingress_node, self.egress_node
        try:
            return pack(
                *head, self.packet_id, self.length, self.eth.dst.value,
                self.eth.src.value, self.eth.ethertype, *ipw, *l4w,
                self.flow_seq, _NO_NODE if ingress is None else ingress,
                _NO_NODE if egress is None else egress, self.arrival_time,
                self.departure_time, present, hops, *path,
                *_PATH_PAD[hops]), tail
        except struct.error as exc:
            raise PacketError("packet %r does not fit the wire layout: %s"
                              % (self.packet_id, exc)) from None

    @classmethod
    def from_wire(cls, wire) -> "Packet":
        """Rebuild a packet encoded by :meth:`to_wire`; ``row`` may
        already be unpacked (the partition unpacks whole parcels).

        Restores the original ``packet_id`` without consuming a fresh one,
        so decoding on a receiving partition cannot perturb packet
        identity.
        """
        row, tail = wire
        if type(row) is not tuple:
            row = _ROW.unpack(row)
        (packet_id, length, eth_dst, eth_src, ethertype, ip_src, ip_dst,
         ttl, proto, total_length, identification, dscp, flags,
         fragment_offset, checksum, src_port, dst_port, udp_length,
         udp_checksum, flow_seq, ingress, egress, arrival_time,
         departure_time, present, hops, *path) = row
        payload, annotations, l4, far, hop_t, prof_t = tail or _NO_TAIL
        packet = object.__new__(cls)
        packet.packet_id = packet_id
        packet.length = length
        # Positional: the row's columns are in the headers' field order.
        packet.eth = EthernetHeader(interned_mac(eth_dst),
                                    interned_mac(eth_src), ethertype)
        packet.ip = IPv4Header(
            IPv4Address(ip_src), IPv4Address(ip_dst), ttl, proto,
            total_length, identification, dscp, flags, fragment_offset,
            checksum) if present & _HAS_IP else None
        packet.l4 = UDPHeader(src_port, dst_port, udp_length,
                              udp_checksum) if present & _HAS_UDP else l4
        packet.payload = payload
        packet.flow_seq = flow_seq
        packet.flow_key = None
        packet.ingress_node = None if ingress == _NO_NODE else ingress
        packet.egress_node = None if egress == _NO_NODE else egress
        packet.path = path[:hops] if far is None else list(far)
        packet.arrival_time = arrival_time
        packet.departure_time = departure_time
        packet.annotations = dict(annotations) if annotations else {}
        packet.hop_t = hop_t
        packet.prof_t = prof_t
        return packet

    def __reduce__(self):
        # Route pickle through the wire encoding: one lossless code path
        # for both serialization mechanisms, and unpickling never draws a
        # fresh packet id.
        return (Packet.from_wire, (self.to_wire(),))

    def __repr__(self):
        if self.ip is not None:
            return "<Packet #%d %s->%s len=%d>" % (
                self.packet_id, self.ip.src, self.ip.dst, self.length)
        return "<Packet #%d len=%d>" % (self.packet_id, self.length)
