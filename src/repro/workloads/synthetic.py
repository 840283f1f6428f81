"""Fixed-size synthetic workloads with random destinations."""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from ..errors import ConfigurationError
from ..net.addresses import IPv4Address
from ..net.packet import Packet
from ..units import MIN_PACKET_BYTES


class PacketSource:
    """Base class: an iterator of packets plus rate bookkeeping."""

    def packets(self, count: int) -> Iterator[Packet]:
        raise NotImplementedError

    def mean_packet_bytes(self) -> float:
        raise NotImplementedError


class FixedSizeWorkload(PacketSource):
    """Every packet has the same size; destinations randomized per flow.

    ``num_flows`` five-tuples are pre-generated; packets cycle through them
    (round-robin by default, or randomly with ``randomize_flows``), each
    carrying a per-flow sequence number for reordering measurements.
    """

    def __init__(self, packet_bytes: int = 64, num_flows: int = 64,
                 seed: int = 0, randomize_flows: bool = False,
                 dst_pool: Optional[List[IPv4Address]] = None):
        if packet_bytes < MIN_PACKET_BYTES:
            raise ConfigurationError(
                "packet size %d below Ethernet minimum" % packet_bytes)
        if num_flows < 1:
            raise ConfigurationError("need >= 1 flow")
        self.packet_bytes = packet_bytes
        self.rng = random.Random(seed)
        self.randomize_flows = randomize_flows
        self._flows = []
        for i in range(num_flows):
            src = IPv4Address((10 << 24) | self.rng.getrandbits(24))
            if dst_pool:
                dst = dst_pool[i % len(dst_pool)]
            else:
                dst = IPv4Address(self.rng.getrandbits(32))
            self._flows.append((src, dst,
                                1024 + self.rng.randrange(60000),
                                80 if i % 2 else 443))
        self._flow_seq = [0] * num_flows
        self._next_flow = 0

    def mean_packet_bytes(self) -> float:
        return float(self.packet_bytes)

    def _pick_flow(self) -> int:
        if self.randomize_flows:
            return self.rng.randrange(len(self._flows))
        index = self._next_flow
        self._next_flow = (self._next_flow + 1) % len(self._flows)
        return index

    def packets(self, count: int) -> Iterator[Packet]:
        """Yield ``count`` packets cycling over the flow pool."""
        if count < 0:
            raise ValueError("count must be >= 0")
        flows = self._flows
        flow_seq = self._flow_seq
        pick = self._pick_flow
        udp = Packet.udp
        length = self.packet_bytes
        for _ in range(count):
            index = pick()
            src, dst, sport, dport = flows[index]
            packet = udp(src, dst, length=length,
                         src_port=sport, dst_port=dport)
            flow_seq[index] += 1
            packet.flow_seq = flow_seq[index]
            yield packet

    def packet_at(self, position: int) -> Packet:
        """The packet :meth:`packets` would yield ``position`` packets
        from now -- same flow, same ``flow_seq`` -- without advancing the
        workload.  Round-robin flow picking only: random picking has no
        closed form for a position."""
        if self.randomize_flows:
            raise ConfigurationError(
                "packet_at needs round-robin flows (randomize_flows=False)")
        num_flows = len(self._flows)
        index = (self._next_flow + position) % num_flows
        src, dst, sport, dport = self._flows[index]
        packet = Packet.udp(src, dst, length=self.packet_bytes,
                            src_port=sport, dst_port=dport)
        # Flow ``index`` comes round once per ``num_flows`` packets.
        packet.flow_seq = self._flow_seq[index] + position // num_flows + 1
        return packet
