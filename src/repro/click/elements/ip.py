"""IP-path elements: header check, TTL decrement, LPM lookup, re-encap.

Together these form the paper's "IP routing" application (Sec. 5.1): full
header validation, checksum update, and a longest-prefix-match lookup in a
256 K-entry table via the D-lookup structure.
"""

from __future__ import annotations

from typing import List

from ...costs import increment_terms
from ...errors import ConfigurationError
from ...net.addresses import MACAddress
from ...net.checksum import ttl_decrement_checksum
from ...net.headers import ETHERTYPE_IPV4
from ...net.packet import Packet
from ...routing.table import RoutingTable
from ..element import Element


class CheckIPHeader(Element):
    """Validate the IP header; bad packets are dropped (and counted)."""

    def process(self, packet: Packet, port: int) -> None:
        ip = packet.ip
        if (ip is None or packet.eth.ethertype != ETHERTYPE_IPV4
                or ip.ttl <= 0 or ip.total_length < 20):
            self.drop(packet, "invalid_header")
            return
        self.push(packet)


class DecIPTTL(Element):
    """Decrement TTL with an incremental checksum update (RFC 1624).

    Packets whose TTL would reach zero go to output 1 when connected
    (for ICMP time-exceeded handling), else are dropped.
    """

    n_outputs = 2
    #: The time-exceeded port may legitimately dangle.
    optional_outputs = {1}

    def process(self, packet: Packet, port: int) -> None:
        ip = packet.ip
        if ip is None:
            self.drop(packet, "no_ip")
            return
        if ip.ttl <= 1:
            if self.output(1).peer is not None:
                self.push(packet, 1)
            else:
                self.drop(packet, "ttl_expired")
            return
        ip.checksum = ttl_decrement_checksum(ip.checksum, ip.ttl, ip.proto)
        ip.ttl -= 1
        self.push(packet, 0)


class LookupIPRoute(Element):
    """Longest-prefix-match and output-port selection.

    One output per router port; packets with no matching route go to the
    extra last output (typically Discard), mirroring Click's
    ``LookupIPRoute`` failure port.
    """

    def __init__(self, table: RoutingTable, n_ports: int, name: str = ""):
        if n_ports < 1:
            raise ConfigurationError("router needs >= 1 port")
        self.n_outputs = n_ports + 1
        super().__init__(name)
        self.table = table
        self.n_ports = n_ports
        self.misses = 0
        # The routing increment over minimal forwarding (lookup + header
        # work), from the calibrated application costs.
        self.set_cost_terms(*increment_terms("routing"))

    def process(self, packet: Packet, port: int) -> None:
        route = self.table.lookup(packet.ip.dst) if packet.ip else None
        if route is None or route.port >= self.n_ports:
            self.misses += 1
            self.push(packet, self.n_ports)
            return
        packet.annotations["next_hop"] = route.next_hop
        packet.annotations["next_hop_mac"] = route.next_hop_mac
        self.push(packet, route.port)

    def output_probabilities(self) -> List[float]:
        """Routed traffic spreads uniformly over the port outputs; the
        failure port carries no load in the analytic model."""
        return [1.0 / self.n_ports] * self.n_ports + [0.0]


class EtherEncap(Element):
    """Rewrite the Ethernet header for the chosen next hop."""

    def __init__(self, src_mac: MACAddress, name: str = ""):
        super().__init__(name)
        self.src_mac = src_mac

    def process(self, packet: Packet, port: int) -> None:
        next_hop_mac = packet.annotations.get("next_hop_mac")
        if next_hop_mac is not None:
            packet.eth.dst = next_hop_mac
        packet.eth.src = self.src_mac
        packet.eth.ethertype = ETHERTYPE_IPV4
        self.push(packet)
