"""The MAC-address output-node encoding trick (Sec. 6.1).

RB4 processes each packet's IP headers only once, at its input node: the
chosen output node's id is encoded in the destination MAC, and every
subsequent node steers the packet by *receive queue* (NICs assign packets
to RX queues by MAC), never touching the headers.  The trick needs as many
RX queues on each internal port as the router has external ports, which
caps it at ~64 external ports with contemporary NICs -- checked here.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..net.addresses import MACAddress
from ..net.packet import Packet

#: Receive-queue count of the prototype's NICs ("32-64 RX and TX queues
#: already exist", Sec. 4.2); the MAC trick supports at most this many
#: external ports.
MAX_ENCODED_NODES = 64


def encode_output_node(packet: Packet, node_id: int,
                       max_nodes: int = MAX_ENCODED_NODES) -> None:
    """Stamp ``node_id`` into the packet's destination MAC."""
    if not 0 <= node_id < max_nodes:
        raise ConfigurationError(
            "node id %d not encodable (max %d with current NICs)"
            % (node_id, max_nodes))
    packet.eth.dst = packet.eth.dst.with_node_id(node_id)


def decode_output_node(packet: Packet) -> int:
    """Recover the output node from the destination MAC.

    This is what an intermediate node's CPU does *instead of* reading IP
    headers: the RX queue the packet sits in implies its MAC, which
    implies the output node.
    """
    return packet.eth.dst.value & MACAddress.NODE_ID_MASK


def rx_queues_needed(num_external_ports: int) -> int:
    """RX queues each internal port needs for MAC steering."""
    if num_external_ports < 1:
        raise ConfigurationError("need >= 1 external port")
    return num_external_ports


def mac_trick_feasible(num_external_ports: int,
                       nic_queues: int = MAX_ENCODED_NODES) -> bool:
    """Whether single-lookup forwarding works at this port count."""
    return rx_queues_needed(num_external_ports) <= nic_queues
