"""The two RouteBricks Click elements (Sec. 8).

"Beyond our 10G NIC driver, the RB4 implementation required us to write
only two new Click elements" -- the cluster's data plane is ordinary Click
plus these:

* :class:`VLBIngress` -- runs at a node's external port: looks up the
  output node (routing-table port = cluster node id), encodes it into the
  destination MAC (Sec. 6.1), and picks the first hop with
  :func:`repro.core.vlb.first_hop` -- the adaptive Direct VLB + flowlet
  decision the DES node runs -- reading the TX ring toward each peer as
  its link state.  Output ``i`` leads toward cluster node ``i``; output
  ``self_node`` is the local egress path.
* :class:`VLBTransit` -- runs at internal ports: reads the output node
  from the receive queue's MAC (no IP processing) and forwards toward it,
  or delivers locally.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ... import calibration as cal
from ...core.flowlet import FlowletTable
from ...costs import ResourceVector, increment_terms
from ...core.mac_encoding import decode_output_node, encode_output_node
from ...core.vlb import first_hop
from ...errors import ConfigurationError
from ...hw.nic import NicQueue
from ...net.packet import Packet
from ...routing.table import RoutingTable
from ..element import Element


class VLBIngress(Element):
    """External-port ingress: route, encode, and load-balance.

    ``tx_rings[i]`` is the TX ring toward cluster node ``i``: a link is
    available while its ring has room, and its load is the ring's
    occupancy.  Without rings every link is free.
    """

    def __init__(self, table: RoutingTable, self_node: int, num_nodes: int,
                 tx_rings: Optional[Sequence[NicQueue]] = None,
                 use_flowlets: bool = True, seed: int = 0, name: str = ""):
        if num_nodes < 2:
            raise ConfigurationError("cluster needs >= 2 nodes")
        if not 0 <= self_node < num_nodes:
            raise ConfigurationError("self_node out of range")
        self.n_outputs = num_nodes + 1  # one per node + routing-miss port
        super().__init__(name or "VLBIngress(n%d)" % self_node)
        self.table = table
        self.self_node = self_node
        self.num_nodes = num_nodes
        if tx_rings is None:
            self._available = lambda node: True
        else:
            self._available = (
                lambda node: len(tx_rings[node]) < tx_rings[node].capacity)
        self._load_of = lambda node: len(tx_rings[node])
        self.flowlets = FlowletTable() if use_flowlets else None
        self.rng = random.Random(seed)
        self.now = 0.0  # advanced by the caller (simulation clock)
        self.routed = 0
        self.misses = 0
        # Routing lookup + header work + reordering-avoidance tracking.
        base, per_byte = increment_terms("routing")
        if use_flowlets:
            base = base + ResourceVector(
                cpu_cycles=cal.REORDER_AVOIDANCE_CYCLES)
        self.set_cost_terms(base, per_byte)

    def process(self, packet: Packet, port: int) -> None:
        route = self.table.lookup(packet.ip.dst) if packet.ip else None
        if route is None or route.port >= self.num_nodes:
            self.misses += 1
            self.push(packet, self.num_nodes)
            return
        egress = route.port
        encode_output_node(packet, egress, max_nodes=self.num_nodes)
        self.routed += 1
        if egress == self.self_node:
            self.push(packet, self.self_node)
            return
        self.push(packet, first_hop(
            self.flowlets, packet, egress, self.now, self.self_node,
            self.num_nodes, self._available, (), self._load_of, self.rng))

    def output_probabilities(self) -> List[float]:
        """Direct VLB spreads first hops uniformly over the nodes; the
        routing-miss port carries no load in the analytic model."""
        return [1.0 / self.num_nodes] * self.num_nodes + [0.0]


class VLBTransit(Element):
    """Internal-port forwarding: steer by the MAC-encoded output node."""

    def __init__(self, self_node: int, num_nodes: int, name: str = ""):
        if num_nodes < 2:
            raise ConfigurationError("cluster needs >= 2 nodes")
        if not 0 <= self_node < num_nodes:
            raise ConfigurationError("self_node out of range")
        self.n_outputs = num_nodes  # one per node; self = local egress
        super().__init__(name or "VLBTransit(n%d)" % self_node)
        self.self_node = self_node
        self.num_nodes = num_nodes
        self.delivered = 0
        self.forwarded = 0

    def process(self, packet: Packet, port: int) -> None:
        output = decode_output_node(packet)
        if output >= self.num_nodes:
            self.drop(packet)
            return
        if output == self.self_node:
            self.delivered += 1
        else:
            self.forwarded += 1
        self.push(packet, output)

    # Queue-to-queue move only: no header processing (Sec. 6.1), so the
    # inherited zero cost terms are correct.

    def output_probabilities(self) -> List[float]:
        """MAC-steered output nodes are uniform under VLB."""
        return [1.0 / self.num_nodes] * self.num_nodes
