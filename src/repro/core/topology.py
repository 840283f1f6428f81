"""Cluster interconnect topologies and the Fig. 3 cost model.

The paper picks, per configuration: a **full mesh** while the per-server
fanout allows directly cabling all servers, then a **k-ary n-fly**
(generalized butterfly) with extra intermediate servers; a **torus** was
evaluated and rejected (larger clusters for the same port count); and a
**switched cluster** of strictly non-blocking Clos-arranged commodity
Ethernet switches was rejected on cost and on needing load-sensitive
routing in switches (Sec. 3.3).

Cost model
----------

* An I/O server handles ``s`` external ports (processing rate 3sR).
* Mesh: feasible while ``M - 1 <= fanout`` with ``M = ceil(N/s)`` servers;
  internal links need only 2sR/M, so 1 G ports suffice at scale.
* n-fly: ``n = ceil(log_k M)`` stages.  Each intermediate server is
  processing-limited: it can switch at most 3sR, while VLB sends every
  packet across the fabric twice, so each stage needs at least
  ``2NR / 3sR`` servers (the fanout bound M/k is usually looser).  This
  reproduces the paper's "2 intermediate servers per port at N = 1024
  with current servers" data point: 3 stages x 2/3 server/port.
* Torus: a k-ary d-cube; VLB's two phases average ~d*k/4 hops each, every
  hop consuming switching capacity, which is why the torus needs more
  servers than the fly for the same N.
* Switched cluster: N servers for processing plus a strictly non-blocking
  Clos of 48-port switches, converted to server-equivalents at 4 Arista
  ports per server ($500 x 4 = $2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .. import calibration as cal
from ..errors import TopologyError

#: VLB forwards every packet across the interconnect twice (two phases).
_VLB_PHASES = 2
#: Per-server processing budget in port-equivalents (Sec. 3.2: 3R per port).
_PROCESSING_FACTOR = 3


@dataclass(frozen=True)
class FullMesh:
    """Directly cable every pair of servers."""

    num_ports: int
    ports_per_server: int
    fanout: int

    def __post_init__(self):
        if self.num_ports < 2:
            raise TopologyError("mesh needs >= 2 external ports")
        if self.ports_per_server < 1 or self.fanout < 1:
            raise TopologyError("ports_per_server and fanout must be >= 1")

    @property
    def io_servers(self) -> int:
        return math.ceil(self.num_ports / self.ports_per_server)

    def feasible(self) -> bool:
        """Does each server have enough NIC ports to reach all others?"""
        return self.io_servers - 1 <= self.fanout

    def total_servers(self) -> int:
        if not self.feasible():
            raise TopologyError(
                "mesh of %d servers exceeds fanout %d"
                % (self.io_servers, self.fanout))
        return self.io_servers

    def internal_link_rate_bps(self, port_rate_bps: float) -> float:
        """2sR/M per internal link (Sec. 3.3)."""
        return (_VLB_PHASES * self.ports_per_server * port_rate_bps
                / self.io_servers)

    def links(self) -> List[Tuple[int, int]]:
        """All directed internal links (i, j), i != j."""
        m = self.io_servers
        return [(i, j) for i in range(m) for j in range(m) if i != j]


@dataclass(frozen=True)
class KAryNFly:
    """A generalized butterfly of server nodes.

    ``k`` is the per-node fanout used inside the fabric (each fly node
    needs k inputs + k outputs, so k <= fanout // 2).
    """

    num_ports: int
    ports_per_server: int
    fanout: int

    def __post_init__(self):
        if self.num_ports < 2:
            raise TopologyError("fly needs >= 2 external ports")
        if self.fanout < 4:
            raise TopologyError("fly needs fanout >= 4 (k >= 2)")

    @property
    def io_servers(self) -> int:
        return math.ceil(self.num_ports / self.ports_per_server)

    @property
    def k(self) -> int:
        return max(2, self.fanout // 2)

    @property
    def stages(self) -> int:
        m = self.io_servers
        if m <= self.k:
            return 1
        return math.ceil(math.log(m, self.k))

    def servers_per_stage(self) -> int:
        """max(fanout bound, processing bound) intermediate servers."""
        fanout_bound = math.ceil(self.io_servers / self.k)
        processing_bound = math.ceil(
            _VLB_PHASES * self.num_ports
            / (_PROCESSING_FACTOR * self.ports_per_server))
        return max(fanout_bound, processing_bound)

    def intermediate_servers(self) -> int:
        return self.stages * self.servers_per_stage()

    def total_servers(self) -> int:
        return self.io_servers + self.intermediate_servers()


@dataclass(frozen=True)
class Torus:
    """A k-ary d-cube of the I/O servers (no extra nodes, longer paths).

    With VLB, the average route crosses ~d*k/4 hops per phase; every hop
    is switching work, so the processing-feasible server count grows with
    the hop count -- the reason the paper chose the fly.
    """

    num_ports: int
    ports_per_server: int
    dimensions: int = 3

    def __post_init__(self):
        if self.num_ports < 2:
            raise TopologyError("torus needs >= 2 external ports")
        if self.dimensions < 1:
            raise TopologyError("torus needs >= 1 dimension")

    @property
    def io_servers(self) -> int:
        return math.ceil(self.num_ports / self.ports_per_server)

    @property
    def radix(self) -> int:
        return max(2, math.ceil(self.io_servers ** (1.0 / self.dimensions)))

    def average_hops(self) -> float:
        return _VLB_PHASES * self.dimensions * self.radix / 4.0

    def total_servers(self) -> int:
        """Grow the cube until aggregate switching capacity covers the
        through-traffic (every server also switches transit packets)."""
        base = self.io_servers
        hops = self.average_hops()
        # Total switching demand: N*R per phase per hop; per-server budget
        # is 3sR of which 2sR is consumed by its own ingress/egress.
        transit_budget_per_server = (_PROCESSING_FACTOR - 2) * self.ports_per_server
        transit_demand_ports = self.num_ports * hops
        needed = math.ceil(transit_demand_ports / max(transit_budget_per_server, 1e-9))
        return max(base, needed)


@dataclass(frozen=True)
class ClosReference:
    """The rejected switched cluster: servers + non-blocking switch Clos."""

    num_ports: int
    switch_ports: int = cal.SWITCH_PORTS

    def __post_init__(self):
        if self.num_ports < 1:
            raise TopologyError("need >= 1 port")
        if self.switch_ports < 4:
            raise TopologyError("switches need >= 4 ports")

    def switch_count_ports(self) -> int:
        """Total switch ports in a strictly non-blocking fabric for
        ``num_ports`` endpoints: one switch while it fits, else a 3-stage
        Clos with m = 2n - 1 middle switches, recursing (5-stage, ...)
        when a middle switch would itself exceed the port count."""
        return self._clos_ports(self.num_ports)

    def _clos_ports(self, n_endpoints: int) -> int:
        p = self.switch_ports
        if n_endpoints <= p:
            return p  # one switch
        # Ingress switches expose n endpoint ports and m = 2n - 1 uplinks,
        # n + m <= p  ->  n = (p + 1) // 3.
        n = (p + 1) // 3
        m = 2 * n - 1
        ingress = math.ceil(n_endpoints / n)
        # Ingress + egress stages, plus m middle fabrics of `ingress`
        # ports each (a single switch or a recursive Clos).
        return 2 * ingress * p + m * self._clos_ports(ingress)

    def equivalent_servers(self) -> int:
        """Cluster cost in server units (Fig. 3's '48-port switches' curve)."""
        ports_per_server = cal.SERVER_COST_USD // cal.ARISTA_PORT_COST_USD
        return self.num_ports + math.ceil(
            self.switch_count_ports() / ports_per_server)


def switched_cluster_equivalent_servers(num_ports: int) -> int:
    """Convenience wrapper used by the Fig. 3 bench."""
    return ClosReference(num_ports).equivalent_servers()


def balanced_partitions(num_nodes: int, num_partitions: int) -> List[int]:
    """Assign cluster nodes to simulation partitions, contiguously.

    Returns ``assignment[node_id] -> partition_id`` with partition sizes
    differing by at most one and node ids contiguous per partition (node
    0 in partition 0).  Contiguity keeps the mapping stable and obvious
    in reports; in a full mesh with uniform traffic any balanced split
    yields the same cross-partition load, so nothing fancier is needed.
    """
    if num_nodes < 1:
        raise TopologyError("need >= 1 node to partition")
    if not 1 <= num_partitions <= num_nodes:
        raise TopologyError(
            "partition count must be in [1, %d], got %r"
            % (num_nodes, num_partitions))
    base, extra = divmod(num_nodes, num_partitions)
    assignment: List[int] = []
    for pid in range(num_partitions):
        size = base + (1 if pid < extra else 0)
        assignment.extend([pid] * size)
    return assignment
