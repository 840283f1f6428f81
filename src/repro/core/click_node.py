"""A complete RouteBricks node built out of Click elements, and a cluster
of them wired port-to-port.

This is the functional end-to-end router: the configuration mirrors RB4's
(Sec. 6.1, 8) --

* external ingress: PollDevice -> CheckIPHeader -> DecIPTTL -> VLBIngress
  -> ToDevice toward the chosen next hop (or the local external TX);
  VLBIngress reads those ToDevices' TX rings as its link state, so a
  full ring toward the output node detours via the least-loaded peer;
  routing misses feed an ICMP Destination Unreachable generator, TTL
  expiry an ICMP Time Exceeded generator;
* internal ingress: PollDevice -> VLBTransit -> ToDevice (steering by the
  MAC-encoded output node; no IP processing);
* the cluster moves packets between nodes by draining each internal TX
  ring into the peer's RX ring (the "wire").

Packet movement is driven in rounds (the Click schedulers' rounds), which
is sufficient for functional verification; timing behavior lives in the
DES (`repro.core.router`).
"""

from __future__ import annotations

from typing import Dict, List

from ..click.elements.cluster import VLBIngress, VLBTransit
from ..click.elements.device import PollDevice, ToDevice
from ..click.elements.icmp import IcmpErrorGenerator
from ..click.elements.ip import CheckIPHeader, DecIPTTL
from ..click.graph import RouterGraph
from ..click.scheduler import Scheduler
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import Server
from ..net.addresses import IPv4Address
from ..routing.table import RoutingTable


class ClickClusterNode:
    """One cluster server running the RB4 Click configuration."""

    def __init__(self, node_id: int, num_nodes: int, table: RoutingTable,
                 use_flowlets: bool = True, seed: int = 0):
        if num_nodes < 2:
            raise ConfigurationError("cluster needs >= 2 nodes")
        if num_nodes > NEHALEM.max_ports:
            raise ConfigurationError(
                "a full mesh of %d nodes exceeds the server's %d ports"
                % (num_nodes, NEHALEM.max_ports))
        self.node_id = node_id
        self.num_nodes = num_nodes
        # Port 0 is the external line; port p (1 <= p < num_nodes) leads
        # to node (node_id + p) mod num_nodes.
        self.server = Server(NEHALEM, num_ports=num_nodes, queues_per_port=1)
        for port in self.server.ports[1:]:
            port.mac_steering = True
        self.graph = RouterGraph()
        self.scheduler = Scheduler()
        self._build(table, use_flowlets, seed)
        self._pin_to_cores()

    # -- port arithmetic ----------------------------------------------------

    def port_toward(self, peer: int) -> int:
        """The local port index leading to cluster node ``peer``."""
        if peer == self.node_id:
            return 0
        return (peer - self.node_id) % self.num_nodes

    def peer_of_port(self, port: int) -> int:
        """The cluster node at the far end of local port ``port``."""
        if port == 0:
            raise ConfigurationError("port 0 is the external line")
        return (self.node_id + port) % self.num_nodes

    # -- graph construction ---------------------------------------------------

    def _build(self, table: RoutingTable, use_flowlets: bool,
               seed: int) -> None:
        g = self.graph
        router_address = IPv4Address((192 << 24) | (88 << 16) | self.node_id)

        # One ToDevice per local port.
        self.to_devices: List[ToDevice] = []
        for port_index in range(self.num_nodes):
            device = g.add(ToDevice(self.server.port(port_index),
                                    name="tx-p%d" % port_index))
            self.to_devices.append(device)

        # External ingress chain.
        self.ext_poll = g.add(PollDevice(self.server.port(0),
                                         name="rx-ext"))
        check = g.add(CheckIPHeader(name="check"))
        ttl = g.add(DecIPTTL(name="ttl"))
        self.ingress = g.add(VLBIngress(
            table, self_node=self.node_id, num_nodes=self.num_nodes,
            tx_rings=[self.to_devices[self.port_toward(node)].queue
                      for node in range(self.num_nodes)],
            use_flowlets=use_flowlets, seed=seed, name="vlb-ingress"))
        ttl_icmp = g.add(IcmpErrorGenerator(router_address, "time-exceeded",
                                            name="icmp-ttl"))
        miss_icmp = g.add(IcmpErrorGenerator(router_address, "unreachable",
                                             name="icmp-miss"))
        self.ext_poll.connect_to(check)
        check.connect_to(ttl)
        ttl.connect_to(self.ingress, output=0)
        ttl.connect_to(ttl_icmp, output=1)
        ttl_icmp.connect_to(self.to_devices[0])
        # VLBIngress output i goes toward cluster node i.
        for node in range(self.num_nodes):
            self.ingress.connect_to(self.to_devices[self.port_toward(node)],
                                    output=node)
        self.ingress.connect_to(miss_icmp, output=self.num_nodes)
        miss_icmp.connect_to(self.to_devices[0])

        # Internal ingress chains: one per internal port.
        self.transit_polls: List[PollDevice] = []
        for port_index in range(1, self.num_nodes):
            poll = g.add(PollDevice(self.server.port(port_index),
                                    name="rx-p%d" % port_index))
            transit = g.add(VLBTransit(self_node=self.node_id,
                                       num_nodes=self.num_nodes,
                                       name="transit-p%d" % port_index))
            poll.connect_to(transit)
            for node in range(self.num_nodes):
                transit.connect_to(
                    self.to_devices[self.port_toward(node)]
                    if node != self.node_id else self.to_devices[0],
                    output=node)
            self.transit_polls.append(poll)
        g.validate()

    def _pin_to_cores(self) -> None:
        """Statically assign every poll chain to its own core (rule 1:
        one core per queue; rule 2 holds because each chain is push-only
        from poll to ToDevice on the same thread)."""
        cores = self.server.cores
        polls = [self.ext_poll] + list(self.transit_polls)
        if len(polls) > len(cores):
            raise ConfigurationError("more input queues than cores")
        for index, poll in enumerate(polls):
            thread = self.scheduler.spawn(cores[index])
            thread.add_poll_task(poll)
            # The push chain downstream of a poll runs on the same core;
            # own it so its cycle costs are charged there (rule 2).
            if poll is self.ext_poll:
                for name in ("check", "ttl", "vlb-ingress", "icmp-ttl",
                             "icmp-miss"):
                    thread.own(self.graph[name])
            else:
                thread.own(self.graph["transit-p%d" % index])
        # TX queues: spread ownership over the same threads (each TX queue
        # is touched by every ingress chain in this functional model; the
        # DES-level model charges the contention cost, the functional
        # model only tracks ownership for reporting).
        for index, device in enumerate(self.to_devices):
            self.scheduler.threads[index % len(self.scheduler.threads)].own(
                device)

    # -- execution ------------------------------------------------------------

    def run_round(self, now: float = 0.0) -> int:
        """One scheduling round on every thread; returns packets moved."""
        self.ingress.now = now
        return self.scheduler.run_rounds(1)

    def cycles_used(self) -> float:
        """Total CPU cycles charged across this node's cores."""
        return sum(core.cycles_used for core in self.server.cores)

    def cost_breakdown(self, packet_bytes: float = 64) -> List[dict]:
        """Traversal-weighted per-element resource costs of this node's
        graph (one row per element, from :func:`repro.costs.element_costs`)."""
        from ..costs import element_costs
        return element_costs(self.graph, packet_bytes)

    def drain_external(self) -> List:
        """Packets leaving on the external line."""
        return self.to_devices[0].drain()

    def drain_toward(self, peer: int) -> List:
        """Packets queued on the internal port toward ``peer``."""
        return self.to_devices[self.port_toward(peer)].drain()


class ClickCluster:
    """A full mesh of :class:`ClickClusterNode` with explicit wiring."""

    def __init__(self, num_nodes: int, table: RoutingTable,
                 use_flowlets: bool = True, seed: int = 0):
        self.nodes = [ClickClusterNode(i, num_nodes, table,
                                       use_flowlets=use_flowlets,
                                       seed=seed + i)
                      for i in range(num_nodes)]
        self.num_nodes = num_nodes
        self.delivered: Dict[int, List] = {i: [] for i in range(num_nodes)}

    def inject(self, node_id: int, packet) -> bool:
        """A packet arrives on a node's external line."""
        return self.nodes[node_id].server.port(0).receive(packet)

    def _wire(self) -> int:
        """Move packets across every internal cable (TX ring -> peer RX)."""
        moved = 0
        for node in self.nodes:
            for peer_index in range(self.num_nodes):
                if peer_index == node.node_id:
                    continue
                for packet in node.drain_toward(peer_index):
                    peer = self.nodes[peer_index]
                    peer.server.port(
                        peer.port_toward(node.node_id)).receive(packet)
                    moved += 1
        return moved

    def run(self, rounds: int = 8, now: float = 0.0) -> int:
        """Alternate scheduling rounds and wire transfers until quiescent
        or the round budget is spent.  Returns total packets delivered."""
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        total = 0
        for _ in range(rounds):
            moved = 0
            for node in self.nodes:
                moved += node.run_round(now)
            moved += self._wire()
            for node in self.nodes:
                out = node.drain_external()
                self.delivered[node.node_id].extend(out)
                total += len(out)
            if moved == 0:
                break
        return total
