"""A cluster node in the packet-level simulation.

Each node plays all three VLB roles (Fig. 2): *input* (full IP processing,
output-node selection, path choice), *intermediate* (queue-to-queue move,
steering by the MAC-encoded node id), and *output* (transmit on the
external line).  Path choice is :func:`repro.core.vlb.first_hop`, the
adaptive Direct VLB decision, fed from this node's links: available = up
and backlogged less than the busy threshold, load = queued bits.  With
flowlets (Sec. 6.1) the path is pinned per flow; without, the same rule
runs unpinned per packet -- the reordering ablation the paper reports
(5.5 % vs 0.15 %).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..net.addresses import INTERNED_MACS, MACAddress, interned_mac
from ..net.packet import Packet
from ..obs.metrics import active_registry
from ..obs.trace import TRACE_ANNOTATION
from ..simnet.engine import Simulator
from ..simnet.links import Link
from ..units import usec
from .flowlet import FlowletTable
from .latency import server_latency_usec
from .mac_encoding import encode_output_node
from .vlb import first_hop

#: :mod:`repro.core.mac_encoding`'s rule, inline: the low MAC byte.
_NODE_ID_MASK = MACAddress.NODE_ID_MASK
_KEEP_MAC = ~_NODE_ID_MASK


class ClusterNode:
    """One server of the cluster router (DES behavior)."""

    #: Per-frame profile chargers; set only under a registry with a
    #: span profiler.
    _prof_frames = None

    def __init__(self, node_id: int, sim: Simulator, num_nodes: int,
                 rng: random.Random, link_busy_threshold_sec: float,
                 use_flowlets: bool = True, metrics=None):
        self.node_id = node_id
        self.sim = sim
        self.num_nodes = num_nodes
        #: Node ids the low MAC byte can carry (a run refuses more nodes).
        self._encodable = min(num_nodes, _NODE_ID_MASK + 1)
        self.rng = rng
        self.flowlets = FlowletTable() if use_flowlets else None
        #: Outgoing internal links, keyed by destination node id.
        self.links: Dict[int, Link] = {}
        links = self.links
        #: Path choice's load oracle, bound once (it runs per detour).
        self._queued_bits = lambda peer: links[peer].queued_bits()
        #: Optional rate-limited external line; when set, egress packets
        #: serialize through it (and can be dropped under contention),
        #: which is what makes the fairness guarantee measurable.
        self.egress_link: Optional[Link] = None
        #: Called when a packet exits this node's external port.
        self.egress_callback: Optional[Callable[[Packet, float], None]] = None
        self.link_busy_threshold_sec = link_busy_threshold_sec
        #: What this server adds in each role, fixed for the run (local
        #: delivery sums two delays, in that order: floats).
        self._input_sec = usec(server_latency_usec("input"))
        self._output_sec = usec(server_latency_usec("output"))
        self._intermediate_sec = usec(server_latency_usec("intermediate"))
        self._local_sec = self._input_sec + self._output_sec
        self.ingress_packets = 0
        self.egress_packets = 0
        self.intermediate_packets = 0
        self.dropped = 0
        #: False once the server has crashed: every packet that touches
        #: the node (arriving, queued, or scheduled inside it) is lost.
        self.alive = True
        #: This server's own ``(time, alive)`` transitions, so a delivery
        #: applied late (:meth:`Simulator.run_as_of`) can ask what
        #: ``alive`` was at its timestamp.  Empty without faults.
        self._transitions: List[Tuple[float, bool]] = []
        #: Next hops this node considers unreachable (failed peers or
        #: cables); path choice routes around them with purely local
        #: information, as VLB permits.
        self.failed_hops = set()
        # Observability: resolved once; ``self.obs`` is None unless an
        # enabled registry was passed in (or is globally active), so the
        # per-packet cost of disabled instrumentation is one check.
        registry = metrics if metrics is not None else active_registry()
        self.obs = registry if registry.enabled else None
        if self.obs is not None:
            self._hop_latency = registry.histogram(
                "vlb_hop_latency_usec",
                help="per-hop latency by receiving role")
            self._path_hops = registry.histogram(
                "vlb_path_hops", help="nodes touched per delivered packet")
            self._drop_counter = registry.counter(
                "node_drops", help="packets lost, by node and cause")
            self._tracer = registry.tracer
            # Pre-bound per-role charge closures and per-node trace
            # sites: the label sets and names are fixed per node, so
            # they are resolved once instead of per packet hop.
            self._observe_role = {
                role: self._hop_latency.bind(role=role)
                for role in ("intermediate", "output")}
            self._observe_path_hops = self._path_hops.bind()
            self._sites = {
                site: "node%d.%s" % (node_id, site)
                for site in ("input", "tx", "intermediate", "output",
                             "egress_q", "egress")}
            # Span profiler frames (None unless the registry carries a
            # profiler): one ``charge(packet)`` per frame, charging the
            # simulated *microseconds* since the packet's ``prof_t``
            # under ``node<N>`` (so the collapsed stacks read as
            # wall-clock) and advancing the stamp.
            profiler = registry.profiler
            node_frame = "node%d" % node_id
            self._prof_frames = (
                {frame: profiler.bind_stamp(sim, node_frame, frame)
                 for frame in ("input", "intermediate", "link",
                               "output", "egress_line", "reorder")}
                if profiler is not None else None)

    # -- wiring -------------------------------------------------------------

    def connect(self, dst_node_id: int, link: Link) -> None:
        if dst_node_id == self.node_id:
            raise SimulationError("node cannot link to itself")
        self.links[dst_node_id] = link

    # -- accounting -----------------------------------------------------------

    def _count_drop(self, reason: str, amount: int = 1) -> None:
        """Book ``amount`` lost packets (and attribute the cause when
        observability is on)."""
        self.dropped += amount
        if self.obs is not None and amount:
            self._drop_counter.inc(amount, node=self.node_id, reason=reason)

    # -- failure --------------------------------------------------------------

    def fail(self) -> int:
        """Crash this server.  Packets queued on its transmit links are
        lost (counted here); anything later scheduled inside the node is
        dropped on arrival.  Returns the number of packets flushed."""
        self.alive = False
        self._transitions.append((self.sim.now, False))
        flushed = 0
        for link in self.links.values():
            flushed += link.flush()
        if self.egress_link is not None:
            flushed += self.egress_link.flush()
        self._count_drop("crash_flush", flushed)
        return flushed

    def recover(self) -> None:
        """Bring a crashed server back (state, e.g. flowlets, is fresh --
        a rebooted server remembers nothing)."""
        self.alive = True
        self._transitions.append((self.sim.now, True))
        if self.flowlets is not None:
            self.flowlets = FlowletTable(
                delta_sec=self.flowlets.delta_sec,
                max_entries=self.flowlets.max_entries)

    def alive_at(self, time: float) -> bool:
        """Was this server up as of ``time``?  A transition at exactly
        ``time`` counts: fault events are armed before any traffic, so
        the single-heap engine runs them first among equal times."""
        for when, alive in reversed(self._transitions):
            if when <= time:
                return alive
        return True

    # -- path choice ----------------------------------------------------------

    def _link_available(self, next_hop: int) -> bool:
        """Local-information load check: is the link up and unbacklogged?"""
        if next_hop in self.failed_hops:
            return False
        link = self.links[next_hop]
        backlog_sec = link.queued_bits() / link.rate_bps
        return backlog_sec < self.link_busy_threshold_sec

    # -- roles ----------------------------------------------------------------

    def ingress(self, packet: Packet, egress_node: int) -> None:
        """A packet arrives on this node's external line."""
        if not self.alive:
            # A dead server's external port is dark: offered traffic is
            # lost until the port is re-homed or the server recovers.
            self._count_drop("dead_port")
            return
        self.ingress_packets += 1
        packet.ingress_node = self.node_id
        packet.egress_node = egress_node
        packet.arrival_time = self.sim.now
        packet.path = [self.node_id]
        if self.obs is not None:
            now = packet.hop_t = packet.prof_t = self.sim.now
            tracer = self._tracer
            if TRACE_ANNOTATION in packet.annotations:
                # Re-entry: the packet's trace gets this hop appended.
                tracer.maybe_start(packet, now, self._sites["input"],
                                   key=self.node_id)
            else:
                # TraceSampler.maybe_start's keyed rule, inline: ``seen``
                # and this node's count advance, and every
                # ``sample_every``-th packet offered here starts a trace,
                # so the others cost no sampler call.
                seen_by_key = tracer._seen_by_key
                index = seen_by_key.get(self.node_id, 0)
                seen_by_key[self.node_id] = index + 1
                tracer.seen += 1
                if not index % tracer.sample_every:
                    tracer.start_trace(packet, now, self._sites["input"])
        if not 0 <= egress_node < self._encodable:
            encode_output_node(packet, egress_node, self.num_nodes)  # raises
        eth = packet.eth                    # encode_output_node, inline
        mac = eth.dst.value & _KEEP_MAC | egress_node
        eth.dst = INTERNED_MACS.get(mac) or interned_mac(mac)
        if egress_node == self.node_id:
            # Arrived at its own output node: no internal traversal.
            self.sim.schedule_timer(self._local_sec,
                                    partial(self._egress, packet))
            return
        hop = first_hop(self.flowlets, packet, egress_node, self.sim.now,
                        self.node_id, self.num_nodes, self._link_available,
                        self.failed_hops, self._queued_bits, self.rng)
        self.sim.schedule_timer(self._input_sec,
                                partial(self._send, packet, hop))

    def _send(self, packet: Packet, next_hop: int) -> None:
        if not self.alive:
            # The server died while the packet was being processed.
            self._count_drop("died_holding")
            return
        if self.obs is not None:
            if self._prof_frames is not None:
                # Path length 1 means we are still the input node;
                # anything longer means the intermediate role transmits.
                self._prof_frames["input" if len(packet.path) == 1
                                  else "intermediate"](packet)
            trace = packet.annotations.get(TRACE_ANNOTATION)
            if trace is not None:
                trace.hop(self._sites["tx"], self.sim.now)
        if next_hop in self.failed_hops:
            # A dead cable: anything committed to it is lost.
            self._count_drop("cut_cable")
            return
        link = self.links.get(next_hop)
        if link is None:
            raise SimulationError("node %d has no link to %d"
                                  % (self.node_id, next_hop))
        if not link.send(packet):
            self._count_drop("link_overflow")

    def receive_wire(self, wire) -> None:
        """A packet arrives from another partition as a transit record.

        Builds it from the record's unpacked
        :meth:`~repro.net.packet.Packet.to_wire` row and tail,
        re-registers any in-flight path trace with the local
        sampler (so downstream hops keep appending to the same object and
        a later merge can stitch the full path back together), then takes
        the normal internal-receive path.
        """
        packet = Packet.from_wire(wire)
        if self.obs is not None:
            trace = packet.annotations.get(TRACE_ANNOTATION)
            if trace is not None:
                self._tracer.resume(trace)
        self.receive_internal(packet)

    def receive_internal(self, packet: Packet) -> None:
        """A packet arrives on an internal link."""
        # The one receive path, on time or late: a late delivery runs
        # with ``sim.now`` at its timestamp and must see the liveness of
        # that moment, not of the partition clock.
        if not (self.alive_at(self.sim.now) if self._transitions
                else self.alive):
            # In-flight delivery to a crashed server: lost.
            self._count_drop("dead_receiver")
            return
        output = packet.eth.dst.value & _NODE_ID_MASK  # the output node's id
        packet.path.append(self.node_id)
        if self.obs is not None:
            # One internal hop: its latency goes to the role that
            # received it, and the packet's trace, if any, is extended.
            role = "output" if output == self.node_id else "intermediate"
            now = self.sim.now
            if packet.hop_t is not None:
                self._observe_role[role]((now - packet.hop_t) * 1e6)
            packet.hop_t = now
            if self._prof_frames is not None:
                self._prof_frames["link"](packet)
            trace = packet.annotations.get(TRACE_ANNOTATION)
            if trace is not None:
                trace.hop(self._sites[role], now)
        if output == self.node_id:
            self.sim.schedule_timer(self._output_sec,
                                    partial(self._egress, packet))
            return
        # Intermediate role: queue-to-queue move, steer by MAC.
        self.intermediate_packets += 1
        self.sim.schedule_timer(self._intermediate_sec,
                                partial(self._send, packet, output))

    def _egress(self, packet: Packet) -> None:
        if not self.alive:
            self._count_drop("dead_egress")
            return
        if self._prof_frames is not None:
            self._prof_frames["output"](packet)
        if self.egress_link is not None:
            if self.obs is not None:
                trace = packet.annotations.get(TRACE_ANNOTATION)
                if trace is not None:
                    trace.hop(self._sites["egress_q"], self.sim.now)
            if not self.egress_link.send(packet):
                self._count_drop("egress_overflow")
            return
        self._egress_done(packet)

    def _egress_done(self, packet: Packet) -> None:
        if not self.alive:
            self._count_drop("dead_egress")
            return
        self.egress_packets += 1
        packet.departure_time = self.sim.now
        if self.obs is not None:
            if self._prof_frames is not None:
                # Non-zero only when an external line serialized it.
                self._prof_frames["egress_line"](packet)
            self._observe_path_hops(len(packet.path))
            trace = packet.annotations.get(TRACE_ANNOTATION)
            if trace is not None:
                trace.hop(self._sites["egress"], self.sim.now)
        if self.egress_callback is not None:
            self.egress_callback(packet, self.sim.now)
