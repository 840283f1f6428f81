"""DES integration: apply a fault schedule to a running cluster.

The injector turns :class:`~repro.faults.schedule.FaultSchedule` events
into simulator callbacks against the live :class:`~repro.core.node.ClusterNode`
objects, modelling what each failure physically does:

* **node_down** -- the server halts *now*: its transmit queues are
  flushed (those packets are counted as losses), anything scheduled
  inside it drops on arrival.  Peers only notice after
  ``detection_latency_sec`` (timeout-driven local detection -- VLB needs
  no global view), then stop choosing it as a next hop.
* **node_up** -- the server reboots with fresh state; peers re-admit it
  after the same detection latency.
* **link_down / link_up** -- carrier loss on a directed cable is detected
  locally and immediately by the transmitting NIC; queued packets on the
  cut cable are lost.
* **nic_stall** -- the node's transmit rings wedge for a while: packets
  queue (and overflow) but nothing is unplugged and no detour happens.

If a :class:`~repro.core.control.ClusterManager` is attached, node
failures/recoveries also drive the control plane after the detection
latency plus ``fib_push_latency_sec``, and each reaction's
:class:`~repro.core.control.ProvisionUpdate` is recorded with its
convergence timestamp -- making control-plane convergence a measurable
quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from ..errors import ConfigurationError
from ..results import RunResult
from .schedule import (
    FaultEvent,
    FaultSchedule,
    LINK_DOWN,
    LINK_UP,
    NIC_STALL,
    NODE_DOWN,
    NODE_UP,
)

#: Default peer-failure detection latency (timeout-based heartbeating at
#: cluster RTT scales; tens of microseconds in-rack would be aggressive,
#: a millisecond is conservative).
DEFAULT_DETECTION_LATENCY_SEC = 1e-3


@dataclass(frozen=True)
class ConvergenceRecord(RunResult):
    """One control-plane reaction, timestamped."""

    _summary_fields = ("event", "node", "failed_at", "converged_at")

    event: str                 # node_down | node_up
    node: int
    failed_at: float           # when the fault happened
    detected_at: float         # when peers / control plane saw it
    converged_at: float        # when fresh FIBs finished distributing
    live_nodes: int

    @property
    def convergence_sec(self) -> float:
        return self.converged_at - self.failed_at


@dataclass
class FaultLog(RunResult):
    """What the injector actually did to the running simulation."""

    _summary_fields = ("events_applied", "flushed_packets")

    events_applied: int = 0
    flushed_packets: int = 0
    #: Node events (and their peer detections) run for a node that lives
    #: in another partition: bookkeeping the owner's injector also runs,
    #: so a sharded run subtracts them from its event count.
    shadow_events: int = 0
    applied: List[FaultEvent] = field(default_factory=list)
    convergence: List[ConvergenceRecord] = field(default_factory=list)


class FaultInjector:
    """Wire a cluster-wide :class:`FaultSchedule` into a simulator and
    the nodes it owns.

    ``nodes`` are the nodes living in ``sim``; ``num_nodes`` is the size
    of the whole cluster when that is more (one partition of a sharded
    run -- by default the injector owns every node).  The schedule always
    describes the whole cluster, and responsibilities split by ownership:

    * The injector that **owns** a faulted node/link applies the physical
      effect (fail/recover/flush/stall) and counts it in its log, so the
      merged ``events_applied`` / ``flushed_packets`` of a sharded run
      count each event once, by its owner.
    * **Every** injector tracks cluster-wide node aliveness in
      ``_nodes_down`` -- bookkeeping driven purely by the schedule, so all
      partitions agree without communication -- because ``link_up`` must
      know whether the far end is alive even when that node is remote.
    * Peer detection (``failed_hops`` updates after the detection
      latency) runs on every injector for its *own* nodes, which together
      cover the whole peer set.
    * A node event and its peer detection are one event each in a single
      heap but one per partition in a sharded run; the non-owners' copies
      are counted in ``log.shadow_events`` so the run can report the
      single heap's ``events_run``.
    """

    def __init__(self, sim, nodes, schedule: FaultSchedule,
                 manager=None,
                 detection_latency_sec: float = DEFAULT_DETECTION_LATENCY_SEC,
                 fib_push_latency_sec: float = 0.0,
                 num_nodes: int = None):
        if not (0 <= detection_latency_sec < math.inf
                and 0 <= fib_push_latency_sec < math.inf):
            raise ConfigurationError("latencies must be finite and "
                                     "non-negative")
        self.sim = sim
        self.nodes = {node.node_id: node for node in nodes}
        schedule.validate(len(self.nodes) if num_nodes is None
                          else num_nodes)
        self.schedule = schedule
        self.manager = manager
        self.detection_latency_sec = detection_latency_sec
        self.fib_push_latency_sec = fib_push_latency_sec
        self.log = FaultLog()
        self._nodes_down = set()
        #: Directed links currently cut by an explicit link fault --
        #: a node recovery must not resurrect an independently cut cable.
        self._links_down = set()
        for event in schedule.events():
            # Node events are armed everywhere (bookkeeping + local peer
            # detection); link and NIC events only where they happen.
            if event.kind in (NODE_DOWN, NODE_UP) or self._owns(event):
                sim.schedule_timer_at(event.time,
                                      lambda e=event: self._apply(e))

    def _owns(self, event: FaultEvent) -> bool:
        """Does the faulted node (a link's transmit side) live here?"""
        target = event.target
        if event.kind in (LINK_DOWN, LINK_UP):
            target = target[0]
        return target in self.nodes

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            NODE_DOWN: self._node_down,
            NODE_UP: self._node_up,
            LINK_DOWN: self._link_down,
            LINK_UP: self._link_up,
            NIC_STALL: self._nic_stall,
        }[event.kind]
        handler(event)
        if self._owns(event):
            self.log.events_applied += 1
            self.log.applied.append(event)
        else:
            self.log.shadow_events += 1

    # -- handlers ------------------------------------------------------------

    def _peers(self, node_id: int):
        return (self.nodes[i] for i in sorted(self.nodes) if i != node_id)

    def _node_down(self, event: FaultEvent) -> None:
        target = event.target
        self._nodes_down.add(target)
        if target in self.nodes:
            self.log.flushed_packets += self.nodes[target].fail()

        def peers_detect():
            for peer in self._peers(target):
                peer.failed_hops.add(target)

        self._after_detection(NODE_DOWN, target, peers_detect)

    def _node_up(self, event: FaultEvent) -> None:
        target = event.target
        self._nodes_down.discard(target)
        if target in self.nodes:
            self.nodes[target].recover()

        def peers_detect():
            for peer in self._peers(target):
                if (peer.node_id, target) not in self._links_down:
                    peer.failed_hops.discard(target)

        self._after_detection(NODE_UP, target, peers_detect)

    def _after_detection(self, kind: str, node_id: int, peers_detect) -> None:
        """Local peers notice after the detection latency; the control
        plane (if any) reacts a FIB push later."""
        failed_at = self.sim.now
        detect = self.detection_latency_sec

        def detected():
            peers_detect()
            if node_id not in self.nodes:
                self.log.shadow_events += 1

        self.sim.schedule_timer(detect, detected)
        if self.manager is not None:
            self.sim.schedule_timer(
                detect + self.fib_push_latency_sec,
                lambda: self._converge(kind, node_id, failed_at))

    def _converge(self, kind: str, node_id: int, failed_at: float) -> None:
        react = (self.manager.handle_node_failure if kind == NODE_DOWN
                 else self.manager.handle_node_recovery)
        update = react(node_id)
        self.log.convergence.append(ConvergenceRecord(
            event=kind, node=node_id, failed_at=failed_at,
            detected_at=failed_at + self.detection_latency_sec,
            converged_at=self.sim.now,
            live_nodes=update.live_nodes))

    def _link_down(self, event: FaultEvent) -> None:
        src, dst = event.target
        node = self.nodes[src]
        self._links_down.add((src, dst))
        node.failed_hops.add(dst)          # carrier loss: local, immediate
        link = node.links.get(dst)
        if link is not None:
            flushed = link.flush()
            node._count_drop("cable_flush", flushed)
            self.log.flushed_packets += flushed

    def _link_up(self, event: FaultEvent) -> None:
        src, dst = event.target
        self._links_down.discard((src, dst))
        # Only clear the hop if the far-end server is not itself down.
        if dst not in self._nodes_down:
            self.nodes[src].failed_hops.discard(dst)

    def _nic_stall(self, event: FaultEvent) -> None:
        node = self.nodes[event.target]
        for link in node.links.values():
            link.stall(event.duration_sec)
        if node.egress_link is not None:
            node.egress_link.stall(event.duration_sec)
