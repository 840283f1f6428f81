"""Device elements: the NIC-facing edge of the graph.

The RouteBricks Click extension binds polling and sending elements to a
particular NIC *queue* rather than a port (Sec. 4.2), which is what lets
the scheduler enforce one-core-per-queue.  ``PollDevice`` implements
poll-driven batching (up to ``kp`` packets per poll); ``ToDevice`` relays
descriptors to the NIC in batches of ``kn`` (NIC-driven batching lives in
the driver, modeled by the transmit path charging its amortized cost).

Their cost terms come from :func:`repro.costs.rx_terms` and
:func:`~repro.costs.tx_terms`: the RX element carries the
amortized poll bookkeeping plus the packet-movement baseline (CPU and
half of each bus term), the TX element the descriptor-relay share and
the other bus half -- so an element-wise pipeline sum reproduces the
analytic application totals.
"""

from __future__ import annotations

from typing import List

from ... import calibration as cal
from ...costs import rx_terms, tx_terms
from ...errors import ConfigurationError
from ...hw.nic import NicPort, NicQueue
from ...net.packet import Packet
from ...obs.trace import TRACE_ANNOTATION
from ..element import Element


class PollDevice(Element):
    """Poll packets from one RX queue of one port.

    A schedulable task: the owning thread calls :meth:`run_task`, which
    polls up to ``kp`` packets and pushes each through the graph.  Returns
    the number of packets moved so the scheduler can track empty polls
    (needed to factor idle polling out of CPU-load measurements, Sec. 5.3).
    """

    def __init__(self, port: NicPort, queue_id: int = 0,
                 kp: int = cal.DEFAULT_KP, name: str = ""):
        if not 0 <= queue_id < port.num_queues:
            raise ConfigurationError(
                "port %d has no RX queue %d" % (port.port_id, queue_id))
        if kp < 1:
            raise ConfigurationError("kp must be >= 1")
        super().__init__(name or "PollDevice(p%d,q%d)" % (port.port_id, queue_id))
        self.port = port
        self.queue: NicQueue = port.rx_queues[queue_id]
        self.kp = kp
        self.empty_polls = 0
        self.total_polls = 0
        self.set_cost_terms(*rx_terms(kp))

    def run_task(self) -> int:
        """One poll: move up to ``kp`` packets into the graph."""
        self.total_polls += 1
        batch = self.queue.pop_batch(self.kp)
        if not batch:
            self.empty_polls += 1
            return 0
        for packet in batch:
            self.packets_in += 1
            self.bytes_in += packet.length
            trace = packet.annotations.get(TRACE_ANNOTATION)
            if trace is not None:
                trace.hop(self.name)  # run_task bypasses receive()
            self.push(packet)
        return len(batch)

    def process(self, packet: Packet, port: int) -> None:
        raise ConfigurationError("PollDevice has no inputs")


class ToDevice(Element):
    """Send packets to one TX queue of one port."""

    n_outputs = 0

    def __init__(self, port: NicPort, queue_id: int = 0,
                 kn: int = cal.DEFAULT_KN, name: str = ""):
        if not 0 <= queue_id < port.num_queues:
            raise ConfigurationError(
                "port %d has no TX queue %d" % (port.port_id, queue_id))
        if not 1 <= kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError("kn must be in [1, %d]" % cal.MAX_NIC_BATCH)
        super().__init__(name or "ToDevice(p%d,q%d)" % (port.port_id, queue_id))
        self.port = port
        self.queue_id = queue_id
        self.queue: NicQueue = port.tx_queues[queue_id]
        self.kn = kn
        self.set_cost_terms(*tx_terms(kn))

    def process(self, packet: Packet, port: int) -> None:
        if not self.port.transmit(packet, self.queue_id):
            self.drop(packet, "tx_ring_full")

    def drain(self) -> List[Packet]:
        """Pop everything this element has queued for the wire."""
        out = []
        while True:
            packet = self.queue.pop()
            if packet is None:
                break
            out.append(packet)
        return out
