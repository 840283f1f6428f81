"""Multi-queue NIC model.

The paper's single-server scaling hinges on multi-queue NICs (Sec. 4.2):
with one receive and one transmit queue per core per port, every queue is
accessed by exactly one core and every packet is handled by exactly one
core.  The model provides:

* :class:`NicQueue` -- a bounded descriptor ring that records which cores
  access it (so the scheduler can detect rule violations and the
  performance model can charge lock-contention penalties),
* :class:`NicPort` -- a port with per-queue RSS flow assignment, or
  MAC-based assignment for the cluster's output-node encoding trick
  (Sec. 6.1),
* :class:`Nic` -- a card holding one or two ports that share a PCIe slot's
  payload budget (12.3 Gbps on the prototype's PCIe1.1 x8 slots).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..calibration import NIC_PAYLOAD_LIMIT_BPS
from ..errors import CapacityError, ConfigurationError
from ..net.flows import queue_for_flow
from ..net.packet import Packet

DEFAULT_RING_SLOTS = 512


class NicQueue:
    """A bounded RX or TX descriptor ring.

    Drops (rather than blocks) on overflow, as a real ring does; drop and
    enqueue counts feed the loss-free-rate measurements.
    """

    def __init__(self, queue_id: int, direction: str,
                 capacity: int = DEFAULT_RING_SLOTS):
        if direction not in ("rx", "tx"):
            raise ConfigurationError("queue direction must be rx|tx")
        if capacity < 1:
            raise ConfigurationError("ring capacity must be >= 1")
        self.queue_id = queue_id
        self.direction = direction
        self.capacity = capacity
        self._ring = deque()
        #: Count-only occupancy used by ``TimedForwardingRun``: descriptors
        #: whose payload nobody will inspect are tracked as an integer
        #: instead of ring entries, so push/pop are O(1) regardless of
        #: burst size.  ``__len__`` and the capacity check see the sum of
        #: both, so token and object descriptors share the ring honestly.
        self._tokens = 0
        self.enqueued = 0
        self.dropped = 0
        self.accessing_cores: Set[int] = set()

    def __len__(self) -> int:
        return len(self._ring) + self._tokens

    def push(self, packet: Packet) -> bool:
        """Append a packet; returns False (and counts a drop) if full."""
        if len(self._ring) >= self.capacity:
            self.dropped += 1
            return False
        self._ring.append(packet)
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Remove and return the oldest packet, or None when empty."""
        if not self._ring:
            return None
        return self._ring.popleft()

    def pop_batch(self, max_packets: int) -> List[Packet]:
        """Remove up to ``max_packets`` packets (poll-driven batching)."""
        if max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        out = []
        while self._ring and len(out) < max_packets:
            out.append(self._ring.popleft())
        return out

    def push_token(self) -> bool:
        """Count-only enqueue: same capacity/drop accounting as
        :meth:`push`, for descriptors whose payload is never read."""
        if len(self._ring) + self._tokens >= self.capacity:
            self.dropped += 1
            return False
        self._tokens += 1
        self.enqueued += 1
        return True

    def pop_tokens(self, max_packets: int) -> int:
        """Remove up to ``max_packets`` token descriptors; returns how
        many came off (the count-only mirror of :meth:`pop_batch`)."""
        tokens = self._tokens
        n = max_packets if tokens > max_packets else tokens
        self._tokens = tokens - n
        return n

    def clear(self) -> None:
        """Drop all queued descriptors, object and token alike (run
        setup: scrub residue left by a previous run on the same port)."""
        self._ring.clear()
        self._tokens = 0

    def note_access(self, core_id: int) -> None:
        """Record that ``core_id`` touches this queue."""
        self.accessing_cores.add(core_id)

    def is_shared(self) -> bool:
        """True if more than one core accesses this queue (rule violation)."""
        return len(self.accessing_cores) > 1


class NicPort:
    """One network port with multiple RX and TX queues."""

    def __init__(self, port_id: int, rate_bps: float, num_queues: int = 1,
                 ring_slots: int = DEFAULT_RING_SLOTS):
        if rate_bps <= 0:
            raise ConfigurationError("port rate must be positive")
        if num_queues < 1:
            raise ConfigurationError("port needs at least one queue")
        self.port_id = port_id
        self.rate_bps = rate_bps
        self.rx_queues = [NicQueue(i, "rx", ring_slots)
                          for i in range(num_queues)]
        self.tx_queues = [NicQueue(i, "tx", ring_slots)
                          for i in range(num_queues)]
        self.rx_bytes = 0
        self.tx_bytes = 0
        #: When set, RX queue selection uses the destination MAC's encoded
        #: node id instead of the flow hash (the Sec. 6.1 trick).
        self.mac_steering = False

    @property
    def num_queues(self) -> int:
        return len(self.rx_queues)

    def classify(self, packet: Packet) -> int:
        """Pick the RX queue for an arriving packet."""
        if self.mac_steering:
            return packet.eth.dst.node_id() % self.num_queues
        if packet.ip is None:
            return packet.packet_id % self.num_queues
        return queue_for_flow(packet.five_tuple(), self.num_queues)

    def receive(self, packet: Packet) -> bool:
        """Deliver an arriving packet into its RX queue; False on drop."""
        self.rx_bytes += packet.length
        return self.rx_queues[self.classify(packet)].push(packet)

    def transmit(self, packet: Packet, queue_id: int = 0) -> bool:
        """Queue a packet for transmission; False on ring overflow."""
        if not 0 <= queue_id < self.num_queues:
            raise ConfigurationError(
                "tx queue %d out of range for port %d" % (queue_id, self.port_id))
        ok = self.tx_queues[queue_id].push(packet)
        if ok:
            self.tx_bytes += packet.length
        return ok

    def drain(self) -> List[Packet]:
        """Pop everything from all TX queues (the wire side of the model)."""
        out = []
        for queue in self.tx_queues:
            while True:
                packet = queue.pop()
                if packet is None:
                    break
                out.append(packet)
        return out


@dataclass
class Nic:
    """A NIC card: up to two ports sharing one PCIe slot's payload budget."""

    nic_id: int
    ports: List[NicPort] = field(default_factory=list)
    payload_limit_bps: float = NIC_PAYLOAD_LIMIT_BPS

    def __post_init__(self):
        if not 1 <= len(self.ports) <= 2:
            raise ConfigurationError("a NIC holds 1 or 2 ports")

    def offered_load_bps(self, elapsed_sec: float) -> float:
        """Aggregate payload rate moved through this NIC (both directions
        counted once each, per the paper's 12.3 Gbps per-NIC observation)."""
        if elapsed_sec <= 0:
            raise ValueError("elapsed time must be positive")
        total_bytes = sum(p.rx_bytes + p.tx_bytes for p in self.ports)
        return total_bytes * 8 / elapsed_sec

    def check_capacity(self, elapsed_sec: float) -> None:
        """Raise :class:`CapacityError` if the PCIe payload budget is blown."""
        load = self.offered_load_bps(elapsed_sec)
        if load > self.payload_limit_bps:
            raise CapacityError(
                "NIC %d offered %.2f Gbps exceeds slot limit %.2f Gbps"
                % (self.nic_id, load / 1e9, self.payload_limit_bps / 1e9))
