"""Rate-limited point-to-point links.

A :class:`Link` models a full-duplex cable direction: serialization at the
link rate, fixed propagation delay, and a bounded output queue.  Internal
cluster links (server NIC port to server NIC port) and external lines both
use this.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..net.packet import Packet
from .engine import Simulator
from .queues import FiniteQueue


class Link:
    """One direction of a cable between two nodes.

    Packets offered while the link is busy wait in a bounded FIFO; overflow
    is dropped (and counted).  Delivery invokes ``deliver`` at the far end
    after serialization + propagation.
    """

    def __init__(self, sim: Simulator, name: str, rate_bps: float,
                 deliver: Callable[[Packet], None],
                 propagation_sec: float = 1e-6,
                 queue_packets: int = 1024):
        if rate_bps <= 0:
            raise ConfigurationError("link rate must be positive")
        if propagation_sec < 0:
            raise ConfigurationError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.deliver = deliver
        self.propagation_sec = propagation_sec
        self.queue = FiniteQueue(queue_packets, name=name + ".q")
        #: Bits waiting in ``queue``, kept in step by send / _start_next /
        #: flush so the per-packet path choice reads it in O(1).
        self._queued_bits = 0
        self.busy = False
        self.stalled = False
        self._stall_end = 0.0
        self.bytes_sent = 0

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; False if the queue overflowed."""
        queue = self.queue
        if self.busy or self.stalled:
            if not queue.offer(packet):
                return False
            self._queued_bits += packet.length * 8
            return True
        # Idle, so the queue is empty (a link neither busy nor stalled has
        # drained it): on the wire at once, booked as offer + poll would.
        queue.enqueued += 1
        if not queue.high_watermark:
            queue.high_watermark = 1
        self._start_next(packet)
        return True

    def _start_next(self, packet: Optional[Packet] = None) -> None:
        if packet is None:
            if self.stalled:
                # A stalled transmit queue (e.g. a wedged NIC ring): packets
                # keep queueing -- and overflowing -- until resume().
                self.busy = False
                return
            packet = self.queue.poll()
            if packet is None:
                self.busy = False
                return
            self._queued_bits -= packet.length * 8
        self.busy = True
        tx_time = packet.length * 8 / self.rate_bps    # on the wire
        self.bytes_sent += packet.length
        # The transmitter is free again once the packet is on the wire.
        self.sim.schedule_timer(tx_time, self._start_next)
        self._schedule_delivery(packet, tx_time)

    def _schedule_delivery(self, packet: Packet, tx_time: float) -> None:
        """Hand the serialized packet to the far end after propagation.

        Subclasses that terminate at a partition boundary (see
        :class:`repro.simnet.partition.CrossLink`) override this to emit a
        transit record instead of scheduling on a peer; queueing,
        serialization, stalls, and flush semantics above stay shared.
        """
        self.sim.schedule_timer(tx_time + self.propagation_sec,
                                partial(self.deliver, packet))

    def stall(self, duration_sec: float) -> None:
        """Stop draining the transmit queue for ``duration_sec``.

        In-flight serialization finishes; queued packets wait (or
        overflow).  Models a NIC transmit-queue stall.
        """
        if duration_sec <= 0:
            raise ConfigurationError("stall duration must be positive")
        self.stalled = True
        self._stall_end = max(self._stall_end, self.sim.now + duration_sec)
        self.sim.schedule_timer(duration_sec, self.resume)

    def resume(self) -> None:
        """Restart transmission once the latest stall has run out
        (idempotent; a no-op while an overlapping stall still holds)."""
        if not self.stalled or self.sim.now < self._stall_end:
            return
        self.stalled = False
        if not self.busy:
            self._start_next()

    def flush(self) -> int:
        """Discard everything queued (a cut cable); returns the count."""
        dropped = 0
        self._queued_bits = 0
        while True:
            packet = self.queue.poll()
            if packet is None:
                return dropped
            dropped += 1

    def queued_bits(self) -> int:
        """Bits currently waiting (used by the flowlet spreader's local
        load estimate)."""
        return self._queued_bits
