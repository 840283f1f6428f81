"""Active queue management: RED and drop-from-front queues.

Production router ports do not run pure drop-tail; Random Early Detection
keeps average occupancy low and desynchronizes TCP flows.  These elements
extend :class:`PacketQueue` with the classic disciplines (Floyd & Jacobson
1993 for RED), giving the dataplane the queue behaviors a programmable
router is expected to offer.
"""

from __future__ import annotations

import random

from ...errors import ConfigurationError
from ...net.packet import Packet
from .standard import PacketQueue


class RedQueue(PacketQueue):
    """Random Early Detection.

    Maintains an EWMA of queue occupancy; arrivals are dropped with
    probability rising linearly from 0 at ``min_thresh`` to ``max_p`` at
    ``max_thresh``, and always beyond ``max_thresh``.  The gentle variant
    (probability rising to 1.0 at 2*max_thresh) is selectable.
    """

    def __init__(self, capacity: int = 1000, min_thresh: int = None,
                 max_thresh: int = None, max_p: float = 0.1,
                 weight: float = 0.002, gentle: bool = True,
                 seed: int = 0, name: str = ""):
        super().__init__(capacity=capacity, name=name)
        self.min_thresh = min_thresh if min_thresh is not None \
            else capacity // 4
        self.max_thresh = max_thresh if max_thresh is not None \
            else capacity // 2
        if not 0 < self.min_thresh < self.max_thresh <= capacity:
            raise ConfigurationError(
                "need 0 < min_thresh < max_thresh <= capacity")
        if not 0 < max_p <= 1:
            raise ConfigurationError("max_p must be in (0, 1]")
        if not 0 < weight <= 1:
            raise ConfigurationError("weight must be in (0, 1]")
        self.max_p = max_p
        self.weight = weight
        self.gentle = gentle
        self.avg = 0.0
        self.early_drops = 0
        self._rng = random.Random(seed)

    def drop_probability(self) -> float:
        """Current early-drop probability from the averaged occupancy."""
        if self.avg < self.min_thresh:
            return 0.0
        if self.avg < self.max_thresh:
            span = self.max_thresh - self.min_thresh
            return self.max_p * (self.avg - self.min_thresh) / span
        if self.gentle and self.avg < 2 * self.max_thresh:
            extra = (self.avg - self.max_thresh) / self.max_thresh
            return self.max_p + (1.0 - self.max_p) * extra
        return 1.0

    def process(self, packet: Packet, port: int) -> None:
        self.avg = (1 - self.weight) * self.avg \
            + self.weight * len(self.fifo)
        probability = self.drop_probability()
        if probability >= 1.0 or (probability > 0
                                  and self._rng.random() < probability):
            self.early_drops += 1
            self.drop(packet)
            return
        if not self.fifo.offer(packet):
            self.drop(packet)


class DropFrontQueue(PacketQueue):
    """Drop-from-front: on overflow, evict the *oldest* packet.

    Keeps queue latency bounded under persistent overload (the newest
    packets, which TCP is actively probing with, survive).
    """

    def __init__(self, capacity: int = 1000, name: str = ""):
        super().__init__(capacity=capacity, name=name)
        self.front_drops = 0

    def process(self, packet: Packet, port: int) -> None:
        if self.fifo.is_full():
            evicted = self.fifo.poll()
            if evicted is not None:
                self.front_drops += 1
                self.drop(evicted)
        if not self.fifo.offer(packet):
            self.drop(packet)
