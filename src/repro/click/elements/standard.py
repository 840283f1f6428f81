"""Standard Click elements: queues, counters, classifiers, tees, discard."""

from __future__ import annotations

from typing import Callable, List

from ...errors import ConfigurationError
from ...net.packet import Packet
from ...simnet.queues import FiniteQueue
from ..element import Element


class Discard(Element):
    """Swallow every packet (counting it)."""

    n_outputs = 0

    def process(self, packet: Packet, port: int) -> None:
        self.drop(packet, "discard")


class CounterElement(Element):
    """Count packets and bytes, then forward unchanged."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.count = 0
        self.byte_count = 0

    def process(self, packet: Packet, port: int) -> None:
        self.count += 1
        self.byte_count += packet.length
        self.push(packet)


class PacketQueue(Element):
    """A Click Queue: push in, explicit pull out.

    Downstream is driven by a pull task
    (:meth:`~repro.click.scheduler.CoreThread.add_pull_task`), not by push
    propagation -- this is where pipelined configurations hand packets
    between cores.
    """

    def __init__(self, capacity: int = 1000, name: str = ""):
        super().__init__(name)
        self.fifo = FiniteQueue(capacity, name=self.name)

    def process(self, packet: Packet, port: int) -> None:
        if not self.fifo.offer(packet):
            self.drop(packet, "queue_full")

    def __len__(self) -> int:
        return len(self.fifo)


class Tee(Element):
    """Duplicate each packet to every output."""

    def __init__(self, n: int = 2, name: str = ""):
        if n < 1:
            raise ConfigurationError("Tee needs >= 1 output")
        self.n_outputs = n
        super().__init__(name)

    def process(self, packet: Packet, port: int) -> None:
        self.push(packet, 0)
        for i in range(1, self.n_outputs):
            self.push(packet.copy(), i)

    def output_probabilities(self) -> List[float]:
        """Every output sees every packet (duplication, not splitting)."""
        return [1.0] * self.n_outputs


class SetTTL(Element):
    """Overwrite the IP TTL (used when re-originating tunneled packets)."""

    def __init__(self, ttl: int, name: str = ""):
        if not 1 <= ttl <= 255:
            raise ConfigurationError("TTL must be in [1, 255]")
        super().__init__(name)
        self.ttl = ttl

    def process(self, packet: Packet, port: int) -> None:
        if packet.ip is None:
            self.drop(packet, "no_ip")
            return
        packet.ip.ttl = self.ttl
        packet.ip.pack()  # refresh the checksum
        self.push(packet)


class SourceFilter(Element):
    """Drop packets whose source falls in a prefix (ingress filtering).

    Matching packets go to output 1 when connected, else are dropped --
    the uRPF/martian-filter shape of real edge routers.
    """

    n_outputs = 2
    optional_outputs = {1}

    def __init__(self, prefix, name: str = ""):
        from ...net.addresses import Prefix
        super().__init__(name)
        self.prefix = Prefix.parse(prefix) if isinstance(prefix, str) \
            else prefix
        self.filtered = 0

    def process(self, packet: Packet, port: int) -> None:
        if packet.ip is not None and self.prefix.contains(packet.ip.src):
            self.filtered += 1
            if self.output(1).peer is not None:
                self.push(packet, 1)
            else:
                self.drop(packet, "filtered")
            return
        self.push(packet, 0)


class Paint(Element):
    """Stamp a color annotation on each packet (Click's Paint)."""

    def __init__(self, color: int, name: str = ""):
        super().__init__(name)
        self.color = color

    def process(self, packet: Packet, port: int) -> None:
        packet.annotations["paint"] = self.color
        self.push(packet)


class RandomSample(Element):
    """Forward each packet with probability ``p``; drop the rest.

    Deterministic for a seed -- used for sampled measurement paths (the
    monitoring-style workloads the paper's introduction motivates).
    """

    def __init__(self, p: float, seed: int = 0, name: str = ""):
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError("sample probability must be in [0, 1]")
        super().__init__(name)
        self.p = p
        import random as _random
        self._rng = _random.Random(seed)
        self.sampled = 0

    def process(self, packet: Packet, port: int) -> None:
        if self._rng.random() < self.p:
            self.sampled += 1
            self.push(packet)
        else:
            self.drop(packet, "not_sampled")

    def output_probabilities(self) -> List[float]:
        return [self.p]


class Meter(Element):
    """Split traffic by measured rate: at or below ``rate_pps`` -> output
    0, excess -> output 1 (Click's Meter, token-bucket form).

    The element clock is advanced by the caller via :attr:`now`.
    """

    n_outputs = 2

    def __init__(self, rate_pps: float, burst: int = 32, name: str = ""):
        if rate_pps <= 0 or burst < 1:
            raise ConfigurationError("bad meter parameters")
        super().__init__(name)
        self.rate_pps = rate_pps
        self.burst = burst
        self.now = 0.0
        self._tokens = float(burst)
        self._last = 0.0

    def process(self, packet: Packet, port: int) -> None:
        elapsed = self.now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate_pps)
            self._last = self.now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.push(packet, 0)
        else:
            self.push(packet, 1)


class Classifier(Element):
    """Route packets to the first output whose predicate matches.

    Packets matching no predicate go to the last output if ``catch_all``
    (the Click ``-`` pattern), else are dropped.
    """

    def __init__(self, predicates: List[Callable[[Packet], bool]],
                 catch_all: bool = True, name: str = ""):
        if not predicates:
            raise ConfigurationError("Classifier needs >= 1 predicate")
        self.n_outputs = len(predicates) + (1 if catch_all else 0)
        super().__init__(name)
        self.predicates = predicates
        self.catch_all = catch_all

    def process(self, packet: Packet, port: int) -> None:
        for index, predicate in enumerate(self.predicates):
            if predicate(packet):
                self.push(packet, index)
                return
        if self.catch_all:
            self.push(packet, self.n_outputs - 1)
        else:
            self.drop(packet, "no_match")

    def output_probabilities(self) -> List[float]:
        """Without traffic knowledge, assume a uniform match distribution."""
        return [1.0 / self.n_outputs] * self.n_outputs
