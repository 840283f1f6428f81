"""Element base class and ports.

Click composes routers from small elements connected through ports.  This
reproduction keeps the push discipline (upstream calls downstream) that
Click uses on the forwarding path, plus per-element packet/byte counters
and one price, :meth:`Element.cost`, so the scheduler, the timed
simulation, and the analytic pipeline compiler all charge the same
:class:`~repro.costs.ResourceVector` for the work an element represents.
"""

from __future__ import annotations

from typing import List, Optional

from ..costs import ZERO_VECTOR, ResourceVector
from ..errors import ConfigurationError
from ..net.packet import Packet
from ..obs.metrics import active_registry
from ..obs.trace import TRACE_ANNOTATION


class PushPort:
    """An output port: a one-to-one connection to a downstream element."""

    def __init__(self, owner: "Element", index: int):
        self.owner = owner
        self.index = index
        self.peer: Optional[Element] = None
        self.peer_port: int = 0

    def connect(self, peer: "Element", peer_port: int = 0) -> None:
        if self.peer is not None:
            raise ConfigurationError(
                "%s output %d already connected" % (self.owner.name, self.index))
        self.peer = peer
        self.peer_port = peer_port

    def push(self, packet: Packet) -> None:
        if self.peer is None:
            raise ConfigurationError(
                "%s output %d is dangling" % (self.owner.name, self.index))
        self.peer.receive(packet, self.peer_port)


class Element:
    """Base class for all dataplane elements.

    Subclasses implement :meth:`process`, which receives a packet and an
    input-port index and pushes results downstream via ``self.output(i)``.
    Returning without pushing drops the packet.

    Costs are affine in packet size: an element charges ``cost_base +
    cost_per_byte * packet.length`` on each component, either from the
    class-level term declarations or from terms set at construction via
    :meth:`set_cost_terms` (device and application elements derive theirs
    from the cost functions in :mod:`repro.costs.model`).
    """

    #: Number of output ports; subclasses override as needed.
    n_outputs = 1

    #: Size-independent per-packet cost (class default; instances may
    #: override via :meth:`set_cost_terms`).
    cost_base: ResourceVector = ZERO_VECTOR
    #: Cost per packet byte on each component.
    cost_per_byte: ResourceVector = ZERO_VECTOR

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__
        self._outputs = [PushPort(self, i) for i in range(self.n_outputs)]
        self.packets_in = 0
        self.bytes_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        # Drop-cause counter, resolved once (same discipline as
        # core.node): None unless an enabled registry is active, so the
        # disabled-observability cost is a single attribute check.
        registry = active_registry()
        self._drop_counter = (
            registry.counter("element_drops",
                             help="packets dropped, by element and cause")
            if registry.enabled else None)

    def output(self, index: int = 0) -> PushPort:
        if not 0 <= index < len(self._outputs):
            raise ConfigurationError(
                "%s has no output %d" % (self.name, index))
        return self._outputs[index]

    def connect_to(self, peer: "Element", output: int = 0,
                   peer_port: int = 0) -> "Element":
        """Wire ``self[output] -> peer[peer_port]``; returns ``peer`` so
        chains read left to right."""
        self.output(output).connect(peer, peer_port)
        return peer

    def receive(self, packet: Packet, port: int = 0) -> None:
        """Entry point called by upstream elements."""
        self.packets_in += 1
        self.bytes_in += packet.length
        trace = packet.annotations.get(TRACE_ANNOTATION)
        if trace is not None:
            # Elements execute within one DES event, so the hop carries
            # no timestamp of its own; the element *sequence* is the
            # signal (reports inherit the enclosing event's clock).
            trace.hop(self.name)
        self.process(packet, port)

    def push(self, packet: Packet, output: int = 0) -> None:
        """Push a packet downstream (used inside :meth:`process`)."""
        self.packets_out += 1
        self.output(output).push(packet)

    def drop(self, packet: Packet, cause: str = "dropped") -> None:
        """Account a deliberate drop, tagged with its cause."""
        self.packets_dropped += 1
        if self._drop_counter is not None:
            self._drop_counter.inc(1, element=self.name, cause=cause)

    def process(self, packet: Packet, port: int) -> None:
        raise NotImplementedError

    # -- cost accounting ---------------------------------------------------

    def set_cost_terms(self, base: ResourceVector,
                       per_byte: ResourceVector = ZERO_VECTOR) -> None:
        """Declare this instance's affine cost terms."""
        self.cost_base = base
        self.cost_per_byte = per_byte

    def cost(self, packets: float, nbytes: float) -> ResourceVector:
        """What ``packets`` packets of ``nbytes`` bytes in all cost on
        every component.  Exact for any mix of sizes, since the terms are
        affine; ``cost(1, L)`` is one ``L``-byte packet."""
        return (self.cost_base.scaled(packets)
                + self.cost_per_byte.scaled(nbytes))

    # -- static forwarding behaviour ---------------------------------------

    def output_probabilities(self) -> List[float]:
        """Fraction of received packets forwarded to each output.

        Used by :func:`repro.costs.traversal_probabilities` to weight
        downstream elements.  The default sends everything down output 0
        (secondary outputs are exception paths); classifiers, switches,
        and tees override.
        """
        if self.n_outputs == 0:
            return []
        return [1.0] + [0.0] * (self.n_outputs - 1)

    def __repr__(self):
        return "<%s %r>" % (self.__class__.__name__, self.name)
