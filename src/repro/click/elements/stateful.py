"""Stateful NF elements: NAT, conntrack firewall, policer, load balancer.

These wrap the :mod:`repro.stateful` NF logic in dataplane elements so
the same state machines that the dispatch benchmark drives also run
inside Click graphs.  Each element owns one :class:`~repro.stateful.
FlowTable` (the single-core view; the multi-core strategies live in
:mod:`repro.stateful.dispatch`) and charges the calibrated per-packet
state-access cost for its NF.
"""

from __future__ import annotations

from typing import List

from ...costs import state_access_vector
from ...errors import ConfigurationError
from ...net.packet import Packet
from ...stateful.nf import FORWARD, StatefulNF, make_nf
from ...stateful.state import FlowTable
from ...workloads.zipf_flows import PacketRecord
from ..element import Element

#: Annotation key carrying NAT's allocated external port downstream.
NAT_PORT_ANNOTATION = "nat_ext_port"
#: Annotation key carrying the load balancer's sticky backend choice.
LB_BACKEND_ANNOTATION = "lb_backend"


def _flow_record(packet: Packet) -> PacketRecord:
    """Adapt a dataplane packet to the NF history-record interface."""
    return PacketRecord(seq=packet.packet_id, time=packet.arrival_time,
                        key=packet.five_tuple(), length=packet.length,
                        flow_slot=-1, flow_generation=0)


class StatefulElement(Element):
    """Shared plumbing: one NF instance over one flow table.

    Subclasses map the NF verdict/entry to dataplane behaviour in
    :meth:`apply`; non-IP packets bypass the NF and forward unchanged on
    output 0 (a stateful NF has no flow to bind them to).
    """

    def __init__(self, nf: StatefulNF, name: str = ""):
        super().__init__(name)
        self.nf = nf
        self.flow_table = FlowTable(name=self.name)
        self.set_cost_terms(state_access_vector(nf.name))

    def _advance(self, packet: Packet):
        """Run the NF for one packet; returns ``(entry, verdict)``."""
        rec = _flow_record(packet)
        entry, verdict, _ = self.nf.process(self.flow_table.get(rec.key), rec)
        self.flow_table.put(rec.key, entry)
        return entry, verdict

    def apply(self, packet: Packet, entry: tuple, verdict: str) -> None:
        raise NotImplementedError

    def process(self, packet: Packet, port: int) -> None:
        if packet.ip is None:
            self.push(packet, 0)
            return
        entry, verdict = self._advance(packet)
        self.apply(packet, entry, verdict)


class NetworkAddressTranslator(StatefulElement):
    """Source NAT: allocate a deterministic external port per flow.

    The mapping rides in ``annotations[NAT_PORT_ANNOTATION]`` rather than
    a header rewrite -- L4 headers are shared between packet copies, so
    mutating them in place would corrupt siblings.
    """

    def __init__(self, pool_size: int = 60000, name: str = ""):
        super().__init__(make_nf("nat", pool_size=pool_size), name)

    def apply(self, packet: Packet, entry: tuple, verdict: str) -> None:
        packet.annotations[NAT_PORT_ANNOTATION] = entry[0]
        self.push(packet, 0)


class _FilteringStatefulElement(StatefulElement):
    """Stateful elements whose verdict either forwards the packet or
    drops it under the subclass's :attr:`drop_cause`."""

    #: Drop cause recorded for refused packets.
    drop_cause = "refused"

    def apply(self, packet: Packet, entry: tuple, verdict: str) -> None:
        if verdict == FORWARD:
            self.push(packet, 0)
        else:
            self.drop(packet, self.drop_cause)


class ConnTrackFirewall(_FilteringStatefulElement):
    """Connection-tracking firewall: per-flow admission state machine."""

    drop_cause = "conntrack_closed"

    def __init__(self, establish_after: int = 3, max_packets: int = 10000,
                 name: str = ""):
        super().__init__(make_nf("firewall", establish_after=establish_after,
                                 max_packets=max_packets), name)


class TokenBucketPolicer(_FilteringStatefulElement):
    """Per-flow token-bucket policer; exceeding packets drop."""

    drop_cause = "police_exceed"

    def __init__(self, rate_bps: float = 8e6, burst_bytes: float = 3000.0,
                 name: str = ""):
        super().__init__(make_nf("policer", rate_bps=rate_bps,
                                 burst_bytes=burst_bytes), name)


class L4LoadBalancer(StatefulElement):
    """L4 load balancer: rendezvous-hash flows across ``n`` backend
    outputs; the choice is sticky (recorded in the flow entry)."""

    def __init__(self, n: int = 2, name: str = ""):
        if n < 1:
            raise ConfigurationError("load balancer needs >= 1 backend")
        self.n_outputs = n
        super().__init__(make_nf("lb", num_backends=n), name)

    def apply(self, packet: Packet, entry: tuple, verdict: str) -> None:
        backend = entry[0]
        packet.annotations[LB_BACKEND_ANNOTATION] = backend
        self.push(packet, backend)

    def output_probabilities(self) -> List[float]:
        """Rendezvous hashing spreads flows uniformly in expectation."""
        return [1.0 / self.n_outputs] * self.n_outputs
