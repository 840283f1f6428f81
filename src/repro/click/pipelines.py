"""Server-bound element registries and the preset application pipelines.

The parser in :mod:`repro.click.config` needs factories for elements that
touch external state: ``PollDevice``/``ToDevice`` bind to a server's NIC
queues, ``LookupIPRoute`` needs a routing table, ``IPsecESPEncap`` a
security association.  :func:`pipeline_registry` builds a registry with
all of those bound to one server (and one queue index, for multi-queue
replication), on top of the stateless default registry.

:data:`PRESET_PIPELINES` holds the Click texts of the paper's three
evaluated applications (Sec. 5.1) expressed in this element library --
the same pipelines :func:`repro.costs.per_packet_vector` describes
analytically, which is what lets tests assert that
:func:`repro.costs.compile_loads` reproduces the preset load vectors.
"""

from __future__ import annotations

from typing import Optional

from .. import calibration as cal
from ..crypto.esp import EspContext
from ..errors import ConfigurationError
from ..hw.server import Server
from ..net.addresses import IPv4Address, MACAddress
from ..routing.table import Route, RoutingTable
from .config import ElementRegistry, default_registry, parse_config
from .elements.device import PollDevice, ToDevice
from .elements.ip import CheckIPHeader, DecIPTTL, EtherEncap, LookupIPRoute
from .elements.ipsec import IPsecESPEncap
from .graph import RouterGraph


def demo_routing_table(n_ports: int) -> RoutingTable:
    """A small table spreading ``10.<p>.0.0/16`` over ``n_ports`` ports."""
    table = RoutingTable()
    for port in range(n_ports):
        table.add_route("10.%d.0.0/16" % port,
                        Route(port=port,
                              next_hop=IPv4Address("10.%d.0.1" % port),
                              next_hop_mac=MACAddress(0x0200_0000_0000 + port)))
    table.add_route("0.0.0.0/0",
                    Route(port=0, next_hop=IPv4Address("10.0.0.1"),
                          next_hop_mac=MACAddress(0x0200_0000_0000)))
    return table


def demo_esp_context() -> EspContext:
    """A fixed security association for non-functional IPsec pipelines."""
    return EspContext(spi=1, key=bytes(range(16)),
                      tunnel_src=IPv4Address("192.88.0.1"),
                      tunnel_dst=IPv4Address("192.88.0.2"))


def pipeline_registry(server: Server, replica: int = 0,
                      kp: int = cal.DEFAULT_KP, kn: int = cal.DEFAULT_KN,
                      table: Optional[RoutingTable] = None,
                      esp_context: Optional[EspContext] = None
                      ) -> ElementRegistry:
    """The full element registry, bound to ``server``.

    Device factories take the port index as their first argument
    (``PollDevice(0)`` polls port 0) and bind to queue ``replica`` -- so
    instantiating the same text once per core with increasing replicas
    yields the multi-queue discipline: every core runs the whole graph on
    its own queue slice.
    """
    registry = default_registry()
    table = table if table is not None else demo_routing_table(
        max(1, len(server.ports)))
    esp_context = esp_context or demo_esp_context()

    def poll_device(args, name):
        port = server.port(int(args[0]) if args else 0)
        return PollDevice(port, queue_id=replica, kp=kp, name=name)

    def to_device(args, name):
        port = server.port(int(args[0]) if args else 0)
        return ToDevice(port, queue_id=replica, kn=kn, name=name)

    registry.register("PollDevice", poll_device)
    registry.register("ToDevice", to_device)
    registry.register("CheckIPHeader",
                      lambda args, name: CheckIPHeader(name=name))
    registry.register("DecIPTTL", lambda args, name: DecIPTTL(name=name))
    registry.register("LookupIPRoute", lambda args, name: LookupIPRoute(
        table, n_ports=int(args[0]) if args else max(1, len(server.ports)),
        name=name))
    registry.register("EtherEncap", lambda args, name: EtherEncap(
        src_mac=MACAddress(int(args[0], 0)) if args
        else MACAddress(0x0200_0000_00FF), name=name))
    registry.register("IPsecESPEncap", lambda args, name: IPsecESPEncap(
        esp_context, functional=bool(args and args[0] == "FUNCTIONAL"),
        name=name))
    return registry


#: Click texts of the paper's evaluated applications (Sec. 5.1).
PRESET_PIPELINES = {
    "forwarding": """
        // Minimal forwarding: port 0 straight to port 0 (Sec. 5.1).
        src :: PollDevice(0);
        dst :: ToDevice(0);
        src -> dst;
    """,
    "routing": """
        // Full IP routing: header check, TTL, LPM lookup, re-encap.
        src :: PollDevice(0);
        rt :: LookupIPRoute(1);
        src -> CheckIPHeader -> DecIPTTL -> rt;
        rt [0] -> EtherEncap -> ToDevice(0);
        rt [1] -> Discard;
    """,
    "ipsec": """
        // IPsec tunnel: ESP-encrypt every packet, then forward.
        src :: PollDevice(0);
        src -> IPsecESPEncap -> ToDevice(0);
    """,
    "nat": """
        // Stateful NAT gateway: conntrack admission, source NAT,
        // per-flow token-bucket policing (repro.stateful suite).
        src :: PollDevice(0);
        src -> CheckIPHeader -> ConnTrackFirewall -> NAT
            -> TokenBucketPolicer -> ToDevice(0);
    """,
}


def build_pipeline(which_or_text: str, server: Server, replica: int = 0,
                   kp: int = cal.DEFAULT_KP, kn: int = cal.DEFAULT_KN,
                   table: Optional[RoutingTable] = None,
                   esp_context: Optional[EspContext] = None
                   ) -> RouterGraph:
    """Parse a preset name or raw Click text against ``server``."""
    text = PRESET_PIPELINES.get(which_or_text, which_or_text)
    if "->" not in text:
        raise ConfigurationError(
            "%r is neither a preset pipeline (%s) nor Click text"
            % (which_or_text, sorted(PRESET_PIPELINES)))
    registry = pipeline_registry(server, replica=replica, kp=kp, kn=kn,
                                 table=table, esp_context=esp_context)
    return parse_config(text, registry)
