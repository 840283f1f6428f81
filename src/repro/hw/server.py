"""The assembled server: sockets, buses, NICs, under one spec.

:class:`ServerSpec` is the declarative description (what the paper calls a
"server configuration"); :class:`Server` instantiates the component ledger
used by the performance model and the DES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError
from .components import Bus, Core, MemoryController, Socket
from .nic import Nic, NicPort


@dataclass(frozen=True)
class ServerSpec:
    """Declarative description of a server model.

    Capacities are in bits/second (as in Table 2).  ``shared_bus`` selects
    the pre-Nehalem architecture in which all memory and I/O traffic
    crosses a single front-side bus (Fig. 5) instead of per-socket memory
    buses and point-to-point links (Fig. 4).
    """

    name: str
    sockets: int
    cores_per_socket: int
    clock_hz: float
    memory_bps: float
    memory_empirical_bps: float
    io_bps: float
    io_empirical_bps: float
    qpi_bps: float
    qpi_empirical_bps: float
    pcie_bps: float
    pcie_empirical_bps: float
    nic_slots: int
    ports_per_nic: int = 2
    port_rate_bps: float = 10e9
    nic_payload_limit_bps: float = 12.3e9
    l3_bytes: int = 8 * 1024 * 1024
    shared_bus: bool = False
    fsb_bps: float = 0.0
    cpi_factor: float = 1.0   # memory-stall inflation (shared-bus Xeon)

    def __post_init__(self):
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ConfigurationError("server needs >= 1 socket and core")
        if self.shared_bus and self.fsb_bps <= 0:
            raise ConfigurationError("shared-bus spec needs fsb_bps")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def cycles_per_second(self) -> float:
        return self.total_cores * self.clock_hz

    @property
    def max_ports(self) -> int:
        return self.nic_slots * self.ports_per_nic

    @property
    def max_input_bps(self) -> float:
        """Aggregate payload the NIC slots can move (2 x 12.3 Gbps on the
        prototype)."""
        return self.nic_slots * self.nic_payload_limit_bps


class Server:
    """A concrete server assembled from a :class:`ServerSpec`.

    Instantiates cores/sockets/buses and, on demand, NICs with a chosen
    number of ports and queues.  All component ledgers start at zero.
    """

    def __init__(self, spec: ServerSpec, num_ports: Optional[int] = None,
                 queues_per_port: Optional[int] = None):
        self.spec = spec
        self.sockets: List[Socket] = []
        core_id = 0
        for sid in range(spec.sockets):
            cores = []
            for _ in range(spec.cores_per_socket):
                cores.append(Core(core_id=core_id, socket_id=sid,
                                  clock_hz=spec.clock_hz))
                core_id += 1
            memory = MemoryController(
                socket_id=sid,
                bus=Bus(name="memory-%d" % sid,
                        capacity_bps=spec.memory_bps / spec.sockets))
            self.sockets.append(Socket(socket_id=sid, cores=cores,
                                       l3_bytes=spec.l3_bytes, memory=memory))
        self.io_bus = Bus(name="socket-io", capacity_bps=spec.io_bps)
        self.qpi = Bus(name="inter-socket", capacity_bps=spec.qpi_bps)
        self.pcie = Bus(name="pcie", capacity_bps=spec.pcie_bps)
        self.fsb = (Bus(name="fsb", capacity_bps=spec.fsb_bps)
                    if spec.shared_bus else None)
        self.nics: List[Nic] = []
        if num_ports is not None:
            self.attach_ports(num_ports, 1 if queues_per_port is None
                              else queues_per_port)

    @property
    def cores(self) -> List[Core]:
        return [core for socket in self.sockets for core in socket.cores]

    def attach_ports(self, num_ports: int, queues_per_port: int) -> None:
        """Populate NIC slots with ``num_ports`` ports, 2 per NIC."""
        per_nic = self.spec.ports_per_nic
        max_ports = self.spec.max_ports
        if num_ports > max_ports:
            raise ConfigurationError(
                "%d ports exceed the %d NIC slots x %d ports of %s"
                % (num_ports, self.spec.nic_slots, per_nic, self.spec.name))
        self.nics = []
        port_id = 0
        while port_id < num_ports:
            ports = []
            for _ in range(min(per_nic, num_ports - port_id)):
                ports.append(NicPort(port_id=port_id,
                                     rate_bps=self.spec.port_rate_bps,
                                     num_queues=queues_per_port))
                port_id += 1
            self.nics.append(Nic(nic_id=len(self.nics), ports=ports,
                                 payload_limit_bps=self.spec.nic_payload_limit_bps))

    @property
    def ports(self) -> List[NicPort]:
        return [port for nic in self.nics for port in nic.ports]

    def port(self, port_id: int) -> NicPort:
        for candidate in self.ports:
            if candidate.port_id == port_id:
                return candidate
        raise ConfigurationError("no port %d on this server" % port_id)
