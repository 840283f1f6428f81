"""Server presets matching the paper's hardware.

* :data:`NEHALEM` -- the dual-socket prototype of Sec. 4.1 (the paper's
  evaluation platform): 8 x 2.8 GHz cores, Table 2 capacities, two PCIe1.1
  slots each holding a dual-port 10 G NIC.
* :data:`XEON_SHARED_BUS` -- the pre-Nehalem shared-bus Xeon (Fig. 5):
  eight 2.4 GHz cores behind one front-side bus; memory-stall inflation
  calibrated so 64 B forwarding lands at the paper's 11x-lower point.
* :data:`NEHALEM_NEXT_GEN` -- the projected follow-up of Sec. 5.3: four
  sockets of eight cores (4x CPU), double memory and I/O capacity.
"""

from __future__ import annotations

from .. import calibration as cal
from .server import Server, ServerSpec

NEHALEM = ServerSpec(
    name="nehalem",
    sockets=cal.NEHALEM_SOCKETS,
    cores_per_socket=cal.NEHALEM_CORES_PER_SOCKET,
    clock_hz=cal.NEHALEM_CLOCK_HZ,
    memory_bps=cal.MEMORY_NOMINAL_BPS,
    memory_empirical_bps=cal.MEMORY_EMPIRICAL_BPS,
    io_bps=cal.IO_NOMINAL_BPS,
    io_empirical_bps=cal.IO_EMPIRICAL_BPS,
    qpi_bps=cal.INTERSOCKET_NOMINAL_BPS,
    qpi_empirical_bps=cal.INTERSOCKET_EMPIRICAL_BPS,
    pcie_bps=cal.PCIE_NOMINAL_BPS,
    pcie_empirical_bps=cal.PCIE_EMPIRICAL_BPS,
    nic_slots=cal.NUM_NICS,
    ports_per_nic=2,
    port_rate_bps=cal.PORT_RATE_BPS,
    nic_payload_limit_bps=cal.NIC_PAYLOAD_LIMIT_BPS,
    l3_bytes=cal.NEHALEM_L3_BYTES,
)

XEON_SHARED_BUS = ServerSpec(
    name="xeon-shared-bus",
    sockets=cal.XEON_SOCKETS,
    cores_per_socket=cal.XEON_CORES_PER_SOCKET,
    clock_hz=cal.XEON_CLOCK_HZ,
    # Behind the FSB these never bind first, but keep Table-2-like values.
    memory_bps=cal.MEMORY_NOMINAL_BPS / 4,
    memory_empirical_bps=cal.MEMORY_EMPIRICAL_BPS / 4,
    io_bps=cal.IO_NOMINAL_BPS / 4,
    io_empirical_bps=cal.IO_EMPIRICAL_BPS / 4,
    qpi_bps=cal.INTERSOCKET_NOMINAL_BPS,
    qpi_empirical_bps=cal.INTERSOCKET_EMPIRICAL_BPS,
    pcie_bps=cal.PCIE_NOMINAL_BPS,
    pcie_empirical_bps=cal.PCIE_EMPIRICAL_BPS,
    nic_slots=cal.NUM_NICS,
    ports_per_nic=2,
    port_rate_bps=cal.PORT_RATE_BPS,
    nic_payload_limit_bps=cal.NIC_PAYLOAD_LIMIT_BPS,
    shared_bus=True,
    fsb_bps=cal.XEON_FSB_BPS,
    cpi_factor=cal.XEON_CPI_FACTOR,
)

NEHALEM_NEXT_GEN = ServerSpec(
    name="nehalem-next-gen",
    sockets=4,
    cores_per_socket=8,
    clock_hz=cal.NEHALEM_CLOCK_HZ,
    memory_bps=cal.MEMORY_NOMINAL_BPS * 2,
    memory_empirical_bps=cal.MEMORY_EMPIRICAL_BPS * 2,
    io_bps=cal.IO_NOMINAL_BPS * 2,
    io_empirical_bps=cal.IO_EMPIRICAL_BPS * 2,
    qpi_bps=cal.INTERSOCKET_NOMINAL_BPS * 2,
    qpi_empirical_bps=cal.INTERSOCKET_EMPIRICAL_BPS * 2,
    # 8 PCIe2.0 slots vs 2 PCIe1.1 slots: 2x per-lane rate, 4x slots;
    # we conservatively scale the aggregate fabric 4x.
    pcie_bps=cal.PCIE_NOMINAL_BPS * 4,
    pcie_empirical_bps=cal.PCIE_EMPIRICAL_BPS * 4,
    nic_slots=8,                            # "4-8 PCIe2.0 slots" (Sec. 4.1)
    ports_per_nic=2,
    port_rate_bps=cal.PORT_RATE_BPS,
    nic_payload_limit_bps=cal.NIC_PAYLOAD_LIMIT_BPS * 2,
    l3_bytes=cal.NEHALEM_L3_BYTES,
)


def nehalem_server(num_ports: int = 4, queues_per_port: int = 8) -> Server:
    """The prototype server as evaluated: 4 x 10 G ports, multi-queue."""
    return Server(NEHALEM, num_ports=num_ports,
                  queues_per_port=queues_per_port)
