"""Component capacity bounds (Table 2).

For each system component the paper derives two upper bounds on achievable
per-packet load: the *nominal* rated capacity and an *empirical* bound from
a stress benchmark (a random-access "stream" for memory, 1024 B minimal
forwarding for the I/O paths).  This module reproduces both; the
empirical figures are the paper's measurements, carried by the
:class:`~repro.hw.server.ServerSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hw.server import ServerSpec


@dataclass(frozen=True)
class ComponentBounds:
    """Nominal and empirical capacity of one component (bits/second for
    buses; cycles/second for the CPU)."""

    component: str
    nominal: float
    empirical: float
    unit: str

    def per_packet_bound(self, packet_rate_pps: float,
                         empirical: bool = False) -> float:
        """Upper bound on per-packet load at a given input packet rate.

        This is the "cycles available" / "benchmark" line of Figs. 9-10:
        capacity divided by packet rate.  Bus bounds are returned in
        bytes/packet, the CPU bound in cycles/packet.
        """
        if packet_rate_pps <= 0:
            raise ValueError("packet rate must be positive")
        capacity = self.empirical if empirical else self.nominal
        if self.unit == "bps":
            return capacity / 8 / packet_rate_pps
        return capacity / packet_rate_pps


def bounds_for(spec: ServerSpec) -> Dict[str, ComponentBounds]:
    """Table 2 for an arbitrary server spec."""
    cpu_capacity = spec.cycles_per_second
    bounds = {
        "cpu": ComponentBounds("cpu", cpu_capacity, cpu_capacity,
                               unit="cycles/s"),
        "memory": ComponentBounds("memory", spec.memory_bps,
                                  spec.memory_empirical_bps, unit="bps"),
        "io": ComponentBounds("io", spec.io_bps, spec.io_empirical_bps,
                              unit="bps"),
        "pcie": ComponentBounds("pcie", spec.pcie_bps,
                                spec.pcie_empirical_bps, unit="bps"),
        "qpi": ComponentBounds("qpi", spec.qpi_bps, spec.qpi_empirical_bps,
                               unit="bps"),
    }
    if spec.shared_bus:
        bounds["fsb"] = ComponentBounds("fsb", spec.fsb_bps,
                                        spec.fsb_bps * 0.8, unit="bps")
    return bounds

