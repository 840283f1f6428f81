"""Per-packet resource vectors.

A :class:`ResourceVector` is what one packet (or one element's share of a
packet) costs on each system component: CPU cycles and bytes moved on the
memory buses, socket-I/O links, PCIe buses, and the inter-socket link --
the quantities plotted in Figs. 9-10 and charged by both the analytic
bottleneck solver and the discrete-event simulation.

The vector forms a small algebra (add, scale, zero) so per-element costs
compose into per-pipeline loads: an element contributes ``base +
per_byte * packet_bytes``, a pipeline contributes the traversal-probability-
weighted sum of its elements, and the solver divides component capacities
by the resulting totals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceVector:
    """Per-packet load on each system component.

    ``cpu_cycles`` is CPU work; the four remaining entries are bytes moved
    on the corresponding bus per packet (Table 2's components).
    """

    cpu_cycles: float = 0.0
    mem_bytes: float = 0.0
    io_bytes: float = 0.0
    pcie_bytes: float = 0.0
    qpi_bytes: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu_cycles=self.cpu_cycles + other.cpu_cycles,
            mem_bytes=self.mem_bytes + other.mem_bytes,
            io_bytes=self.io_bytes + other.io_bytes,
            pcie_bytes=self.pcie_bytes + other.pcie_bytes,
            qpi_bytes=self.qpi_bytes + other.qpi_bytes,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return self + other.scaled(-1.0)

    def scaled(self, factor: float) -> "ResourceVector":
        """A copy with every entry multiplied by ``factor``."""
        return ResourceVector(cpu_cycles=self.cpu_cycles * factor,
                              mem_bytes=self.mem_bytes * factor,
                              io_bytes=self.io_bytes * factor,
                              pcie_bytes=self.pcie_bytes * factor,
                              qpi_bytes=self.qpi_bytes * factor)

    def with_cpu(self, cpu_cycles: float) -> "ResourceVector":
        """A copy with the CPU entry replaced (bus entries unchanged)."""
        return ResourceVector(cpu_cycles=cpu_cycles,
                              mem_bytes=self.mem_bytes,
                              io_bytes=self.io_bytes,
                              pcie_bytes=self.pcie_bytes,
                              qpi_bytes=self.qpi_bytes)


#: The additive identity, shared by every element with no declared cost.
ZERO_VECTOR = ResourceVector()
