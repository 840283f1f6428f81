"""Capacity-accounted hardware components: cores, sockets, buses.

Each component tracks cumulative load (cycles for cores, bytes for buses)
against its capacity per second.  The performance model uses these to find
which component saturates first; the DES uses them as service-rate limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ConfigurationError


@dataclass
class Core:
    """A CPU core with a clock rate and a cycle ledger."""

    core_id: int
    socket_id: int
    clock_hz: float
    cycles_used: float = 0.0

    def __post_init__(self):
        if self.clock_hz <= 0:
            raise ConfigurationError("core clock must be positive")

    def charge(self, cycles: float) -> None:
        """Record ``cycles`` of work on this core."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.cycles_used += cycles

    def utilization(self, elapsed_sec: float) -> float:
        """Fraction of available cycles consumed over ``elapsed_sec``."""
        if elapsed_sec <= 0:
            raise ValueError("elapsed time must be positive")
        return self.cycles_used / (self.clock_hz * elapsed_sec)

    def reset(self) -> None:
        self.cycles_used = 0.0


@dataclass
class Bus:
    """A shared byte-moving resource (memory bus, QPI, socket-I/O, PCIe, FSB).

    ``capacity_bps`` is in bits/second to match the paper's Table 2;
    loads are charged in bytes.
    """

    name: str
    capacity_bps: float
    bytes_moved: float = 0.0

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ConfigurationError("bus %r capacity must be positive" % self.name)

    def charge(self, num_bytes: float) -> None:
        """Record ``num_bytes`` moved over this bus."""
        if num_bytes < 0:
            raise ValueError("cannot charge negative bytes")
        self.bytes_moved += num_bytes

    def utilization(self, elapsed_sec: float) -> float:
        """Fraction of capacity consumed over ``elapsed_sec``."""
        if elapsed_sec <= 0:
            raise ValueError("elapsed time must be positive")
        return (self.bytes_moved * 8) / (self.capacity_bps * elapsed_sec)

    def reset(self) -> None:
        self.bytes_moved = 0.0


@dataclass
class MemoryController:
    """A per-socket integrated memory controller and its memory bus."""

    socket_id: int
    bus: Bus

    def charge(self, num_bytes: float) -> None:
        self.bus.charge(num_bytes)


@dataclass
class Socket:
    """A CPU socket: cores sharing an L3 cache plus a memory controller."""

    socket_id: int
    cores: List[Core] = field(default_factory=list)
    l3_bytes: int = 8 * 1024 * 1024
    memory: MemoryController = None
