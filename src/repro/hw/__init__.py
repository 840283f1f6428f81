"""Server hardware models.

Models the two server architectures the paper studies (Sec. 4.1-4.2):

* the **Nehalem** prototype -- two sockets of four 2.8 GHz cores, per-socket
  integrated memory controllers, point-to-point inter-socket (QPI) and
  socket-I/O links, and PCIe1.1 x8 slots holding dual-port 10 G NICs, and
* the **shared-bus Xeon** reference -- eight 2.4 GHz cores behind a single
  front-side bus shared by all memory and I/O traffic.

Components are capacity-accounted resources: the performance model charges
per-packet loads against them to find the bottleneck, and the DES charges
service times.  NICs model multiple receive/transmit queues with RSS-style
flow assignment and descriptor-ring batching.
"""

from .components import Bus, Core, MemoryController, Socket
from .nic import Nic, NicPort, NicQueue
from .dma import DmaEngine
from .server import Server, ServerSpec
from .presets import (
    NEHALEM,
    NEHALEM_NEXT_GEN,
    XEON_SHARED_BUS,
    nehalem_server,
)

__all__ = [
    "Bus",
    "Core",
    "MemoryController",
    "Socket",
    "Nic",
    "NicPort",
    "NicQueue",
    "DmaEngine",
    "Server",
    "ServerSpec",
    "NEHALEM",
    "NEHALEM_NEXT_GEN",
    "XEON_SHARED_BUS",
    "nehalem_server",
]
