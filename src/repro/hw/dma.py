"""DMA engine and PCIe transaction accounting.

Models the NIC<->memory path: every packet incurs two DMA transfers in each
direction (payload + descriptor), and descriptors are relayed in batches of
``kn`` per PCIe transaction (NIC-driven batching, Sec. 4.2).  PCIe1.1
limits a transaction's payload to 256 bytes; a 16-byte descriptor therefore
packs at most 16 per transaction -- which is why the paper stops at kn=16.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration import DMA_TRANSFER_USEC, PCIE_MAX_PAYLOAD_BYTES
from ..units import usec


def pcie_transactions_for(num_bytes: int) -> int:
    """Number of PCIe transactions needed to move ``num_bytes`` of payload."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be >= 0")
    if num_bytes == 0:
        return 0
    return -(-num_bytes // PCIE_MAX_PAYLOAD_BYTES)  # ceil division


@dataclass
class DmaEngine:
    """The NIC's DMA engine (400 MHz, Sec. 6.2).

    ``transfer_time`` scales the paper's measured 2.56 us for a 64 B packet
    linearly in transaction count (each 256 B chunk is one transaction of
    roughly constant setup time plus proportional payload time).
    """

    base_usec: float = DMA_TRANSFER_USEC

    def transfer_time(self, packet_bytes: int) -> float:
        """Seconds to DMA one packet between NIC and memory."""
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        # 2.56 us covers setup plus one <=256 B transaction; additional
        # chunks cost proportionally less (no per-transfer setup).
        extra_chunks = max(0, pcie_transactions_for(packet_bytes) - 1)
        return usec(self.base_usec + 0.4 * extra_chunks)
