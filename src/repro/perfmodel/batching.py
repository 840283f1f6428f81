"""The batching model of Table 1 (Sec. 4.2).

Poll-driven batching (``kp``: packets per Click poll) amortizes ring and
socket-buffer bookkeeping; NIC-driven batching (``kn``: descriptors per
PCIe transaction) amortizes bus transactions.  Both reduce cycles/packet;
``kn`` also adds up to ``kn - 1`` packet-times of queueing latency.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..costs import DEFAULT_COST_MODEL, ServerConfig
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..workloads.spec import WorkloadSpec
from .throughput import max_loss_free_rate


def batching_rate_bps(kp: int, kn: int, packet_bytes: int = 64,
                      spec: ServerSpec = NEHALEM) -> float:
    """Loss-free forwarding rate at a given batching configuration."""
    config = ServerConfig(multi_queue=True, kp=kp, kn=kn)
    result = max_loss_free_rate(
        WorkloadSpec.fixed(packet_bytes, app="forwarding"),
        spec=spec, config=config)
    return result.rate_bps


def batching_sweep(configs: Iterable[Tuple[int, int]] = ((1, 1), (32, 1), (32, 16)),
                   packet_bytes: int = 64,
                   spec: ServerSpec = NEHALEM) -> List[dict]:
    """Reproduce Table 1: one row per (kp, kn) configuration."""
    rows = []
    for kp, kn in configs:
        rate = batching_rate_bps(kp, kn, packet_bytes, spec)
        rows.append({
            "kp": kp,
            "kn": kn,
            "rate_gbps": rate / 1e9,
            "cycles_per_packet":
                DEFAULT_COST_MODEL.app_vector("forwarding",
                                              packet_bytes).cpu_cycles
                + DEFAULT_COST_MODEL.bookkeeping_cycles(kp, kn),
        })
    return rows
