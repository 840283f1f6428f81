"""The batching model of Table 1 and latency/jitter trade-offs (Sec. 4.2).

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


def batching_added_latency_sec(kn: int, packet_rate_pps: float) -> float:
    """Worst-case extra queueing delay from NIC-driven batching.

    A packet may wait for ``kn - 1`` successors before its descriptor batch
    is relayed (Sec. 4.2's latency caveat); at high rates the wait is
    nanoseconds, at low rates it motivates the batching timeout.
    """
    if kn < 1:
        raise ValueError("kn must be >= 1")
    if packet_rate_pps <= 0:
        raise ValueError("packet rate must be positive")
    return (kn - 1) / packet_rate_pps


def effective_kn_with_timeout(kn: int, packet_rate_pps: float,
                              timeout_sec: float) -> float:
    """Average batch size when a batching timeout caps the wait.

    Models the driver feature the paper plans ("a timeout to limit the
    amount of time a packet can wait"): if fewer than ``kn`` packets arrive
    within the timeout, the batch is flushed early.
    """
    if timeout_sec <= 0:
        raise ValueError("timeout must be positive")
    expected_arrivals = packet_rate_pps * timeout_sec
    return max(1.0, min(float(kn), expected_arrivals))
