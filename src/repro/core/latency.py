"""Per-server and cluster latency model (Sec. 6.2).

A packet's traversal of one server costs two back-and-forth DMA transfers
(packet + descriptor), CPU processing, and up to kn-1 packets of NIC-batch
wait.  The paper's decomposition for a routed 64 B packet:

    4 x 2.56 us (DMA) + 12.8 us (batch wait) + 0.8 us (processing) = 24 us

Subsequent nodes skip IP processing (MAC trick): exit nodes run minimal
forwarding (0.37 us), and intermediate nodes additionally overlap the
descriptor DMAs with the payload DMAs, leaving 2 transfers visible.
End-to-end: 47.6 us for a direct (2-node) path, 66.4 us for an indirect
(3-node) path -- matching the paper's 47.6-66.4 us range.
"""

from __future__ import annotations

from .. import calibration as cal
from ..errors import ConfigurationError

_ROLE_PROCESS_USEC = {
    "input": cal.ROUTE_PROCESS_USEC,
    "output": cal.FORWARD_PROCESS_USEC,
    "intermediate": cal.INTERMEDIATE_PROCESS_USEC,
}

_ROLE_DMA_TRANSFERS = {
    "input": 4,
    "output": 4,
    "intermediate": 2,
}


def server_latency_usec(role: str = "input", kn: int = cal.DEFAULT_KN,
                        packet_rate_pps: float = None) -> float:
    """Latency contributed by one server in the given role (microseconds).

    ``packet_rate_pps`` refines the batch wait: at rate r the expected wait
    for kn-1 successors is (kn-1)/r; the default (None) uses the paper's
    worst-case figure of 16 x 0.8 us.
    """
    if role not in _ROLE_PROCESS_USEC:
        raise ConfigurationError("role must be input|output|intermediate")
    if not 1 <= kn <= cal.MAX_NIC_BATCH:
        raise ConfigurationError("kn must be in [1, %d]" % cal.MAX_NIC_BATCH)
    dma = _ROLE_DMA_TRANSFERS[role] * cal.DMA_TRANSFER_USEC
    if packet_rate_pps is None:
        batch_wait = cal.BATCH_WAIT_USEC * (kn / cal.MAX_NIC_BATCH)
    else:
        if packet_rate_pps <= 0:
            raise ConfigurationError("packet rate must be positive")
        batch_wait = min(cal.BATCH_WAIT_USEC * (kn / cal.MAX_NIC_BATCH),
                         (kn - 1) / packet_rate_pps * 1e6)
    return dma + batch_wait + _ROLE_PROCESS_USEC[role]


def cluster_latency_usec(hops: int, kn: int = cal.DEFAULT_KN) -> float:
    """End-to-end latency through a VLB cluster path of ``hops`` servers.

    ``hops=2`` is a direct path (input + output node), ``hops=3`` adds one
    intermediate.
    """
    if hops < 2:
        raise ConfigurationError("a cluster path visits >= 2 servers")
    total = server_latency_usec("input", kn)
    total += (hops - 2) * server_latency_usec("intermediate", kn)
    total += server_latency_usec("output", kn)
    return total


def latency_range_usec(kn: int = cal.DEFAULT_KN) -> tuple:
    """(direct, indirect) latency -- the paper's 47.6-66.4 us range."""
    return cluster_latency_usec(2, kn), cluster_latency_usec(3, kn)
