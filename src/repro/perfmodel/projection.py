"""Scaling projections (Sec. 5.3, item 4).

Because per-packet loads are constant in the input rate, performance on a
future server is found by intersecting the same load lines with the new
capacity bounds.  The paper projects the 4-socket / 8-core-per-socket
Nehalem follow-up (4x CPU, 2x memory, 2x I/O) at 38.8 / 19.9 / 5.8 Gbps
for forwarding / routing / IPsec with 64 B packets -- with routing turning
memory-bound -- and ~70 Gbps for Abilene forwarding absent the NIC-slot
limit.
"""

from __future__ import annotations

from typing import Dict

from .. import calibration as cal
from ..costs import DEFAULT_CONFIG, ServerConfig, per_packet_vector
from ..hw.presets import NEHALEM, NEHALEM_NEXT_GEN
from ..hw.server import ServerSpec
from ..units import rate_pps_to_bps
from ..workloads.spec import WorkloadSpec
from .throughput import RateResult, max_loss_free_rate


def project_rates(spec: ServerSpec = NEHALEM_NEXT_GEN,
                  packet_bytes: int = 64,
                  config: ServerConfig = DEFAULT_CONFIG) -> Dict[str, RateResult]:
    """Projected loss-free rates for all three applications on ``spec``.

    The projection deliberately drops the prototype's two-NIC-slot input
    cap (``nic_limited=False``): the question is what the server internals
    support.
    """
    results = {}
    for name, app in cal.APPLICATIONS.items():
        results[name] = max_loss_free_rate(
            WorkloadSpec.fixed(packet_bytes, app=app),
            spec=spec, config=config, empirical_bounds=True,
            nic_limited=False)
    return results


def projected_abilene_forwarding_bps(spec: ServerSpec = NEHALEM,
                                     io_nominal_fraction: float = 0.8) -> float:
    """Sec. 5.3's Abilene what-if: forwarding rate absent the NIC limit.

    "Ignoring the PCIe bus and assuming the socket-I/O bus can reach 80 %
    of its nominal capacity" -- the binding constraints left are the CPUs
    and one socket-I/O link at 80 % of nominal.  The paper estimates
    ~70 Gbps; this model lands in the mid-70s (the shapes agree: an order
    of magnitude above the 24.6 Gbps NIC-limited measurement).
    """
    if not 0 < io_nominal_fraction <= 1:
        raise ValueError("io_nominal_fraction must be in (0, 1]")
    mean = cal.ABILENE_MEAN_PACKET_BYTES
    loads = per_packet_vector(cal.MINIMAL_FORWARDING, mean, DEFAULT_CONFIG,
                              spec)
    cpu_pps = spec.cycles_per_second / loads.cpu_cycles
    one_link_bps = spec.io_bps / 2  # per-socket I/O link
    io_pps = io_nominal_fraction * one_link_bps / 8 / loads.io_bytes
    return rate_pps_to_bps(min(cpu_pps, io_pps), mean)
