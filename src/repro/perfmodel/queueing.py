"""Queueing-delay models for latency under load.

The Sec. 6.2 latency figures are unloaded-path numbers; under load,
packets also wait in NIC rings and internal link queues.  With
deterministic per-packet service (fixed cycles/packet, fixed-size
packets), each stage is well modeled as M/D/1, whose mean wait is half an
M/M/1's:

    W_q = rho / (2 * mu * (1 - rho))        (mean queueing delay)

This module provides per-stage and end-to-end latency-vs-load curves and a
crossing finder ("at what utilization does added delay exceed X us") --
the quantitative version of the paper's "relaxed performance guarantees"
trade-off discussion (Sec. 2).
"""

from __future__ import annotations

from typing import List

from .. import calibration as cal
from ..core.latency import cluster_latency_usec
from ..errors import ConfigurationError


def md1_wait_sec(service_sec: float, utilization: float) -> float:
    """Mean M/D/1 queueing delay for one stage.

    ``service_sec`` is the deterministic per-packet service time;
    ``utilization`` is rho in [0, 1).
    """
    if service_sec <= 0:
        raise ConfigurationError("service time must be positive")
    if not 0 <= utilization < 1:
        raise ConfigurationError("utilization must be in [0, 1)")
    if utilization == 0:
        return 0.0
    mu = 1.0 / service_sec
    return utilization / (2 * mu * (1 - utilization))


def server_service_time_sec(app: cal.AppCost = cal.MINIMAL_FORWARDING,
                            packet_bytes: int = 64,
                            cores: int = 8) -> float:
    """Effective per-packet service time of the server's CPU stage.

    With m cores each handling its own queue, the per-queue service rate
    is one core's; the stage service time is cycles/packet over one
    core's clock.
    """
    if cores < 1:
        raise ConfigurationError("need >= 1 core")
    cycles = app.cpu_cycles(packet_bytes) + cal.DEFAULT_BOOKKEEPING_CYCLES
    return cycles / cal.NEHALEM_CLOCK_HZ


def loaded_cluster_latency_usec(utilization: float, hops: int = 2,
                                app: cal.AppCost = cal.MINIMAL_FORWARDING,
                                packet_bytes: int = 740,
                                internal_link_bps: float = cal.PORT_RATE_BPS) -> float:
    """End-to-end cluster latency at a given per-stage utilization.

    Adds M/D/1 waits at each server's CPU stage and each internal link's
    serialization queue to the unloaded path latency.
    """
    if hops < 2:
        raise ConfigurationError("cluster paths visit >= 2 servers")
    base = cluster_latency_usec(hops)
    cpu_service = server_service_time_sec(app, packet_bytes)
    link_service = packet_bytes * 8 / internal_link_bps
    per_server_wait = md1_wait_sec(cpu_service, utilization)
    per_link_wait = md1_wait_sec(link_service, utilization)
    links = hops - 1
    return base + (hops * per_server_wait + links * per_link_wait) * 1e6


def latency_vs_load_curve(utilizations: List[float] = None,
                          hops: int = 2,
                          packet_bytes: int = 740) -> List[dict]:
    """(utilization, latency) rows for the latency-under-load curve."""
    if utilizations is None:
        utilizations = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95]
    rows = []
    for rho in utilizations:
        rows.append({"utilization": rho,
                     "latency_usec": loaded_cluster_latency_usec(
                         rho, hops=hops, packet_bytes=packet_bytes)})
    return rows


def utilization_for_latency_budget(budget_usec: float, hops: int = 2,
                                   packet_bytes: int = 740,
                                   tolerance: float = 1e-4) -> float:
    """Highest per-stage utilization keeping mean latency within budget."""
    base = loaded_cluster_latency_usec(0.0, hops=hops,
                                       packet_bytes=packet_bytes)
    if budget_usec <= base:
        raise ConfigurationError(
            "budget %.1f us below the unloaded path latency %.1f us"
            % (budget_usec, base))
    lo, hi = 0.0, 1.0 - 1e-9
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if loaded_cluster_latency_usec(mid, hops=hops,
                                       packet_bytes=packet_bytes) \
                <= budget_usec:
            lo = mid
        else:
            hi = mid
    return lo
