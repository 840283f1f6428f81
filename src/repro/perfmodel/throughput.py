"""Maximum loss-free forwarding rate solver.

The paper's primary metric (Sec. 5.1) is the maximum attainable loss-free
forwarding rate.  In the model this is the largest input rate at which no
component's load exceeds its capacity:

    rate_pps = min over components ( capacity_c / per_packet_load_c )

capped by what the NIC slots can physically move (24.6 Gbps on the
prototype).  The solver reports the binding component, reproducing the
paper's "the CPU is the bottleneck" conclusion and the NIC-limited plateau
for large packets (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..costs import (DEFAULT_CONFIG, DEFAULT_COST_MODEL, ResourceVector,
                     ServerConfig)
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..results import RunResult
from ..units import rate_pps_to_bps
from .bounds import bounds_for


@dataclass(frozen=True)
class RateResult(RunResult):
    """The solver's answer for one (server, app, packet size) point."""

    _summary_fields = ("rate_gbps", "rate_mpps", "bottleneck",
                       "packet_bytes")

    rate_bps: float
    rate_pps: float
    bottleneck: str
    packet_bytes: float
    loads: ResourceVector
    component_rates_pps: Dict[str, float]

    @property
    def rate_gbps(self) -> float:
        return self.rate_bps / 1e9

    @property
    def rate_mpps(self) -> float:
        return self.rate_pps / 1e6

    def utilization_at(self, offered_pps: float) -> Dict[str, float]:
        """Component utilizations at an offered input rate."""
        return {name: offered_pps / limit
                for name, limit in self.component_rates_pps.items()}


def _component_rate_limits(loads: ResourceVector, spec: ServerSpec,
                           empirical: bool) -> Dict[str, float]:
    """Packet-rate limit imposed by each component (packets/second)."""
    bounds = bounds_for(spec)
    limits = {}

    def bus_limit(name: str, load_bytes: float) -> Optional[float]:
        if load_bytes <= 0:
            return None
        bound = bounds[name]
        capacity = bound.empirical if empirical else bound.nominal
        return capacity / 8 / load_bytes

    limits["cpu"] = spec.cycles_per_second / loads.cpu_cycles
    if spec.shared_bus:
        # All memory and I/O traffic shares the front-side bus (Fig. 5).
        fsb_bytes = loads.mem_bytes + loads.io_bytes
        limit = bus_limit("fsb", fsb_bytes)
        if limit is not None:
            limits["fsb"] = limit
    else:
        for name, load_bytes in (("memory", loads.mem_bytes),
                                 ("io", loads.io_bytes),
                                 ("qpi", loads.qpi_bytes)):
            limit = bus_limit(name, load_bytes)
            if limit is not None:
                limits[name] = limit
    limit = bus_limit("pcie", loads.pcie_bytes)
    if limit is not None:
        limits["pcie"] = limit
    return limits


def rate_from_loads(loads: ResourceVector, packet_bytes: float,
                    spec: ServerSpec = NEHALEM,
                    empirical_bounds: bool = True,
                    nic_limited: bool = True) -> RateResult:
    """Solve for the loss-free rate given an already-compiled load vector.

    This is the solver half of :func:`max_loss_free_rate`, split out so a
    load vector from *any* source -- a preset application, or a Click
    pipeline compiled by :func:`repro.costs.compile_loads` -- answers the
    same question: which component saturates first, and at what rate.
    """
    if packet_bytes <= 0:
        raise ConfigurationError("packet size must be positive")
    if loads.cpu_cycles <= 0:
        raise ConfigurationError(
            "load vector charges no CPU cycles; every packet at least "
            "crosses the forwarding path")
    limits = _component_rate_limits(loads, spec, empirical_bounds)
    if nic_limited:
        limits["nic"] = spec.max_input_bps / (packet_bytes * 8)
    bottleneck = min(limits, key=limits.get)
    rate_pps = limits[bottleneck]
    return RateResult(
        rate_bps=rate_pps_to_bps(rate_pps, packet_bytes),
        rate_pps=rate_pps,
        bottleneck=bottleneck,
        packet_bytes=packet_bytes,
        loads=loads,
        component_rates_pps=limits,
    )


def max_loss_free_rate(workload: "WorkloadSpec",
                       spec: ServerSpec = NEHALEM,
                       config: ServerConfig = DEFAULT_CONFIG,
                       empirical_bounds: bool = True,
                       nic_limited: bool = True) -> RateResult:
    """Solve for the maximum loss-free forwarding rate.

    ``workload`` is a :class:`~repro.workloads.spec.WorkloadSpec` (its
    application and mean packet size drive the solver; per-packet costs
    are affine in size, so the mean is exact for rate computations).

    ``empirical_bounds`` uses the benchmark-derived (Table 2, right column)
    bus capacities instead of nominal ratings.  ``nic_limited`` applies the
    physical NIC-slot input cap (the paper's 24.6 Gbps traffic-generation
    limit); disable it to ask what the server internals alone could do.
    """
    from ..workloads.spec import WorkloadSpec
    if not isinstance(workload, WorkloadSpec):
        raise TypeError(
            "max_loss_free_rate() takes a repro.workloads.WorkloadSpec; "
            "the (app, packet_bytes) form was removed -- use "
            "WorkloadSpec.fixed(packet_bytes, app=app)")
    app = workload.app
    packet_bytes = workload.mean_packet_bytes
    if packet_bytes <= 0:
        raise ConfigurationError("packet size must be positive")
    loads = DEFAULT_COST_MODEL.per_packet_vector(app, packet_bytes, config,
                                                spec)
    return rate_from_loads(loads, packet_bytes, spec=spec,
                           empirical_bounds=empirical_bounds,
                           nic_limited=nic_limited)
