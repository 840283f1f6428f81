"""Bottleneck deconstruction (Sec. 5.3).

For each component: estimate the per-packet upper bound (capacity divided
by packet rate, both nominal and empirical), measure the per-packet load,
and flag the component whose measured load approaches its bound.  Since
the calibrated loads are constant in the input rate (the paper's item 4),
the load "lines" in Figs. 9-10 are flat and the intersection with a bound
line is exactly the saturation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import calibration as cal
from ..costs import DEFAULT_CONFIG, DEFAULT_COST_MODEL, ServerConfig
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..perfmodel.bounds import bounds_for
from ..results import RunResult


@dataclass(frozen=True)
class BottleneckReport(RunResult):
    """Loads-vs-bounds for one (app, packet size, server) point."""

    _summary_fields = ("app", "packet_bytes", "bottleneck",
                       "saturation_pps")

    app: str
    packet_bytes: float
    loads: Dict[str, float]            # per-packet load per component
    nominal_bounds: Dict[str, float]   # at saturation packet rate
    empirical_bounds: Dict[str, float]
    saturation_pps: float
    bottleneck: str

    def headroom(self, component: str, empirical: bool = True) -> float:
        """bound/load at saturation (1.0 = the binding component)."""
        bounds = self.empirical_bounds if empirical else self.nominal_bounds
        load = self.loads[component]
        if load == 0:
            return float("inf")
        return bounds[component] / load


_COMPONENT_LOADS = {
    "cpu": lambda lv: lv.cpu_cycles,
    "memory": lambda lv: lv.mem_bytes,
    "io": lambda lv: lv.io_bytes,
    "pcie": lambda lv: lv.pcie_bytes,
    "qpi": lambda lv: lv.qpi_bytes,
}


def deconstruct(app: cal.AppCost, packet_bytes: float = 64,
                spec: ServerSpec = NEHALEM,
                config: ServerConfig = DEFAULT_CONFIG) -> BottleneckReport:
    """Build the Figs. 9-10 comparison for one application."""
    from ..perfmodel.throughput import max_loss_free_rate
    from ..workloads.spec import WorkloadSpec

    loads_vec = DEFAULT_COST_MODEL.per_packet_vector(
        app, packet_bytes, config, spec)
    result = max_loss_free_rate(WorkloadSpec.fixed(packet_bytes, app=app),
                                spec=spec, config=config,
                                empirical_bounds=True, nic_limited=False)
    rate = result.rate_pps
    bounds = bounds_for(spec)
    loads = {name: get(loads_vec) for name, get in _COMPONENT_LOADS.items()}
    nominal = {}
    empirical = {}
    for name in _COMPONENT_LOADS:
        bound = bounds[name]
        nominal[name] = bound.per_packet_bound(rate, empirical=False)
        empirical[name] = bound.per_packet_bound(rate, empirical=True)
    return BottleneckReport(app=app.name, packet_bytes=packet_bytes,
                            loads=loads, nominal_bounds=nominal,
                            empirical_bounds=empirical,
                            saturation_pps=rate,
                            bottleneck=result.bottleneck)


def load_series(app: cal.AppCost, packet_bytes: float = 64,
                spec: ServerSpec = NEHALEM,
                config: ServerConfig = DEFAULT_CONFIG,
                rates_mpps: List[float] = None) -> List[dict]:
    """Per-packet load at increasing input rates (the Figs. 9-10 x-axis).

    The loads themselves are rate-independent (constant lines); the bound
    columns fall as capacity/rate.  One row per rate.
    """
    if rates_mpps is None:
        rates_mpps = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    loads_vec = DEFAULT_COST_MODEL.per_packet_vector(
        app, packet_bytes, config, spec)
    bounds = bounds_for(spec)
    rows = []
    for mpps in rates_mpps:
        if mpps <= 0:
            raise ValueError("rates must be positive")
        rate = mpps * 1e6
        row = {"rate_mpps": mpps}
        for name, get in _COMPONENT_LOADS.items():
            row[name + "_load"] = get(loads_vec)
            row[name + "_nominal_bound"] = bounds[name].per_packet_bound(rate)
            row[name + "_empirical_bound"] = bounds[name].per_packet_bound(
                rate, empirical=True)
        rows.append(row)
    return rows


def pipeline_breakdown(graph, packet_bytes: float = 64,
                       spec: ServerSpec = NEHALEM,
                       config: ServerConfig = DEFAULT_CONFIG) -> dict:
    """Rate, binding component, and per-element costs for a Click graph.

    The pipeline-level analogue of :func:`deconstruct`: compile the graph
    to a load vector, solve for the loss-free rate, and attach the
    traversal-weighted per-element cost rows so the report says not just
    *which component* binds but *which elements* put the load there.
    """
    from ..costs import compile_loads, element_costs
    from ..perfmodel.throughput import rate_from_loads

    loads = compile_loads(graph, packet_bytes, config=config, spec=spec)
    result = rate_from_loads(loads, packet_bytes, spec=spec)
    return {
        "packet_bytes": packet_bytes,
        "rate_gbps": result.rate_gbps,
        "rate_mpps": result.rate_mpps,
        "bottleneck": result.bottleneck,
        "loads": {name: get(loads)
                  for name, get in _COMPONENT_LOADS.items()},
        "component_rates_pps": result.component_rates_pps,
        "elements": element_costs(graph, packet_bytes),
    }
