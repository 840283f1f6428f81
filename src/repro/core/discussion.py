"""The Sec. 8 discussion models: form factor, power, and cost.

The paper closes with back-of-the-envelope feasibility estimates for a
production RouteBricks:

* **Form factor**: RB4 is a 40 Gbps router in 4U.  Integrating 16 Ethernet
  controllers on the motherboard (2 x 10 G + 30 x 1 G per server, +48 W)
  allows direct meshes of 30-40 servers: 1U servers, one 10 G port each,
  i.e. a 300-400 Gbps router in 30U.  Reference: Cisco 7600 does
  360 Gbps in 21U.
* **Power**: RB4 draws 2.6 kW nominal vs 1.6 kW for a mid-range router
  loaded for 40 Gbps (~60 % more).
* **Cost**: RB4's parts cost $14,500 vs a $70,000 quoted price for a
  40 Gbps Cisco 7603 (raw cost vs product price; not a direct comparison).

These are modeled so the estimates regenerate from their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: RB4 reference points (Sec. 8).
RB4_POWER_KW = 2.6
RB4_COST_USD = 14_500
RB4_RACK_UNITS = 4
RB4_CAPACITY_GBPS = 40

#: Mid-range hardware-router reference (Cisco 7600-class, Sec. 8).
REFERENCE_ROUTER_POWER_KW = 1.6
REFERENCE_ROUTER_COST_USD = 70_000
REFERENCE_ROUTER_GBPS_PER_RU = 360 / 21  # Cisco 7600: 360 Gbps in 21U

#: Per-server figures behind the RB4 aggregates.
SERVER_POWER_KW = RB4_POWER_KW / 4
SERVER_RACK_UNITS = 1

#: On-board Ethernet-controller integration estimate (Sec. 8): 16
#: controllers drive 2 x 10 G + 30 x 1 G for roughly +48 W.
INTEGRATED_CONTROLLERS = 16
INTEGRATED_10G_PORTS = 2
INTEGRATED_1G_PORTS = 30
INTEGRATION_POWER_W = 48


@dataclass(frozen=True)
class ClusterEstimate:
    """Space/power/cost estimate for an N-server RouteBricks cluster."""

    servers: int
    capacity_gbps: float
    rack_units: int
    power_kw: float
    cost_usd: int

    @property
    def gbps_per_rack_unit(self) -> float:
        return self.capacity_gbps / self.rack_units


def estimate_cluster(num_servers: int, port_gbps_per_server: float = 10.0,
                     integrated_nics: bool = False,
                     server_cost_usd: int = 2000) -> ClusterEstimate:
    """Space/power/cost for a full-mesh cluster of 1U servers.

    With ``integrated_nics`` the per-server fanout supports meshes of up
    to ``INTEGRATED_1G_PORTS + INTEGRATED_10G_PORTS`` servers and adds
    the integration power; without it, the mesh is bounded by NIC slots
    as in `repro.core.provision`.
    """
    if num_servers < 1:
        raise ConfigurationError("need >= 1 server")
    if integrated_nics:
        max_mesh = INTEGRATED_1G_PORTS + INTEGRATED_10G_PORTS + 1
        if num_servers > max_mesh:
            raise ConfigurationError(
                "integrated controllers support meshes up to %d servers"
                % max_mesh)
    power = num_servers * SERVER_POWER_KW
    if integrated_nics:
        power += num_servers * INTEGRATION_POWER_W / 1e3
    return ClusterEstimate(
        servers=num_servers,
        capacity_gbps=num_servers * port_gbps_per_server,
        rack_units=num_servers * SERVER_RACK_UNITS,
        power_kw=power,
        cost_usd=num_servers * server_cost_usd,
    )


def rb4_estimate() -> ClusterEstimate:
    """The RB4 prototype's own numbers (cost held at the quoted $14,500)."""
    estimate = estimate_cluster(4)
    return ClusterEstimate(servers=4, capacity_gbps=RB4_CAPACITY_GBPS,
                           rack_units=RB4_RACK_UNITS,
                           power_kw=RB4_POWER_KW, cost_usd=RB4_COST_USD)


def power_overhead_vs_reference(estimate: ClusterEstimate) -> float:
    """Fractional extra power vs the hardware-router reference, scaled to
    the same capacity (the paper's "about 60 % more" at 40 Gbps)."""
    if estimate.capacity_gbps <= 0:
        raise ConfigurationError("estimate has no capacity")
    reference_kw = (REFERENCE_ROUTER_POWER_KW
                    * estimate.capacity_gbps / RB4_CAPACITY_GBPS)
    return estimate.power_kw / reference_kw - 1.0


def form_factor_comparison(num_servers: int = 33) -> dict:
    """The Sec. 8 integrated-controller scenario vs the Cisco 7600.

    A mesh of 1U servers with on-board controllers ("30-40 servers"):
    a 300-400 Gbps router in 30-40U, against 360 Gbps in 21U for the
    hardware router.
    """
    cluster = estimate_cluster(num_servers, integrated_nics=True)
    return {
        "cluster_gbps": cluster.capacity_gbps,
        "cluster_rack_units": cluster.rack_units,
        "cluster_gbps_per_ru": cluster.gbps_per_rack_unit,
        "reference_gbps_per_ru": REFERENCE_ROUTER_GBPS_PER_RU,
        "density_ratio": (cluster.gbps_per_rack_unit
                          / REFERENCE_ROUTER_GBPS_PER_RU),
    }


def next_gen_form_factor_gain() -> float:
    """Sec. 8: the 4-socket follow-up's ~4x performance shrinks the form
    factor ~4x at equal capacity."""
    from ..hw.presets import NEHALEM, NEHALEM_NEXT_GEN
    return (NEHALEM_NEXT_GEN.cycles_per_second / NEHALEM.cycles_per_second)


def cost_comparison() -> dict:
    """RB4 parts cost vs the hardware router's quoted price (Sec. 8)."""
    return {
        "rb4_cost_usd": RB4_COST_USD,
        "reference_price_usd": REFERENCE_ROUTER_COST_USD,
        "ratio": REFERENCE_ROUTER_COST_USD / RB4_COST_USD,
    }
