"""Per-server port sizing (the paper's conclusions, quantified).

Sec. 9: "we can comfortably build software routers with multiple (about
8-9) 1 Gbps ports per server ... we come very close to achieving a line
rate of 10 Gbps".  This module derives those numbers: a server can host
``s`` ports of rate R iff its packet-processing capacity covers the VLB
requirement c*s*R (c = 2 for close-to-uniform traffic, 3 worst case),
where the capacity is the workload-dependent saturation rate of Sec. 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import calibration as cal
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..perfmodel.throughput import max_loss_free_rate
from ..workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class PortSizing:
    """How many ports of a given rate one server can host."""

    port_rate_bps: float
    processing_capacity_bps: float
    vlb_factor: float
    ports: int


def processing_capacity_bps(workload: str = "realistic",
                            app_name: str = "routing",
                            spec: ServerSpec = NEHALEM) -> float:
    """The server's packet-processing capacity for port sizing.

    ``workload``: "realistic" uses the Abilene-mean operating point (the
    NIC-limited 24.6 Gbps on the prototype); "worst-case" uses 64 B.
    The capacity takes the *input-node* application (routing) -- the
    VLB factor already covers the forwarding passes.
    """
    if workload == "realistic":
        size = cal.ABILENE_MEAN_PACKET_BYTES
    elif workload == "worst-case":
        size = 64
    else:
        raise ConfigurationError("workload must be realistic|worst-case")
    return max_loss_free_rate(WorkloadSpec.fixed(size, app=app_name),
                              spec=spec).rate_bps


def ports_per_server(port_rate_bps: float, workload: str = "realistic",
                     worst_case_matrix: bool = True,
                     app_name: str = "routing",
                     spec: ServerSpec = NEHALEM) -> PortSizing:
    """Size a server: how many R-rate ports can it host?

    ``worst_case_matrix`` selects the VLB factor: 3 guarantees any
    admissible matrix; 2 assumes close-to-uniform traffic.
    """
    if port_rate_bps <= 0:
        raise ConfigurationError("port rate must be positive")
    capacity = processing_capacity_bps(workload, app_name, spec)
    factor = 3.0 if worst_case_matrix else 2.0
    ports = math.floor(capacity / (factor * port_rate_bps))
    return PortSizing(port_rate_bps=port_rate_bps,
                      processing_capacity_bps=capacity,
                      vlb_factor=factor, ports=ports)


def conclusion_claims(spec: ServerSpec = NEHALEM) -> dict:
    """The Sec. 9 conclusions as numbers.

    * ``ports_1g``: 1 Gbps ports per server under realistic traffic with
      the full worst-case VLB guarantee ("about 8-9");
    * ``fraction_of_10g_realistic``: how close one 10 Gbps port comes to
      being fully served under realistic traffic ("very close");
    * ``fraction_of_10g_worst_case``: the same under 64 B worst case
      ("falls short").
    """
    ports_1g = ports_per_server(1e9, workload="realistic",
                                worst_case_matrix=True, spec=spec).ports
    realistic = processing_capacity_bps("realistic", spec=spec)
    worst = processing_capacity_bps("worst-case", spec=spec)
    return {
        "ports_1g": ports_1g,
        "fraction_of_10g_realistic": min(1.0, realistic / (2.0 * 10e9)),
        "fraction_of_10g_worst_case": worst / (2.0 * 10e9),
    }
