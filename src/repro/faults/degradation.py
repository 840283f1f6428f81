"""Analytic graceful-degradation model: capacity vs. failed servers.

RouteBricks promises that a VLB mesh *degrades* rather than collapses
when servers die (Sec. 3.2): survivors re-balance over the remaining
n' = n - k nodes using only local information.  The catch is that the
internal links were physically provisioned for the *full* membership --
at VLB's 2R/n rule the cables do not get faster when the mesh shrinks.
This module predicts the resulting capacity curve analytically, by
re-running the cluster operating-point model
(:meth:`~repro.core.router.RouteBricksRouter.max_throughput`) at each
survivor count with the link rate pinned at its day-one value:

* **uniform traffic, adaptive Direct VLB** -- per-pair demand
  R'/(n'-1) still fits the 2R/n cables for modest k, so capacity tracks
  the surviving ports: fraction ~ (n - k)/n (*linear*).
* **worst-case matrix, full two-phase VLB** -- every link must carry
  2R'/n' but only has 2R/n, so R' <= R * n'/n and the aggregate falls
  as (n'/n)^2 (*quadratic*).

The packet-level DES (driven through ``RouteBricksRouter.simulate`` with
a :class:`~repro.faults.schedule.FaultSchedule`) must match the uniform
curve in shape -- that comparison is
``benchmarks/bench_faults_degradation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .. import calibration as cal
from ..costs import DEFAULT_CONFIG, ServerConfig
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..results import RunResult


@dataclass(frozen=True)
class DegradationPoint(RunResult):
    """Predicted operating point with ``failed_nodes`` servers down."""

    _summary_fields = ("failed_nodes", "live_nodes", "capacity_gbps",
                       "capacity_fraction", "binding")

    failed_nodes: int
    live_nodes: int
    capacity_bps: float
    per_port_bps: float
    capacity_fraction: float     # relative to the zero-failure capacity
    binding: str                 # cpu | nic | link | port | dead

    @property
    def capacity_gbps(self) -> float:
        return self.capacity_bps / 1e9

    @property
    def failed_fraction(self) -> float:
        total = self.failed_nodes + self.live_nodes
        return self.failed_nodes / total if total else 0.0


@dataclass(frozen=True)
class DegradationReport(RunResult):
    """A capacity-vs-failed-servers curve for one cluster + workload."""

    _summary_fields = ("num_nodes", "workload", "uniform", "baseline_gbps")

    num_nodes: int
    workload: str
    packet_bytes: float
    uniform: bool
    internal_link_bps: float
    baseline_bps: float
    points: List[DegradationPoint] = field(default_factory=list)

    @property
    def baseline_gbps(self) -> float:
        return self.baseline_bps / 1e9

    def fractions(self) -> List[float]:
        """Capacity fraction at k = 0, 1, 2, ... failed servers."""
        return [point.capacity_fraction for point in self.points]

    def point(self, failed: int) -> DegradationPoint:
        for candidate in self.points:
            if candidate.failed_nodes == failed:
                return candidate
        raise ConfigurationError("no degradation point for %d failed"
                                 % failed)


def linear_fraction(num_nodes: int, failed: int) -> float:
    """The graceful ideal: capacity falls with the surviving ports."""
    return max(num_nodes - failed, 0) / num_nodes


def quadratic_fraction(num_nodes: int, failed: int) -> float:
    """The worst-case two-phase bound with day-one 2R/n cables."""
    return (max(num_nodes - failed, 0) / num_nodes) ** 2


def degradation_curve(num_nodes: int = 8,
                      workload=None,
                      uniform: bool = True,
                      max_failed: Optional[int] = None,
                      port_rate_bps: float = cal.PORT_RATE_BPS,
                      internal_link_bps: Optional[float] = None,
                      spec: ServerSpec = NEHALEM,
                      config: ServerConfig = DEFAULT_CONFIG,
                      use_flowlets: bool = True) -> DegradationReport:
    """Predict cluster capacity at k = 0 .. ``max_failed`` dead servers.

    ``workload`` is a :class:`~repro.workloads.WorkloadSpec` (default:
    fixed 1024 B forwarding-friendly frames, which keeps the CPU out of
    the way so the curve shows the *interconnect* degradation).
    ``internal_link_bps`` defaults to VLB's provisioning rule 2R/n for
    the full membership -- the rate the cables keep as nodes die.  A
    cluster cut below two survivors has no mesh and zero capacity.
    """
    from ..core.router import RouteBricksRouter
    from ..core.vlb import required_internal_link_rate
    from ..workloads.spec import WorkloadSpec

    if workload is None:
        workload = WorkloadSpec.fixed(1024)
    elif not isinstance(workload, WorkloadSpec):
        raise ConfigurationError("workload must be a WorkloadSpec "
                                 "(got %r)" % (workload,))
    if num_nodes < 2:
        raise ConfigurationError("cluster needs >= 2 nodes")
    if max_failed is None:
        max_failed = num_nodes - 2
    if not 0 <= max_failed <= num_nodes:
        raise ConfigurationError("max_failed must be in [0, %d]" % num_nodes)
    if internal_link_bps is None:
        internal_link_bps = required_internal_link_rate(num_nodes,
                                                        port_rate_bps)

    points: List[DegradationPoint] = []
    baseline_bps = 0.0
    for failed in range(max_failed + 1):
        live = num_nodes - failed
        if live < 2:
            points.append(DegradationPoint(
                failed_nodes=failed, live_nodes=live,
                capacity_bps=0.0, per_port_bps=0.0,
                capacity_fraction=0.0, binding="dead"))
            continue
        survivors = RouteBricksRouter(
            num_nodes=live,
            port_rate_bps=port_rate_bps,
            internal_link_bps=internal_link_bps,   # day-one cables
            spec=spec, config=config,
            use_flowlets=use_flowlets)
        result = survivors.max_throughput(workload, uniform=uniform)
        if failed == 0:
            baseline_bps = result.aggregate_bps
        points.append(DegradationPoint(
            failed_nodes=failed, live_nodes=live,
            capacity_bps=result.aggregate_bps,
            per_port_bps=result.per_port_bps,
            capacity_fraction=(result.aggregate_bps / baseline_bps
                               if baseline_bps else 0.0),
            binding=result.binding))
    return DegradationReport(
        num_nodes=num_nodes,
        workload=workload.name,
        packet_bytes=workload.mean_packet_bytes,
        uniform=uniform,
        internal_link_bps=internal_link_bps,
        baseline_bps=baseline_bps,
        points=points)
