"""Cross-validation: the analytic model against the timed simulation.

The library carries two independent implementations of the single-server
forwarding story: the closed-form bottleneck solver (`repro.perfmodel`)
and the event-driven run (`repro.click.simrun`).  This harness sweeps both
over a grid of operating points and reports the disagreement -- the
reproduction's internal consistency check, run as part of the benchmark
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .. import calibration as cal
from ..click.simrun import TimedForwardingRun
from ..costs import ServerConfig
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import Server
from ..perfmodel.throughput import max_loss_free_rate
from ..results import RunResult
from ..workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class ValidationPoint(RunResult):
    """One grid point: analytic prediction vs simulated measurement."""

    _summary_fields = ("kp", "kn", "packet_bytes", "relative_error")

    kp: int
    kn: int
    packet_bytes: int
    analytic_gbps: float
    simulated_gbps: float

    @property
    def relative_error(self) -> float:
        if self.analytic_gbps == 0:
            raise ConfigurationError("degenerate analytic prediction")
        return abs(self.simulated_gbps - self.analytic_gbps) \
            / self.analytic_gbps


def validate_forwarding(grid: List[Tuple[int, int, int]] = None,
                        tolerance_bps: float = 0.25e9) -> List[ValidationPoint]:
    """Run the analytic/DES comparison over a (kp, kn, size) grid."""
    if grid is None:
        grid = [(1, 1, 64), (32, 1, 64), (32, 16, 64), (32, 16, 256)]
    points = []
    for kp, kn, size in grid:
        config = ServerConfig(kp=kp, kn=kn)
        result = max_loss_free_rate(
            WorkloadSpec.fixed(size, app="forwarding"),
            config=config, nic_limited=False)
        # The timed simulation models the CPU path (cores, polls, rings);
        # compare against the analytic CPU limit specifically -- at sizes
        # where another component binds first, the full solver would
        # predict less than the DES can observe.
        cpu_pps = result.component_rates_pps["cpu"]
        analytic_bps = cpu_pps * size * 8
        server = Server(NEHALEM, num_ports=4, queues_per_port=2)
        run = TimedForwardingRun(server, packet_bytes=size, kp=kp, kn=kn)
        high = min(analytic_bps * 1.6, 60e9)
        simulated = run.find_loss_free_rate(
            low_bps=analytic_bps * 0.3, high_bps=high,
            tolerance_bps=tolerance_bps)
        points.append(ValidationPoint(kp=kp, kn=kn, packet_bytes=size,
                                      analytic_gbps=analytic_bps / 1e9,
                                      simulated_gbps=simulated / 1e9))
    return points


def max_relative_error(points: List[ValidationPoint]) -> float:
    """Worst disagreement across the grid."""
    if not points:
        raise ConfigurationError("no validation points")
    return max(point.relative_error for point in points)
