"""Parameter sweeps over the performance model.

Grids of (application x packet size x server x batching) operating points
in one call, for the figure-style series the benchmarks and examples
print.  Also provides crossover finders ("at what packet size does the
bottleneck move off the CPU?") used by the analysis notebooks-in-tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .. import calibration as cal
from ..costs import DEFAULT_CONFIG, ServerConfig
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..workloads.spec import WorkloadSpec
from .throughput import RateResult, max_loss_free_rate

DEFAULT_SIZES = (64, 128, 256, 512, 1024, 1500)


def size_sweep(app: cal.AppCost, sizes: Iterable[int] = DEFAULT_SIZES,
               spec: ServerSpec = NEHALEM,
               config: ServerConfig = DEFAULT_CONFIG,
               nic_limited: bool = True) -> List[dict]:
    """Loss-free rate vs packet size for one application."""
    rows = []
    for size in sizes:
        result = max_loss_free_rate(WorkloadSpec.fixed(size, app=app),
                                    spec=spec, config=config,
                                    nic_limited=nic_limited)
        rows.append({"packet_bytes": size, "rate_gbps": result.rate_gbps,
                     "rate_mpps": result.rate_mpps,
                     "bottleneck": result.bottleneck})
    return rows


def app_sweep(packet_bytes: int = 64, spec: ServerSpec = NEHALEM,
              config: ServerConfig = DEFAULT_CONFIG) -> Dict[str, RateResult]:
    """All three applications at one packet size."""
    return {name: max_loss_free_rate(
                WorkloadSpec.fixed(packet_bytes, app=app),
                spec=spec, config=config)
            for name, app in cal.APPLICATIONS.items()}


def batching_grid(kps: Iterable[int] = (1, 2, 4, 8, 16, 32),
                  kns: Iterable[int] = (1, 2, 4, 8, 16),
                  packet_bytes: int = 64,
                  spec: ServerSpec = NEHALEM) -> List[dict]:
    """The full (kp, kn) surface Table 1 samples three points of."""
    rows = []
    for kp in kps:
        for kn in kns:
            config = ServerConfig(kp=kp, kn=kn)
            result = max_loss_free_rate(
                WorkloadSpec.fixed(packet_bytes, app="forwarding"),
                spec=spec, config=config)
            rows.append({"kp": kp, "kn": kn,
                         "rate_gbps": result.rate_gbps})
    return rows


def bottleneck_crossover_bytes(app: cal.AppCost,
                               spec: ServerSpec = NEHALEM,
                               config: ServerConfig = DEFAULT_CONFIG,
                               lo: int = 64, hi: int = 1500) -> Optional[int]:
    """Smallest packet size at which the CPU stops being the bottleneck.

    Returns None if the CPU binds across the whole range (IPsec on the
    prototype).  Binary search; loads are monotone in size.
    """
    if lo >= hi:
        raise ConfigurationError("need lo < hi")

    def cpu_bound(size: int) -> bool:
        return max_loss_free_rate(WorkloadSpec.fixed(size, app=app),
                                  spec=spec,
                                  config=config).bottleneck == "cpu"

    if not cpu_bound(lo):
        return lo
    if cpu_bound(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cpu_bound(mid):
            lo = mid
        else:
            hi = mid
    return hi


def headroom_matrix(packet_bytes: int = 64,
                    spec: ServerSpec = NEHALEM) -> List[dict]:
    """Per-application, per-component headroom at saturation (Fig. 10
    condensed into one table)."""
    from ..analysis.bottleneck import deconstruct

    rows = []
    for name, app in cal.APPLICATIONS.items():
        report = deconstruct(app, packet_bytes, spec=spec)
        row = {"application": name, "bottleneck": report.bottleneck}
        for component in ("cpu", "memory", "io", "pcie", "qpi"):
            row[component] = report.headroom(component)
        rows.append(row)
    return rows
