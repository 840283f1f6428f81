"""The Fig. 6 core/queue-assignment scenarios and the Fig. 7 configurations.

Fig. 6 measures "toy" forwarding paths (64 B packets, blind port-to-port
forwarding) under different assignments of queues and packets to cores:

  (a) pipeline, two cores sharing an L3 cache
  (a') pipeline, two cores on different sockets (extra cache misses)
  (b) parallel: one core does RX + processing + TX           -- the winner
  (c) single RX queue, one polling core splitting to workers
  (d) scenario (c) fixed with one RX queue per worker core
  (e) overlapping paths sharing a TX queue (no multi-queue)
  (f) scenario (e) fixed with one TX queue per core

The two scheduling rules the paper derives -- one core per queue, one core
per packet -- fall directly out of these models.  Cost constants come from
`repro.calibration` and are themselves derived from the figure's published
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import calibration as cal
from ..costs import ServerConfig
from ..hw.presets import NEHALEM, XEON_SHARED_BUS
from ..units import rate_pps_to_bps
from ..workloads.spec import WorkloadSpec
from .throughput import max_loss_free_rate


@dataclass(frozen=True)
class Scenario:
    """One Fig. 6 forwarding-path setup."""

    key: str
    description: str
    cores_per_fp: int
    rate_gbps: float  # per forwarding path

    def violates_one_core_per_packet(self) -> bool:
        return self.key in ("pipeline", "pipeline_cross_cache", "split")

    def violates_one_core_per_queue(self) -> bool:
        return self.key in ("split", "overlap")


def _per_core_rate_pps(cycles_per_packet: float) -> float:
    return NEHALEM.clock_hz / cycles_per_packet


def _gbps(pps: float, packet_bytes: int = 64) -> float:
    return rate_pps_to_bps(pps, packet_bytes) / 1e9


def _build_scenarios(packet_bytes: int = 64) -> Dict[str, Scenario]:
    toy = cal.TOY_FWD_CYCLES
    sync = cal.PIPELINE_SYNC_CYCLES
    miss = cal.CROSS_CACHE_MISS_CYCLES
    lock = cal.QUEUE_LOCK_CYCLES
    rx = cal.RX_FRACTION * toy

    scenarios = {}

    # (b) parallel: the whole path on one core.
    parallel_pps = _per_core_rate_pps(toy)
    scenarios["parallel"] = Scenario(
        "parallel", "one core per packet and per queue", 1,
        _gbps(parallel_pps, packet_bytes))

    # (a) pipeline across two cores sharing L3: each stage does half the
    # work plus a synchronization handoff; throughput = slowest stage.
    stage = toy / 2 + sync
    scenarios["pipeline"] = Scenario(
        "pipeline", "two-core pipeline, shared L3 cache", 2,
        _gbps(_per_core_rate_pps(stage), packet_bytes))

    # (a') pipeline across sockets: the handoff additionally misses L3.
    stage = toy / 2 + sync + miss
    scenarios["pipeline_cross_cache"] = Scenario(
        "pipeline_cross_cache", "two-core pipeline, different L3 caches", 2,
        _gbps(_per_core_rate_pps(stage), packet_bytes))

    # (c) one polling core fans out to two workers through a shared
    # software queue: the poller pays RX work plus the contended-queue
    # cost and becomes the bottleneck.
    poller = rx + lock
    poller_pps = _per_core_rate_pps(poller)
    worker_pps = 2 * _per_core_rate_pps((1 - cal.RX_FRACTION) * toy + sync)
    scenarios["split"] = Scenario(
        "split", "single RX queue, poller splits to two workers", 3,
        _gbps(min(poller_pps, worker_pps), packet_bytes))

    # (d) the fix: one RX queue per worker; both run the parallel path.
    scenarios["split_multi_queue"] = Scenario(
        "split_multi_queue", "per-core RX queues on one port", 2,
        _gbps(2 * parallel_pps, packet_bytes))

    # (e) two overlapping paths share a TX queue: each packet pays the
    # lock + cache-line bounce on the shared ring.
    overlap_pps = _per_core_rate_pps(toy + lock)
    scenarios["overlap"] = Scenario(
        "overlap", "overlapping paths, shared TX queue", 1,
        _gbps(overlap_pps, packet_bytes))

    # (f) the fix: per-core TX queues restore the parallel rate.
    scenarios["overlap_multi_queue"] = Scenario(
        "overlap_multi_queue", "overlapping paths, per-core TX queues", 1,
        _gbps(parallel_pps, packet_bytes))

    return scenarios


SCENARIOS: Dict[str, Scenario] = _build_scenarios()


def scenario_rate_gbps(key: str) -> float:
    """Per-forwarding-path rate of a Fig. 6 scenario, in Gbps."""
    if key not in SCENARIOS:
        raise KeyError("unknown scenario %r (have %s)"
                       % (key, sorted(SCENARIOS)))
    return SCENARIOS[key].rate_gbps


def fig7_configurations(packet_bytes: int = 64) -> List[dict]:
    """The four Fig. 7 bars: cumulative effect of the design changes.

    Returns rows with Mpps for: shared-bus Xeon (single queue, no
    batching), Nehalem single queue no batching, Nehalem single queue with
    batching, Nehalem multi-queue with batching.
    """
    cases = [
        ("xeon/single-queue/no-batching", XEON_SHARED_BUS,
         ServerConfig(multi_queue=False, kp=1, kn=1)),
        ("nehalem/single-queue/no-batching", NEHALEM,
         ServerConfig(multi_queue=False, kp=1, kn=1)),
        ("nehalem/single-queue/batching", NEHALEM,
         ServerConfig(multi_queue=False, kp=32, kn=16)),
        ("nehalem/multi-queue/batching", NEHALEM,
         ServerConfig(multi_queue=True, kp=32, kn=16)),
    ]
    rows = []
    for label, spec, config in cases:
        result = max_loss_free_rate(
            WorkloadSpec.fixed(packet_bytes, app="forwarding"),
            spec=spec, config=config)
        rows.append({"label": label, "rate_mpps": result.rate_mpps,
                     "rate_gbps": result.rate_gbps,
                     "bottleneck": result.bottleneck})
    return rows
