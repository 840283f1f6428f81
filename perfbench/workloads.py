"""The workload table: names, reasons and every input size.

Pure data -- nothing here imports ``repro`` -- so the harness can list
workloads without paying the import.  Sizes are chosen so one repeat's
run phase takes 1-2.5 s on a 2-core box and five repeats of a workload
plus its equivalence check fit the driver's per-invocation budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

DEFAULT_SEED = 20090917

#: Table 1's (kp, kn) rows with the paper's measured Gbps.
TABLE1_ROWS = ((1, 1, 1.46), (32, 1, 4.97), (32, 16, 9.77))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``cluster`` | ``server`` | ``fib_churn`` -- selects the scenario
    #: class in :mod:`perfbench.entrypoints`.
    kind: str
    why: str
    params: Dict[str, object] = field(default_factory=dict)
    #: Workload whose ``sim_digest`` must equal this one's (a live
    #: equivalence contract of the repo).
    twin: Optional[str] = None
    #: Auxiliary scenarios are run only to derive a per-layer ratio;
    #: they are not benchmark workloads.
    aux: bool = False


#: External line rate R of every cluster scenario.
_R = 10e9

_RB8 = dict(nodes=8, port_rate_bps=_R, packet_bytes=64, matrix="uniform",
            load=0.5, until=0.3e-3)
_VLB = dict(nodes=4, port_rate_bps=_R, mix="abilene", matrix="permutation",
            load=0.8, internal_link_fraction=0.5, until=3e-3)
_SERVER = dict(ports=4, queues_per_port=2, packet_bytes=64,
               duration_sec=1e-3)

_TABLE = (
    Workload(
        "cluster_rb8_64b", "cluster",
        "RB8 at 64 B through the single-heap engine, obs off: simnet + "
        "core + net carry most of the self time and arrival realisation "
        "is inside the call.",
        dict(_RB8, workers=1), twin="cluster_rb8_64b_par2"),
    Workload(
        "cluster_rb8_64b_par2", "cluster",
        "The identical scenario through simulate_parallel(workers=2, "
        "backend='process'): everything above workload 1's time is the "
        "parallel layer (wire encode, pickle, barriers, process start).",
        dict(_RB8, workers=2), twin="cluster_rb8_64b"),
    Workload(
        "server_64b_batch", "server",
        "Table 1's three loss-free-rate searches on the batch fast path: "
        "all click.simrun + simnet, so cluster-side work must leave it "
        "flat.",
        dict(_SERVER, batch=True), twin="server_64b_scalar"),
    Workload(
        "server_64b_scalar", "server",
        "The same searches on the default per-packet path, so a batch "
        "gain that taxes the scalar loop (or a collapse that slows it) "
        "shows.",
        dict(_SERVER, batch=False), twin="server_64b_batch"),
    Workload(
        "fib_churn_rb4", "fib_churn",
        "RB4 forwarding via live per-node FIBs (one Dir24_8 lookup per "
        "packet) beside 400k updates/s of incremental churn; FIB build "
        "dominates setup_s and peak_rss_mb.",
        dict(nodes=4, routes=8000, packet_bytes=256, hit_fraction=0.95,
             load=0.2, duration_sec=5e-3, tail_sec=1e-3,
             update_rate_per_sec=400e3, verify_probes=256,
             # The RIB and the churn stream do not follow --seed: one
             # DIR-24-8 update costs 1 to 65 536 slot writes with prefix
             # length, so the few short prefixes a seed happens to draw
             # decide the run time (0.66-0.94 s over seeds 101-105 on
             # unchanged code).  The router and the traffic do follow it.
             control_seed=DEFAULT_SEED)),
    Workload(
        "vlb_rb4_obs", "cluster",
        "RB4 at the 2R/N VLB minimum under a permutation matrix with "
        "Abilene sizes and the registry on: ~half the packets go "
        "two-phase and obs does real work.",
        dict(_VLB, workers=1, obs="on")),
    Workload(
        "vlb_rb4_obs_off", "cluster",
        "vlb_rb4_obs without a registry; the base of obs.overhead_ratio.",
        dict(_VLB, workers=1), aux=True),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in _TABLE}
BENCHMARK_WORKLOADS = tuple(w.name for w in _TABLE if not w.aux)

#: Per-layer ratios of two scenarios' untraced ``wall_s``: workload ->
#: (the scenario timed beside it, the metric, which way the ratio runs).
RATIO_BASE = {
    "cluster_rb8_64b_par2":
        ("cluster_rb8_64b", "parallel.speedup_vs_w1", "base/this"),
    "vlb_rb4_obs":
        ("vlb_rb4_obs_off", "obs.overhead_ratio", "this/base"),
}
