"""Experiment runners: one per paper table/figure.

Each runner regenerates the rows/series of its artifact and pairs them
with the paper's reported values, so the benchmark harness (and
EXPERIMENTS.md) can print paper-vs-measured side by side.  Keys match the
DESIGN.md experiment index (T1-T3, F3, F6-F10, RB4-*, P1).
"""

from __future__ import annotations

from typing import Callable, Dict

from .. import calibration as cal
from ..core.latency import latency_range_usec
from ..core.provision import SERVER_MODELS, provision
from ..core.router import RouteBricksRouter
from ..core.topology import switched_cluster_equivalent_servers
from ..perfmodel.batching import batching_sweep
from ..perfmodel.projection import (
    project_rates,
    projected_abilene_forwarding_bps,
)
from ..perfmodel.scenarios import SCENARIOS, fig7_configurations
from ..perfmodel.throughput import max_loss_free_rate
from ..workloads.spec import WorkloadSpec
from ..workloads.flowgen import FlowGenerator
from .bottleneck import deconstruct, load_series


def run_table1() -> dict:
    """Table 1: forwarding rate vs polling configuration."""
    rows = batching_sweep()
    paper = {(1, 1): 1.46, (32, 1): 4.97, (32, 16): 9.77}
    for row in rows:
        row["paper_gbps"] = paper[(row["kp"], row["kn"])]
    return {"id": "T1", "rows": rows}


def run_table2() -> dict:
    """Table 2: nominal and empirical component capacities."""
    from ..hw.presets import NEHALEM
    from ..perfmodel.bounds import bounds_for
    rows = []
    for name, bound in bounds_for(NEHALEM).items():
        rows.append({
            "component": name,
            "nominal": (bound.nominal / 1e9),
            "empirical": (bound.empirical / 1e9),
            "unit": "Gcycles/s" if bound.unit != "bps" else "Gbps",
        })
    return {"id": "T2", "rows": rows}


def table3_row(app: cal.AppCost) -> dict:
    """Table 3's reported instructions/packet and CPI for ``app``."""
    return {
        "application": app.name,
        "instructions_per_packet": app.instructions_per_packet,
        "cycles_per_instruction": app.cycles_per_instruction,
        "derived_cycles_per_packet":
            app.instructions_per_packet * app.cycles_per_instruction,
    }


def run_table3() -> dict:
    """Table 3: instructions/packet and CPI per application."""
    rows = [table3_row(app) for app in cal.APPLICATIONS.values()]
    return {"id": "T3", "rows": rows}


def run_fig3() -> dict:
    """Fig. 3: cluster servers vs external ports, four configurations."""
    port_counts = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    rows = []
    for n in port_counts:
        row = {"ports": n,
               "switched_equiv": switched_cluster_equivalent_servers(n)}
        for key in ("current", "more-nics", "faster"):
            topo = provision(n, key)
            row[key] = topo.total_servers()
            row[key + "_kind"] = type(topo).__name__
        rows.append(row)
    return {"id": "F3", "rows": rows, "models": sorted(SERVER_MODELS)}


def run_fig6() -> dict:
    """Fig. 6: forwarding rates with and without multiple queues."""
    paper = {"parallel": 1.7, "pipeline": 1.2, "pipeline_cross_cache": 0.6,
             "overlap": 0.7, "overlap_multi_queue": 1.7}
    rows = []
    for key, scenario in SCENARIOS.items():
        rows.append({"scenario": key,
                     "rate_gbps": scenario.rate_gbps,
                     "paper_gbps": paper.get(key, float("nan")),
                     "cores": scenario.cores_per_fp})
    return {"id": "F6", "rows": rows}


def run_fig7() -> dict:
    """Fig. 7: aggregate impact of architecture, queues, batching."""
    rows = fig7_configurations()
    final = rows[-1]["rate_mpps"]
    for row in rows:
        row["speedup_to_final"] = final / row["rate_mpps"]
    return {"id": "F7", "rows": rows,
            "paper": {"vs_xeon": 11.0, "vs_unmodified_nehalem": 6.7}}


def run_fig8() -> dict:
    """Fig. 8: rate vs packet size (top) and vs application (bottom)."""
    top = []
    for size in (64, 128, 256, 512, 1024):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(size, app="forwarding"))
        top.append({"packet_bytes": size, "rate_gbps": result.rate_gbps,
                    "rate_mpps": result.rate_mpps,
                    "bottleneck": result.bottleneck})
    abilene = cal.ABILENE_MEAN_PACKET_BYTES
    result = max_loss_free_rate(
        WorkloadSpec.fixed(abilene, app="forwarding"))
    top.append({"packet_bytes": abilene, "rate_gbps": result.rate_gbps,
                "rate_mpps": result.rate_mpps,
                "bottleneck": result.bottleneck})
    bottom = []
    paper_64 = {"forwarding": 9.7, "routing": 6.35, "ipsec": 1.4}
    paper_ab = {"forwarding": 24.6, "routing": 24.6, "ipsec": 4.45}
    for name, app in cal.APPLICATIONS.items():
        r64 = max_loss_free_rate(WorkloadSpec.fixed(64, app=app))
        rab = max_loss_free_rate(WorkloadSpec.fixed(abilene, app=app))
        bottom.append({"application": name,
                       "rate_64b_gbps": r64.rate_gbps,
                       "paper_64b_gbps": paper_64[name],
                       "rate_abilene_gbps": rab.rate_gbps,
                       "paper_abilene_gbps": paper_ab[name]})
    return {"id": "F8", "size_rows": top, "app_rows": bottom}


def run_fig9() -> dict:
    """Fig. 9: CPU cycles/packet vs input rate, with the capacity bound."""
    rows = {}
    for name, app in cal.APPLICATIONS.items():
        rows[name] = load_series(app, packet_bytes=64)
    return {"id": "F9", "series": rows}


def run_fig10() -> dict:
    """Fig. 10: bus loads (bytes/packet) vs input rate, with bounds."""
    reports = {name: deconstruct(app, 64)
               for name, app in cal.APPLICATIONS.items()}
    rows = []
    for name, report in reports.items():
        for component in ("memory", "io", "pcie", "qpi"):
            rows.append({"application": name, "component": component,
                         "load_bytes_per_packet": report.loads[component],
                         "empirical_bound_at_saturation":
                             report.empirical_bounds[component],
                         "headroom": report.headroom(component)})
    return {"id": "F10", "rows": rows,
            "bottlenecks": {n: r.bottleneck for n, r in reports.items()}}


def run_rb4_throughput() -> dict:
    """Sec. 6.2: RB4 routing performance, 64 B and Abilene."""
    rb4 = RouteBricksRouter()
    r64 = rb4.max_throughput(WorkloadSpec.fixed(64))
    rab = rb4.max_throughput(
        WorkloadSpec.fixed(cal.ABILENE_MEAN_PACKET_BYTES))
    rows = [
        {"workload": "64B", "aggregate_gbps": r64.aggregate_gbps,
         "paper_gbps": 12.0, "binding": r64.binding},
        {"workload": "abilene", "aggregate_gbps": rab.aggregate_gbps,
         "paper_gbps": 35.0, "binding": rab.binding},
    ]
    return {"id": "RB4-T", "rows": rows}


def run_rb4_reordering(packets_per_flow: int = 300, num_flows: int = 60,
                       seed: int = 3) -> dict:
    """Sec. 6.2: reordering with and without the flowlet extension."""
    rows = []
    for use_flowlets, paper in ((True, 0.15), (False, 5.5)):
        gen = FlowGenerator(num_flows=num_flows,
                            packets_per_flow=packets_per_flow,
                            packet_bytes=740, burst_size=8,
                            burst_gap_sec=1e-4, intra_burst_gap_sec=4e-7,
                            seed=1)
        router = RouteBricksRouter(use_flowlets=use_flowlets, seed=seed)
        report = router.replay_pair(gen.timed_packets())
        rows.append({"mode": "flowlets" if use_flowlets else "per-packet",
                     "reordered_pct": report.reordered_fraction * 100,
                     "paper_pct": paper,
                     "indirect_pct": report.indirect_fraction * 100,
                     "delivered": report.delivered_packets})
    return {"id": "RB4-R", "rows": rows}


def run_rb4_latency() -> dict:
    """Sec. 6.2: per-server and cluster latency."""
    direct, indirect = latency_range_usec()
    rows = [
        {"metric": "per-server (input role)",
         "measured_usec": cal.INPUT_NODE_LATENCY_USEC, "paper_usec": 24.0},
        {"metric": "cluster direct path", "measured_usec": direct,
         "paper_usec": 47.6},
        {"metric": "cluster indirect path", "measured_usec": indirect,
         "paper_usec": 66.4},
    ]
    return {"id": "RB4-L", "rows": rows}


def run_projections() -> dict:
    """Sec. 5.3: next-generation server projections."""
    paper = {"forwarding": 38.8, "routing": 19.9, "ipsec": 5.8}
    rows = []
    for name, result in project_rates().items():
        rows.append({"application": name,
                     "projected_gbps": result.rate_gbps,
                     "paper_gbps": paper[name],
                     "bottleneck": result.bottleneck})
    rows.append({"application": "forwarding (abilene, no NIC limit)",
                 "projected_gbps": projected_abilene_forwarding_bps() / 1e9,
                 "paper_gbps": 70.0, "bottleneck": "io"})
    return {"id": "P1", "rows": rows}


EXPERIMENTS: Dict[str, Callable[[], dict]] = {
    "T1": run_table1,
    "T2": run_table2,
    "T3": run_table3,
    "F3": run_fig3,
    "F6": run_fig6,
    "F7": run_fig7,
    "F8": run_fig8,
    "F9": run_fig9,
    "F10": run_fig10,
    "RB4-T": run_rb4_throughput,
    "RB4-R": run_rb4_reordering,
    "RB4-L": run_rb4_latency,
    "P1": run_projections,
}


def run_experiment(experiment_id: str) -> dict:
    """Run one experiment by its DESIGN.md id."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError("unknown experiment %r (have %s)"
                       % (experiment_id, sorted(EXPERIMENTS)))
    return EXPERIMENTS[experiment_id]()
