"""Experiment runners: one per paper table/figure, the one scenario registry.

Each runner regenerates the rows/series of its artifact and pairs them
with the paper's reported values, so the benchmark files (and
EXPERIMENTS.md) can print paper-vs-measured side by side.  Each also
declares its gated ``scalars``: one ``(name, kind, value)`` per row and
column, where ``kind`` is ``rate`` (a throughput or capacity),
``count`` (any other number) or ``label`` (a string).  ``repro obs run``
runs a runner by its key and writes those scalars into its BENCH
document, and CI holds them exactly.  Keys match the DESIGN.md
experiment index (T1-T3, F3, F6-F10, RB4-*, P1, T1-DES, SCR, FIB-CHURN).
A runner's correctness checks raise :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from .. import calibration as cal
from ..errors import SimulationError
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


_Scalar = Tuple[str, str, object]


def _declare(rows: Sequence[dict], key: str, rate: Sequence[str] = (),
             count: Sequence[str] = (),
             label: Sequence[str] = ()) -> List[_Scalar]:
    """One ``(name, kind, value)`` per row and column; a row is named
    ``key % row`` and a scalar ``<row>.<column>``."""
    return [("%s.%s" % (key % row, column), kind, row[column])
            for row in rows
            for kind, columns in (("rate", rate), ("count", count),
                                  ("label", label))
            for column in columns]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SimulationError(what)


def run_table1() -> dict:
    """Table 1: forwarding rate vs polling configuration."""
    rows = batching_sweep()
    paper = {(1, 1): 1.46, (32, 1): 4.97, (32, 16): 9.77}
    for row in rows:
        row["paper_gbps"] = paper[(row["kp"], row["kn"])]
    return {"id": "T1", "rows": rows,
            "scalars": _declare(rows, "kp%(kp)d_kn%(kn)d",
                                rate=("rate_gbps", "paper_gbps"),
                                count=("cycles_per_packet",))}


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
    return {"id": "T2", "rows": rows,
            "scalars": _declare(rows, "%(component)s",
                                rate=("nominal", "empirical"),
                                label=("unit",))}


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
    return {"id": "T3", "rows": rows,
            "scalars": _declare(rows, "%(application)s",
                                count=("instructions_per_packet",
                                       "cycles_per_instruction"))}


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
    return {"id": "F3", "rows": rows, "models": sorted(SERVER_MODELS),
            "scalars": _declare(rows, "ports%(ports)d",
                                count=("current", "more-nics", "faster",
                                       "switched_equiv"),
                                label=("current_kind", "more-nics_kind",
                                       "faster_kind"))}


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
    scalars = _declare(rows, "%(scenario)s", rate=("rate_gbps",),
                       count=("cores",))
    scalars += [("%s.paper_gbps" % key, "rate", value)
                for key, value in paper.items()]
    return {"id": "F6", "rows": rows, "scalars": scalars}


def run_fig7() -> dict:
    """Fig. 7: aggregate impact of architecture, queues, batching."""
    rows = fig7_configurations()
    final = rows[-1]["rate_mpps"]
    for row in rows:
        row["speedup_to_final"] = final / row["rate_mpps"]
    return {"id": "F7", "rows": rows,
            "paper": {"vs_xeon": 11.0, "vs_unmodified_nehalem": 6.7},
            "scalars": _declare(rows, "%(label)s",
                                rate=("rate_mpps", "rate_gbps"),
                                label=("bottleneck",))}


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
    scalars = _declare(top, "%(packet_bytes)dB",
                       rate=("rate_gbps", "rate_mpps"),
                       label=("bottleneck",))
    scalars += _declare(bottom, "%(application)s",
                        rate=("rate_64b_gbps", "rate_abilene_gbps"))
    return {"id": "F8", "size_rows": top, "app_rows": bottom,
            "scalars": scalars}


def run_fig9() -> dict:
    """Fig. 9: CPU cycles/packet vs input rate, with the capacity bound."""
    rows = {}
    scalars: List[_Scalar] = []
    for name, app in cal.APPLICATIONS.items():
        rows[name] = load_series(app, packet_bytes=64)
        scalars += _declare(rows[name], name + ".%(rate_mpps)gmpps",
                            rate=("rate_mpps",), count=("cpu_load",))
    return {"id": "F9", "series": rows, "scalars": scalars}


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
    bottlenecks = {n: r.bottleneck for n, r in reports.items()}
    scalars = _declare(rows, "%(application)s.%(component)s",
                       count=("load_bytes_per_packet",))
    scalars += [("%s.bottleneck" % n, "label", b)
                for n, b in bottlenecks.items()]
    return {"id": "F10", "rows": rows, "bottlenecks": bottlenecks,
            "scalars": scalars}


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
    return {"id": "RB4-T", "rows": rows,
            "scalars": _declare(rows, "%(workload)s",
                                rate=("aggregate_gbps", "paper_gbps"),
                                label=("binding",))}


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
    return {"id": "RB4-R", "rows": rows,
            "scalars": _declare(rows, "%(mode)s",
                                count=("reordered_pct", "indirect_pct",
                                       "delivered"))}


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
    return {"id": "RB4-L", "rows": rows,
            "scalars": _declare(rows, "%(metric)s",
                                count=("measured_usec",))}


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
    return {"id": "P1", "rows": rows,
            "scalars": _declare(rows, "%(application)s",
                                rate=("projected_gbps",),
                                label=("bottleneck",))}


def run_timed_table1() -> dict:
    """Table 1 via the timed server DES, plus its saturation plateau."""
    from ..click.simrun import TimedForwardingRun
    from ..hw.presets import nehalem_server

    def server():
        return nehalem_server(num_ports=4, queues_per_port=2)

    rows = []
    for kp, kn, low, high, model in ((1, 1, 0.2e9, 4e9, 1.46),
                                     (32, 1, 1e9, 10e9, 4.97),
                                     (32, 16, 4e9, 16e9, 9.77)):
        run = TimedForwardingRun(server(), kp=kp, kn=kn)
        rate = run.find_loss_free_rate(low_bps=low, high_bps=high,
                                       tolerance_bps=0.15e9)
        rows.append({"kp": kp, "kn": kn, "des_gbps": rate / 1e9,
                     "model_gbps": model})
    report = TimedForwardingRun(server()).run(offered_bps=14e9,
                                              duration_sec=2e-3)
    plateau = {"achieved_gbps": report.achieved_gbps,
               "dropped_packets": report.dropped_packets,
               "residual_backlog": report.residual_backlog}
    return {"id": "T1-DES", "rows": rows, "plateau": plateau,
            "scalars": _declare(rows, "kp%(kp)d_kn%(kn)d",
                                rate=("des_gbps", "model_gbps"))
            + _declare([plateau], "plateau", rate=("achieved_gbps",),
                       count=("dropped_packets", "residual_backlog"))}


#: The seed of the stateful and churn workloads.
SEED = 20090917

#: The stateful-dispatch sweeps: one Zipf-skewed, churning flow workload
#: fed to one NF under locks, RSS pinning and State-Compute Replication.
SCR_NF = "nat"
SCR_FLOWS = 512
SCR_BASE_SKEW = 1.1


def run_stateful_scr() -> dict:
    """Stateful NF dispatch: locks vs RSS pinning vs SCR, by cores and skew.

    Every strategy must leave identical per-flow end state on every cell
    of both sweeps, and SCR's replicas must agree.  The RSS columns
    average three flow-pinning hash placements: one placement's luck
    (which elephants collide on a core) swamps the skew signal.
    """
    from ..calibration import NEHALEM_CLOCK_HZ
    from ..costs import state_access_vector
    from ..stateful import make_nf, run_strategy
    from ..workloads.zipf_flows import SkewedFlowWorkload

    def records(skew):
        workload = SkewedFlowWorkload(num_flows=SCR_FLOWS, skew=skew,
                                      churn_packets=400, seed=SEED)
        return list(workload.records(12_000))

    def strategies(packets, cores):
        locks = run_strategy(make_nf(SCR_NF), packets, cores, "locks")
        scr = run_strategy(make_nf(SCR_NF), packets, cores, "scr")
        rss = [run_strategy(make_nf(SCR_NF), packets, cores, "rss",
                            rss_seed=rss_seed)
               for rss_seed in (0xABCD, 0xABCE, 0xABCF)]
        _check(scr.replicas_identical, "SCR replicas diverged")
        _check(all(r.end_state == locks.end_state for r in [scr] + rss),
               "dispatch strategies left different flow state")
        rss_mpps = sum(r.throughput_mpps for r in rss) / len(rss)
        return locks, scr, rss_mpps

    cycles = state_access_vector(SCR_NF).cpu_cycles
    packets = records(SCR_BASE_SKEW)
    core_rows = []
    for cores in (1, 2, 4):
        locks, scr, rss_mpps = strategies(packets, cores)
        core_rows.append({
            "cores": cores,
            "locks_mpps": locks.throughput_mpps,
            "rss_mpps": rss_mpps,
            "scr_mpps": scr.throughput_mpps,
            "scr_vs_locks": scr.throughput_mpps / locks.throughput_mpps,
            # Perfect scaling of the NF's compute with zero sync cost.
            "ceiling_mpps": cores * NEHALEM_CLOCK_HZ / cycles / 1e6,
            "lock_contended": locks.lock_contended,
            "coherence": locks.coherence_transfers,
            "scr_deltas": scr.scr_deltas,
        })
    skew_rows = []
    for skew in (0.0, 0.6, 1.1, 1.6):
        packets = records(skew)
        locks, scr, rss_mpps = strategies(packets, 4)
        skew_rows.append({
            "skew": skew,
            "top_flow_share": SkewedFlowWorkload.top_share(packets),
            "rss_mpps": rss_mpps,
            "locks_mpps": locks.throughput_mpps,
            "scr_mpps": scr.throughput_mpps,
        })
    mpps = ("locks_mpps", "rss_mpps", "scr_mpps")
    return {"id": "SCR", "core_rows": core_rows, "skew_rows": skew_rows,
            "scalars": _declare(core_rows, "cores%(cores)d",
                                rate=mpps + ("ceiling_mpps",),
                                count=("lock_contended", "coherence",
                                       "scr_deltas"))
            + _declare(skew_rows, "skew%(skew)g", rate=mpps,
                       count=("top_flow_share",))}


#: The live-FIB-churn runs: a 4-node cluster, a 4,000-route RIB.
CHURN_NODES = 4
CHURN_ROUTES = 4_000


def run_fib_churn() -> dict:
    """Live FIB churn: convergence vs update rate, forwarding under churn.

    Every run must converge (nothing left undistributed), apply updates
    incrementally (no rebuild) and leave every node's FIB consistent with
    an independent trie; a second run at 400k updates/s must reproduce
    the first to the last field.
    """
    from ..control.runner import ChurnSchedule, run_churn

    def run(rate=100_000.0, schedule=None):
        report = run_churn(num_nodes=CHURN_NODES, routes=CHURN_ROUTES,
                           update_rate_per_sec=rate, duration_sec=1e-3,
                           load=0.2, seed=SEED, schedule=schedule)
        _check(report.unconverged == 0, "a churn run left updates "
                                        "undistributed")
        _check(report.rebuilds == 0, "a churn run rebuilt a FIB")
        _check(report.consistent, "a churn run left inconsistent FIBs")
        return report

    reports = {rate: run(rate) for rate in (100_000.0, 400_000.0)}
    _check(run(400_000.0).to_dict() == reports[400_000.0].to_dict(),
           "two churn runs at one seed differ")
    convergence_rows = [{
        "updates_per_sec": rate,
        "applied": report.updates_applied,
        "fib_ops": report.fib_ops,
        "sync_ticks": report.sync_ticks,
        "mean_conv_usec": report.mean_convergence_usec,
        "max_conv_usec": report.max_convergence_sec * 1e6,
        "final_conv_usec": report.final_convergence_usec,
        "fwd_gbps": report.forwarding.delivered_bps / 1e9,
        "p99_usec": report.forwarding.latency_usec.percentile(99),
    } for rate, report in reports.items()]
    quiet = run(schedule=ChurnSchedule([]))
    _check(quiet.updates_applied == 0, "a quiet run applied updates")
    forwarding_rows = []
    for label, report in (("quiet", quiet), ("churn", reports[400_000.0])):
        fwd = report.forwarding
        forwarding_rows.append({
            "scenario": label,
            "updates": report.updates_applied,
            "delivered": fwd.delivered_packets,
            "fib_miss": fwd.fib_miss_packets,
            "fwd_gbps": fwd.delivered_bps / 1e9,
            "p50_usec": fwd.latency_usec.percentile(50),
            "p99_usec": fwd.latency_usec.percentile(99),
        })
    return {"id": "FIB-CHURN", "convergence_rows": convergence_rows,
            "forwarding_rows": forwarding_rows,
            "scalars": _declare(convergence_rows, "updates%(updates_per_sec)g",
                                rate=("fwd_gbps",),
                                count=("applied", "fib_ops", "sync_ticks",
                                       "mean_conv_usec", "max_conv_usec",
                                       "final_conv_usec", "p99_usec"))
            + _declare(forwarding_rows, "%(scenario)s", rate=("fwd_gbps",),
                       count=("updates", "delivered", "fib_miss",
                              "p50_usec", "p99_usec"))}


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
    "T1-DES": run_timed_table1,
    "SCR": run_stateful_scr,
    "FIB-CHURN": run_fib_churn,
}


def run_experiment(experiment_id: str) -> dict:
    """Run one experiment by its DESIGN.md id."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError("unknown experiment %r (have %s)"
                       % (experiment_id, sorted(EXPERIMENTS)))
    return EXPERIMENTS[experiment_id]()
