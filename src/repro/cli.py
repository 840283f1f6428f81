"""Command-line interface: ``python -m repro <command> [<action>]``.

Commands
--------

``experiments``  list experiment ids, or run one/all and print the tables
``plan``         size a cluster for N external ports (Fig. 3 as a tool)
``server``       single-server saturation for an app / packet size
``pipeline``     compile a Click config: predicted rate + cost breakdown
``rb4``          the 4-node cluster's operating points
``validate``     the analytic model against the timed DES (Table 1 grid)
``power``        cluster power with managed CPU modes
``faults``       graceful degradation: analytic curve or a scripted DES run
``control``      live control plane: RIB churn streamed into the FIBs
``parallel``     the cluster DES partitioned across worker processes
``stateful``     stateful NF dispatch strategies under flow-skewed traffic
``trace``        generate or inspect pcap traces of the synthetic workloads
``obs``          run instrumented benchmarks, report/diff BENCH_*.json,
                 and ``explain`` a pipeline's binding resource

One ``COMMANDS`` table of ``(name, help, arguments, handler)`` rows
builds the parser; ``name`` is ``"command"`` or ``"command action"``,
and each row declares only the flags its handler reads, so argparse
refuses any other.

Exit status: 0 when the command ran and its checks held; 1 when it ran
and a check failed (``validate``, ``control run``, ``obs run``, ``obs
explain``, ``obs diff``); 2 when the input was refused, either by
argparse or by a handler raising, which ``main`` reports on stderr as
``error: <reason>``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from . import calibration as cal
from .analysis import EXPERIMENTS, format_table, run_experiment
from .errors import ConfigurationError, ReproError
from .obs import benchrun, compare


def _cmd_experiments(args) -> int:
    if args.which == "list":
        for eid in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[eid].__doc__ or "").strip().splitlines()[0]
            print("%-6s %s" % (eid, doc))
        return 0
    if args.which == "summary":
        from .analysis.summary import summary_text
        print(summary_text())
        return 0
    targets = sorted(EXPERIMENTS) if args.which == "all" else [args.which]
    for eid in targets:
        result = run_experiment(eid)
        print("=== %s ===" % eid)
        _print_result(result)
        print()
    return 0


def _print_result(result: dict) -> None:
    for key, value in result.items():
        if key == "id":
            continue
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(format_table(value, title=key))
        elif isinstance(value, dict) and value and \
                isinstance(next(iter(value.values())), list):
            for sub, rows in value.items():
                print(format_table(rows, title="%s/%s" % (key, sub)))
        else:
            print("%s: %r" % (key, value))


def _cmd_plan(args) -> int:
    from .core.provision import SERVER_MODELS, cost_usd, provision
    from .core.topology import FullMesh, switched_cluster_equivalent_servers

    rows = []
    for name in sorted(SERVER_MODELS):
        topo = provision(args.ports, name)
        rows.append({
            "model": name,
            "topology": type(topo).__name__,
            "servers": topo.total_servers(),
            "cost_usd": cost_usd(topo.total_servers()),
            "mesh_link_gbps": ("%.2f" % (topo.internal_link_rate_bps(10e9) / 1e9)
                               if isinstance(topo, FullMesh) else "-"),
        })
    rows.append({"model": "switched (Clos)", "topology": "reference",
                 "servers": switched_cluster_equivalent_servers(args.ports),
                 "cost_usd": cost_usd(
                     switched_cluster_equivalent_servers(args.ports)),
                 "mesh_link_gbps": "-"})
    print(format_table(rows, title="Cluster plan for N=%d ports, 10 Gbps each"
                       % args.ports))
    return 0


def _cmd_server(args) -> int:
    from .hw.presets import NEHALEM, NEHALEM_NEXT_GEN, XEON_SHARED_BUS
    from .perfmodel import max_loss_free_rate

    specs = {"nehalem": NEHALEM, "next-gen": NEHALEM_NEXT_GEN,
             "xeon": XEON_SHARED_BUS}
    from .workloads import WorkloadSpec

    spec = specs[args.spec]
    result = max_loss_free_rate(
        WorkloadSpec.fixed(args.size, app=args.app), spec=spec,
        nic_limited=not args.no_nic_limit)
    print("%s @ %dB on %s:" % (args.app, args.size, spec.name))
    print("  max loss-free rate: %.2f Gbps (%.2f Mpps)"
          % (result.rate_gbps, result.rate_mpps))
    print("  bottleneck: %s" % result.bottleneck)
    print("  per-packet: %.0f cycles, %.0f B memory, %.0f B io"
          % (result.loads.cpu_cycles, result.loads.mem_bytes,
             result.loads.io_bytes))
    return 0


def _cmd_pipeline(args) -> int:
    from .analysis.bottleneck import pipeline_breakdown
    from .click.pipelines import PRESET_PIPELINES, build_pipeline
    from .hw.presets import NEHALEM
    from .hw.server import Server

    if args.config in PRESET_PIPELINES:
        text = PRESET_PIPELINES[args.config]
    else:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError("cannot read Click config %r: %s"
                                     % (args.config, error)) from error
    queues = NEHALEM.total_cores if args.queues is None else args.queues

    def fresh_server():
        return Server(NEHALEM, num_ports=args.ports, queues_per_port=queues)

    graph = build_pipeline(text, fresh_server(), kp=args.kp, kn=args.kn)
    report = pipeline_breakdown(graph, packet_bytes=args.size)
    print("pipeline %s @ %dB on %s:" % (args.config, args.size, NEHALEM.name))
    print("  predicted loss-free rate: %.2f Gbps (%.2f Mpps)"
          % (report["rate_gbps"], report["rate_mpps"]))
    print("  bottleneck: %s" % report["bottleneck"])
    loads = report["loads"]
    print("  per-packet: %.0f cycles, %.0f B memory, %.0f B io"
          % (loads["cpu"], loads["memory"], loads["io"]))
    rows = [{"element": row["element"], "class": row["class"],
             "p": round(row["probability"], 3),
             "cpu_cycles": round(row["cpu_cycles"], 1),
             "mem_B": round(row["mem_bytes"], 1),
             "io_B": round(row["io_bytes"], 1)}
            for row in report["elements"]]
    print(format_table(rows, title="per-element costs (traversal-weighted)"))
    if args.des:
        from .click.simrun import TimedPipelineRun
        run = TimedPipelineRun(fresh_server(), text, packet_bytes=args.size,
                               kp=args.kp, kn=args.kn)
        des_gbps = run.find_loss_free_rate() / 1e9
        model_gbps = report["rate_gbps"]
        print("timed simulation: %.2f Gbps (model %.2f, %.1f%% apart)"
              % (des_gbps, model_gbps,
                 abs(des_gbps - model_gbps) / model_gbps * 100))
    return 0


def _cmd_rb4(args) -> int:
    from .core import RouteBricksRouter
    from .core.latency import latency_range_usec
    from .workloads import WorkloadSpec

    router = RouteBricksRouter(num_nodes=args.nodes)
    rows = []
    for label, size in (("64B", 64),
                        ("abilene", cal.ABILENE_MEAN_PACKET_BYTES)):
        result = router.max_throughput(WorkloadSpec.fixed(size))
        rows.append({"workload": label,
                     "aggregate_gbps": result.aggregate_gbps,
                     "per_port_gbps": result.per_port_bps / 1e9,
                     "binding": result.binding})
    print(format_table(rows, title="%d-node RouteBricks cluster"
                       % args.nodes))
    direct, indirect = latency_range_usec()
    print("latency: %.1f us direct, %.1f us via an intermediate"
          % (direct, indirect))
    return 0


def _cmd_validate(args) -> int:
    from .analysis.validation import max_relative_error, validate_forwarding

    points = validate_forwarding()
    rows = [{"kp": p.kp, "kn": p.kn, "bytes": p.packet_bytes,
             "analytic_gbps": p.analytic_gbps,
             "simulated_gbps": p.simulated_gbps,
             "rel_error": p.relative_error} for p in points]
    print(format_table(rows, ["kp", "kn", "bytes", "analytic_gbps",
                              "simulated_gbps", "rel_error"],
                       title="Analytic model vs timed simulation"))
    worst = max_relative_error(points)
    print("worst disagreement: %.1f%%" % (worst * 100))
    return 0 if worst < 0.15 else 1


def _cmd_power(args) -> int:
    from .core.power import cluster_power_kw, managed_power

    app = cal.APPLICATIONS[args.app]
    rows = []
    for fraction in (0.25, 0.5, 0.75, 1.0):
        estimate = managed_power(app, offered_fraction=fraction)
        rows.append({"load_fraction": fraction,
                     "per_server_w": estimate.managed_w,
                     "cluster_kw": cluster_power_kw(
                         args.servers, app, offered_fraction=fraction),
                     "savings_pct": estimate.savings_fraction * 100})
    print(format_table(rows, ["load_fraction", "per_server_w",
                              "cluster_kw", "savings_pct"],
                       title="%d-server cluster power (%s, managed modes)"
                       % (args.servers, args.app)))
    print("unmanaged: %.2f kW" % cluster_power_kw(args.servers, app,
                                                  managed=False))
    return 0


def _rb_nodes(name: str,
              expected: str = "topology must look like rb4/rb8/rb32"):
    """Node count of an ``rbN`` preset name; anything else is refused."""
    import re

    match = re.fullmatch(r"rb(\d+)", name.lower())
    if not match:
        raise ConfigurationError("%s, got %r" % (expected, name))
    return int(match.group(1))


def _uniform_cluster(nodes: int, seed: int, size: int, load: float):
    """A ``nodes``-node router and a fixed-``size`` workload offering
    ``load`` of the port rate on a uniform matrix."""
    from .core import RouteBricksRouter
    from .workloads import WorkloadSpec
    from .workloads.matrices import uniform_matrix

    router = RouteBricksRouter(num_nodes=nodes, seed=seed)
    return router, WorkloadSpec.fixed(size).with_matrix(
        uniform_matrix(nodes, router.port_rate_bps * load))


def _cmd_faults_curve(args) -> int:
    from .faults import degradation_curve, linear_fraction, quadratic_fraction

    report = degradation_curve(
        num_nodes=args.nodes,
        uniform=not args.worst_case,
        max_failed=args.max_failed)
    ideal = quadratic_fraction if args.worst_case else linear_fraction
    rows = [{"failed": p.failed_nodes, "live": p.live_nodes,
             "capacity_gbps": p.capacity_gbps,
             "fraction": p.capacity_fraction,
             "ideal": ideal(args.nodes, p.failed_nodes),
             "binding": p.binding}
            for p in report.points]
    print(format_table(rows, title="Degradation, %d nodes (%s traffic)"
                       % (args.nodes,
                          "worst-case" if args.worst_case else "uniform")))
    return 0


def _cmd_faults_run(args) -> int:
    """Scripted fault injection through the DES, with the control plane
    attached so convergence is visible."""
    from .core.control import ClusterManager
    from .faults import FaultSchedule

    duration = args.duration_ms * 1e-3
    if args.schedule:
        try:
            with open(args.schedule) as handle:
                schedule = FaultSchedule.from_json(handle.read())
            schedule.validate(args.nodes)
        except (OSError, ValueError, ReproError) as error:
            raise ConfigurationError("cannot load fault schedule %r: %s"
                                     % (args.schedule, error)) from error
    else:
        victim = args.nodes - 1
        schedule = (FaultSchedule()
                    .crash_node(at=0.25 * duration, node=victim)
                    .recover_node(at=0.6 * duration, node=victim))
    router, workload = _uniform_cluster(args.nodes, args.seed, args.size,
                                        args.load)
    manager = ClusterManager(port_rate_bps=router.port_rate_bps)
    for i in range(args.nodes):
        manager.add_node(external_port=i)
        manager.announce("10.%d.0.0/16" % i, i)
    manager.push_fibs()
    report = router.simulate(
        workload, until=duration, faults=schedule, manager=manager,
        detection_latency_sec=args.detection_usec * 1e-6)
    print("cluster: %d nodes, %g%% uniform load, %d fault events"
          % (args.nodes, args.load * 100, report.fault_events))
    print("offered %d, delivered %d, dropped %d (delivery %.1f%%)"
          % (report.offered_packets, report.delivered_packets,
             report.dropped_packets, report.delivery_ratio * 100))
    print("goodput: %.2f Gbps over %.2f ms"
          % (report.delivered_bps / 1e9, report.duration_sec * 1e3))
    for record in report.convergence:
        print("  %s node %d at %.3f ms -> converged %.3f ms "
              "(%.0f us, %d live)"
              % (record.event, record.node, record.failed_at * 1e3,
                 record.converged_at * 1e3,
                 record.convergence_sec * 1e6, record.live_nodes))
    stale = manager.stale_nodes()
    print("control plane: %d live, %d failed, %s"
          % (len(manager.live_nodes()), len(manager.failed_nodes()),
             ("stale FIBs on %s" % stale) if stale else "all FIBs current"))
    return 0


def _cmd_control_churn(args) -> int:
    """Convergence vs update rate sweep."""
    from .control import run_churn

    nodes = _rb_nodes(args.topology)
    duration = args.duration_ms * 1e-3
    try:
        rates = [float(rate) for rate in args.rates.split(",")]
    except ValueError:
        raise ConfigurationError(
            "--rates must be a comma list of numbers, got %r"
            % args.rates) from None
    rows = []
    for rate in rates:
        report = run_churn(num_nodes=nodes, routes=args.routes,
                           update_rate_per_sec=rate,
                           duration_sec=duration, load=args.load,
                           packet_bytes=args.size, seed=args.seed)
        rows.append({
            "update_rate": rate,
            "applied": report.updates_applied,
            "fib_ops": report.fib_ops,
            "mean_conv_usec": report.mean_convergence_usec,
            "max_conv_usec": report.max_convergence_sec * 1e6,
            "final_conv_usec": report.final_convergence_usec,
            "fwd_gbps": report.forwarding.delivered_bps / 1e9,
            "p99_usec": report.forwarding.latency_usec.percentile(99),
            "consistent": report.consistent,
        })
    print(format_table(rows, title="Convergence vs update rate, "
                                   "%d nodes, %d routes"
                       % (nodes, args.routes)))
    return 0


def _cmd_control_run(args) -> int:
    """One forwarding run, optionally with live churn."""
    import math

    from .control import ChurnSchedule, run_churn

    nodes = _rb_nodes(args.topology)
    duration = args.duration_ms * 1e-3
    burst = None
    if args.burst is not None:
        burst = (args.burst, duration / 4, 3)
    report = run_churn(
        num_nodes=nodes, routes=args.routes,
        update_rate_per_sec=args.update_rate,
        duration_sec=duration, burst=burst,
        load=args.load, packet_bytes=args.size, seed=args.seed,
        schedule=None if args.churn else ChurnSchedule([]))
    fwd = report.forwarding
    print("cluster: %d nodes, %d-route RIB, %g%% load, FIB-routed"
          % (nodes, args.routes, args.load * 100))
    print("offered %d, delivered %d, fib-miss %d (delivery %.1f%%)"
          % (fwd.offered_packets, fwd.delivered_packets,
             fwd.fib_miss_packets, fwd.delivery_ratio * 100))
    print("goodput: %.2f Gbps over %.2f ms"
          % (fwd.delivered_bps / 1e9, fwd.duration_sec * 1e3))
    if report.updates_offered:
        print("churn: %d updates applied (%d announce, %d reannounce, "
              "%d withdraw, %d skipped) at %.0f/s"
              % (report.updates_applied, report.announced,
                 report.reannounced, report.withdrawn, report.skipped,
                 report.update_rate_per_sec))
        print("fib sync: %d ops over %d ticks, %d rebuilds"
              % (report.fib_ops, report.sync_ticks, report.rebuilds))
        final = ("%.0f us" % report.final_convergence_usec
                 if not math.isnan(report.final_convergence_sec)
                 else "pending (%d updates undistributed)"
                 % report.unconverged)
        print("convergence: mean %.0f us, max %.0f us, final %s"
              % (report.mean_convergence_usec,
                 report.max_convergence_sec * 1e6, final))
    else:
        print("churn: none (pass --churn to stream RIB updates)")
    print("consistency: %s (%d probes vs trie reference)"
          % ("OK" if report.consistent else "MISMATCH",
             report.verified_probes))
    return 0 if report.consistent else 1


def _cmd_parallel(args) -> int:
    import resource
    from time import perf_counter

    from .parallel import simulate_parallel

    nodes = _rb_nodes(args.topology)
    duration = args.duration_ms * 1e-3
    router, workload = _uniform_cluster(nodes, args.seed, args.size,
                                        args.load)
    start = perf_counter()
    report = simulate_parallel(
        router, workload, until=duration, workers=args.workers,
        backend=args.backend)
    wall = perf_counter() - start
    # KiB on Linux; this process's own, not its workers'.
    peak_rss = "peak RSS %.1f MiB" % (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    # One worker is one partition in this process: no backend ran.
    backend = (" [%s backend]" % args.backend if report.workers > 1
               else "")
    print("cluster: %d nodes across %d worker(s)%s, "
          "%g%% uniform load of %d B frames"
          % (nodes, report.workers, backend, args.load * 100, args.size))
    print("offered %d, delivered %d, dropped %d (delivery %.1f%%)"
          % (report.offered_packets, report.delivered_packets,
             report.dropped_packets, report.delivery_ratio * 100))
    print("goodput: %.2f Gbps over %.2f ms; reordered %.4f%%"
          % (report.delivered_bps / 1e9, report.duration_sec * 1e3,
             report.reordered_fraction * 100))
    busy = max(report.partition_busy_seconds or [0.0])
    if busy > 0:
        print("engine: %d events in %d epochs; critical-path %.0f events/s"
              % (report.events_run, report.epochs,
                 report.events_run / busy))
        # A partition's busy + barrier wait is the epochs' wall clock as
        # it saw it, arrival realization included; what the two figures
        # leave of the call is process start, spec and fragment
        # pickling, and the merge.
        print("wall: %.2f s for the call -- partition set-up %.2f s "
              "(slowest build only, CPU), epochs %.2f s; %s"
              % (wall, max(report.partition_setup_seconds),
                 min(b + w for b, w in zip(report.partition_busy_seconds,
                                           report.barrier_wait_seconds)),
                 peak_rss))
    else:
        print("engine: %d events (single-heap run); wall: %.2f s for the "
              "call; %s" % (report.events_run, wall, peak_rss))
    return 0


def _cmd_trace_generate(args) -> int:
    from .workloads.abilene import AbileneTrace
    from .workloads.pcapio import save_trace

    trace = AbileneTrace(seed=args.seed)
    count = save_trace(args.path,
                       trace.timed_packets(args.packets,
                                           rate_bps=args.gbps * 1e9))
    print("wrote %d packets to %s" % (count, args.path))
    return 0


def _cmd_trace_info(args) -> int:
    from .analysis.trace_report import characterize_pcap

    report = characterize_pcap(args.path)
    print("%s: %d packets, mean size %.1f B, duration %.3f s"
          % (args.path, report.packets, report.mean_bytes,
             report.duration_sec))
    if report.duration_sec > 0:
        print("average rate: %.2f Gbps" % (report.rate_bps / 1e9))
    if args.detail:
        print("flows: %d (mean %.1f packets/flow)"
              % (report.flow_count, report.mean_flow_packets))
        if report.packets > 2:
            print("burstiness (gap CV): %.2f" % report.burstiness())
        shares = report.size_shares()
        if len(shares) <= 8:
            for size, share in shares.items():
                print("  %5d B  %5.1f%%" % (size, share * 100))
    return 0


def _load_bench(path: str) -> dict:
    """A BENCH_*.json document; one that does not validate is refused."""
    from .obs.schema import validate_bench

    doc = compare.load_json(path)
    problems = validate_bench(doc)
    if problems:
        raise ConfigurationError("invalid document: %s"
                                 % "; ".join(problems))
    return doc


def _cmd_obs_run(args) -> int:
    if args.all:
        names = benchrun.discover()
    elif args.quick:
        names = list(benchrun.QUICK_BENCHMARKS)
    else:
        names = args.names
    if not names:
        raise ConfigurationError(
            "name one or more benchmarks, or pass --quick/--all; "
            "available:\n  %s" % "\n  ".join(benchrun.discover()))
    out_dir = pathlib.Path(args.out_dir)
    docs = []
    failed = False
    for name in names:
        start = time.perf_counter()
        doc = benchrun.run_benchmark(name, seed=args.seed)
        wall = time.perf_counter() - start
        path = benchrun.write_bench_json(doc, out_dir)
        docs.append(doc)
        failed = failed or doc["status"] != "passed"
        rates = sum(1 for s in doc["scalars"].values()
                    if s["kind"] == "rate")
        print("%-24s %-7s %6.2fs  %2d tests, %2d rate scalars -> %s"
              % (doc["name"], doc["status"], wall,
                 len(doc["tests"]), rates, path))
    if args.update_baseline:
        baseline = compare.make_baseline(docs)
        with open(args.update_baseline, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline (%d benchmarks) -> %s"
              % (len(docs), args.update_baseline))
    return 1 if failed else 0


def _cmd_obs_explain(args) -> int:
    target = args.target
    if target.endswith(".json"):
        # A finished benchmark document: print its explain section.
        doc = compare.load_json(target)
        section = doc.get("explain")
        if not section:
            raise ConfigurationError(
                "%s carries no explain section (re-run 'repro obs run %s')"
                % (target, doc.get("name", "?")))
        print("explain: benchmark %s" % doc.get("name", "?"))
        for row in section.get("top_frames") or []:
            print("  %-28s %12.0f  (%4.1f%%)"
                  % (row["element"], row["self"],
                     row["fraction"] * 100))
        latency = section.get("latency")
        if latency:
            print("  latency (mean %.2f usec over %d traces):"
                  % (latency["mean_end_to_end_usec"],
                     latency["packets"]))
            for stage, usec_value in latency["stages_usec"].items():
                if usec_value:
                    print("    %-16s %8.3f usec  (%5.1f%%)"
                          % (stage, usec_value,
                             latency["stage_fractions"][stage] * 100))
        return 0
    from .obs.explain import explain_pipeline, format_explain
    report = explain_pipeline(
        target, packet_bytes=args.size,
        duration_sec=args.duration_ms * 1e-3)
    print(format_explain(report))
    return 0 if report.agreement else 1


def _cmd_obs_timeline(args) -> int:
    from .obs.timeline import chrome_trace, write_trace_json

    target = args.target
    if target.endswith(".json"):
        # A finished benchmark document: export its metrics section.
        doc = _load_bench(target)
        name = doc.get("name", "bench")
        snapshot = doc.get("metrics") or {}
    else:
        nodes = _rb_nodes(target,
                          "name an rbN preset or a BENCH_*.json")
        from .obs.metrics import MetricsRegistry
        from .parallel import simulate_parallel

        router, workload = _uniform_cluster(nodes, args.seed,
                                            args.size, 0.3)
        registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                                   profile=True)
        report = simulate_parallel(
            router, workload, until=args.duration_ms * 1e-3,
            workers=args.workers, backend="inline",
            metrics=registry)
        print("ran %s: %d epochs across %d partitions, "
              "lookahead efficiency %.2f, imbalance %.2f"
              % (target, report.epochs, report.workers,
                 report.lookahead_efficiency, report.load_imbalance))
        name = target.lower()
        snapshot = registry.snapshot()
    trace_doc = chrome_trace(name, snapshot)
    path = write_trace_json(trace_doc, pathlib.Path(args.out_dir))
    meta = trace_doc["metadata"]
    print("timeline %s: %d events (%d spans) on %d track(s) -> %s"
          % (name, meta["events"], meta["spans"], len(meta["tracks"]),
             path))
    for track in meta["tracks"]:
        print("  %s" % track)
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_obs_report(args) -> int:
    doc = _load_bench(args.bench)
    print("benchmark %s: %s (seed %s)"
          % (doc["name"], doc["status"], doc.get("seed", "?")))
    for test in doc["tests"]:
        line = "  %-40s %s" % (test["name"], test["status"])
        if test["status"] not in ("passed",) and test.get("detail"):
            line += "  (%s)" % test["detail"]
        print(line)
    for name in sorted(doc["scalars"]):
        cell = doc["scalars"][name]
        print("  %-44s %12.6g  %s"
              % (name, cell["value"], cell["kind"]))
    metrics = doc.get("metrics", {})
    for section in ("counters", "gauges", "histograms", "timelines"):
        entries = metrics.get(section) or {}
        if entries:
            print("  %s: %s" % (section, ", ".join(sorted(entries))))
    traces = metrics.get("traces") or {}
    if traces.get("seen"):
        print("  traces: %d sampled of %d packets (1 in %d)"
              % (traces["sampled"], traces["seen"],
                 traces["sample_every"]))
    return 0


def _cmd_obs_diff(args) -> int:
    baseline_doc = compare.load_json(args.baseline)
    bench_doc = compare.load_json(args.current)
    deltas = compare.compare_docs(baseline_doc, bench_doc,
                                  tolerance=args.tolerance)
    print(compare.summarize(deltas))
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_stateful(args) -> int:
    from .stateful import STRATEGIES, make_nf, run_strategy
    from .workloads import SkewedFlowWorkload

    workload = SkewedFlowWorkload(num_flows=args.flows, skew=args.skew,
                                  churn_packets=args.churn, seed=args.seed)
    records = list(workload.records(args.packets))
    strategies = list(STRATEGIES) if args.strategy == "all" \
        else [args.strategy]
    rows = []
    for strategy in strategies:
        report = run_strategy(make_nf(args.nf), records, args.cores, strategy)
        rows.append({
            "strategy": strategy,
            "mpps": "%.3f" % report.throughput_mpps,
            "gbps": "%.3f" % report.throughput_gbps,
            "dropped": report.dropped,
            "lock_contended": report.lock_contended,
            "coherence": report.coherence_transfers,
            "scr_deltas": report.scr_deltas,
            "flows": len(report.end_state),
        })
    print(format_table(
        rows, title="%s on %d cores, %d packets, %d flow slots, skew %.2f"
        % (args.nf, args.cores, args.packets, args.flows, args.skew)))
    return 0


def _arg(*flags, **options):
    """One ``add_argument`` call, held as data."""
    return flags, options


# Flags that more than one row declares.
APP = _arg("--app", choices=sorted(cal.APPLICATIONS), default="forwarding")
NODES = _arg("--nodes", type=int, default=4)
SEED = _arg("--seed", type=int, default=0)
LOAD = _arg("--load", type=float, default=0.3,
            help="offered load as a fraction of port rate")
TOPOLOGY = _arg("topology", nargs="?", default="rb4",
                help="cluster size as rbN (default rb4)")
CONTROL = (TOPOLOGY,
           _arg("--routes", type=int, default=20000,
                help="synthetic RIB size (default 20000)"),
           _arg("--load", type=float, default=0.2,
                help="offered load as a fraction of port rate"),
           _arg("--size", type=int, default=256, help="frame bytes"),
           _arg("--duration-ms", type=float, default=2.0), SEED)
PCAP = _arg("path")
OUT_DIR = _arg("--out-dir", default="benchmarks/results",
               help="where the JSON document lands")
BENCH_SEED = _arg("--seed", type=int, default=benchrun.DEFAULT_SEED,
                  help="RNG seed for every scenario")
DES_RUN = (_arg("--size", type=int, default=64,
                help="packet size in bytes (default 64)"),
           _arg("--duration-ms", type=float, default=1.0,
                help="DES run length in milliseconds"))

# (name, help, arguments, handler): name is "command" or "command action".
# A command row whose handler is None needs an action; one with a handler
# runs the action row sharing that handler, at its defaults, when no
# action is named.
COMMANDS = (
    ("experiments", "run paper experiments",
     (_arg("which", nargs="?", default="list",
           help="'list', 'summary', 'all', or an experiment id "
                "(e.g. T1, F8)"),), _cmd_experiments),
    ("plan", "size a cluster for N ports",
     (_arg("--ports", type=int, required=True,
           help="external 10 Gbps ports"),), _cmd_plan),
    ("server", "single-server saturation",
     (APP, _arg("--size", type=int, default=64),
      _arg("--spec", choices=["nehalem", "next-gen", "xeon"],
           default="nehalem"),
      _arg("--no-nic-limit", action="store_true")), _cmd_server),
    ("pipeline", "compile a Click config to a rate prediction",
     (_arg("config", help="path to a .click file, or a preset name "
                          "(forwarding, routing, ipsec)"),
      _arg("--size", type=int, default=64, help="packet bytes"),
      _arg("--kp", type=int, default=cal.DEFAULT_KP),
      _arg("--kn", type=int, default=cal.DEFAULT_KN),
      _arg("--ports", type=int, default=1,
           help="NIC ports on the modeled server"),
      _arg("--queues", type=int, default=None,
           help="queues per port (default: one per core)"),
      _arg("--des", action="store_true",
           help="also binary-search the timed simulation's "
                "loss-free rate and compare")), _cmd_pipeline),
    ("rb4", "cluster operating points", (NODES,), _cmd_rb4),
    ("validate", "analytic model vs timed DES", (), _cmd_validate),
    ("power", "power estimates with managed modes",
     (APP, _arg("--servers", type=int, default=4)), _cmd_power),
    ("faults", "fault injection and graceful degradation "
               "(default action: curve)", (), _cmd_faults_curve),
    ("faults curve", "analytic degradation curve",
     (NODES, _arg("--worst-case", action="store_true",
                  help="worst-case matrix instead of uniform"),
      _arg("--max-failed", type=int, default=None,
           help="largest failure count to evaluate")), _cmd_faults_curve),
    ("faults run", "scripted fault injection through the DES",
     (NODES, _arg("--size", type=float, default=1024,
                  help="frame bytes (default 1024)"),
      _arg("--schedule", help="JSON fault schedule (default: "
                              "crash+recover the last node)"),
      LOAD, _arg("--duration-ms", type=float, default=2.0),
      _arg("--detection-usec", type=float, default=100.0,
           help="peer/control failure-detection latency"), SEED),
     _cmd_faults_run),
    ("control", "live control plane: RIB churn streamed into the "
                "forwarding cluster's FIBs", (), None),
    ("control run", "one forwarding run, optionally with live churn",
     CONTROL + (
         _arg("--churn", action="store_true",
              help="stream RIB updates during forwarding"),
         _arg("--update-rate", type=float, default=2e5,
              help="mean update rate per second (measured-rate "
                   "churn; compressed timescale)"),
         _arg("--burst", type=int, default=None,
              help="burst mode, N updates per storm (3 storms)")),
     _cmd_control_run),
    ("control churn", "convergence vs update rate sweep",
     CONTROL + (_arg("--rates", default="1e5,4e5",
                     help="comma list of update rates to sweep"),),
     _cmd_control_churn),
    ("parallel", "partitioned cluster DES across worker processes "
                 "(conservative lookahead)", (), None),
    ("parallel run", "one partitioned cluster run",
     (TOPOLOGY, _arg("--workers", type=int, default=2,
                     help="partitions / worker processes (1 = single-heap)"),
      _arg("--backend", choices=["inline", "process"], default="process",
           help="inline: all partitions in this process; "
                "process: one worker process per partition"),
      _arg("--size", type=int, default=64, help="frame bytes"), LOAD,
      _arg("--duration-ms", type=float, default=1.0), SEED),
     _cmd_parallel),
    ("stateful", "stateful NF dispatch strategies (locks / rss / scr) "
                 "under flow-skewed traffic", (), None),
    ("stateful run", "one NF under each dispatch strategy",
     (_arg("nf", choices=["nat", "firewall", "policer", "lb"]),
      _arg("--strategy", choices=["locks", "rss", "scr", "all"],
           default="all", help="dispatch strategy, or 'all' for a "
                               "comparison table (default)"),
      _arg("--cores", type=int, default=4),
      _arg("--skew", type=float, default=1.1,
           help="Zipf exponent of the flow-popularity law"),
      _arg("--flows", type=int, default=512,
           help="concurrently live flow slots"),
      _arg("--packets", type=int, default=20_000),
      _arg("--churn", type=float, default=None,
           help="mean flow lifetime in packets (default: no churn)"),
      SEED), _cmd_stateful),
    ("trace", "generate/inspect pcap traces", (), None),
    ("trace generate", "write a synthetic Abilene pcap",
     (PCAP, _arg("--packets", type=int, default=10_000),
      _arg("--gbps", type=float, default=10.0), SEED),
     _cmd_trace_generate),
    ("trace info", "characterize a pcap",
     (PCAP, _arg("--detail", action="store_true",
                 help="flow/burstiness/size breakdown")), _cmd_trace_info),
    ("obs", "instrumented benchmark runs and regression diffs "
            "(BENCH_*.json)", (), None),
    ("obs run", "run benchmarks into BENCH_<name>.json",
     (_arg("names", nargs="*",
           help="benchmark names (bench_ prefix optional)"),
      _arg("--quick", action="store_true", help="the fast CI subset"),
      _arg("--all", action="store_true",
           help="every benchmarks/bench_*.py"), OUT_DIR, BENCH_SEED,
      _arg("--update-baseline", metavar="PATH",
           help="also bake the results into a baseline file")),
     _cmd_obs_run),
    ("obs report", "print one BENCH json",
     (_arg("bench", help="a BENCH_<name>.json"),), _cmd_obs_report),
    ("obs diff", "compare a BENCH json against a baseline",
     (_arg("baseline"), _arg("current", help="a BENCH_<name>.json"),
      _arg("--tolerance", type=float, default=compare.DEFAULT_TOLERANCE,
           help="fractional regression threshold (default 0.10)")),
     _cmd_obs_diff),
    ("obs explain", "a pipeline's binding resource",
     (_arg("target", help="a preset pipeline or a BENCH json"),)
     + DES_RUN, _cmd_obs_explain),
    ("obs timeline", "export a Chrome/Perfetto trace",
     (_arg("target", help="an rbN preset or a BENCH json"),) + DES_RUN
     + (OUT_DIR, BENCH_SEED,
        _arg("--workers", type=int, default=2,
             help="partitions for an rbN preset run (default 2)")),
     _cmd_obs_timeline),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RouteBricks reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    parsers, actions = {}, {}
    for name, help_text, arguments, handler in COMMANDS:
        command, _, action = name.partition(" ")
        if not action:
            p = parsers[command] = commands.add_parser(command,
                                                       help=help_text)
        else:
            if command not in actions:
                group = parsers[command]
                actions[command] = group.add_subparsers(
                    dest="action", required=group.get_default("func") is None)
            p = actions[command].add_parser(action, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
        if action and handler is parsers[command].get_default("func"):
            parsers[command].set_defaults(**vars(p.parse_args([])))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError, KeyError) as error:
        if isinstance(error, KeyError) and error.args:
            error = error.args[0]
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
