"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``  list experiment ids, or run one/all and print the tables
``plan``         size a cluster for N external ports (Fig. 3 as a tool)
``server``       single-server saturation for an app / packet size
``pipeline``     compile a Click config: predicted rate + cost breakdown
``rb4``          the 4-node cluster's operating points
``faults``       graceful degradation: analytic curve or a scripted DES run
``stateful``     stateful NF dispatch strategies under flow-skewed traffic
``trace``        generate or inspect pcap traces of the synthetic workloads
``obs``          run instrumented benchmarks, report/diff BENCH_*.json,
                 and ``explain`` a pipeline's binding resource
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from . import calibration as cal
from .analysis import EXPERIMENTS, format_table, run_experiment


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

    if args.ports is None:
        args.ports = args.ports_flag
    if args.ports is None:
        print("error: plan needs a port count (plan 4 or plan --ports 4)",
              file=sys.stderr)
        return 2
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
    from .errors import ReproError
    from .hw.presets import NEHALEM
    from .hw.server import Server

    if args.config in PRESET_PIPELINES:
        text = PRESET_PIPELINES[args.config]
    else:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as error:
            print("error: cannot read Click config %r: %s"
                  % (args.config, error), file=sys.stderr)
            return 2
    queues = args.queues or NEHALEM.total_cores

    def fresh_server():
        return Server(NEHALEM, num_ports=args.ports, queues_per_port=queues)

    try:
        graph = build_pipeline(text, fresh_server(), kp=args.kp, kn=args.kn)
        report = pipeline_breakdown(graph, packet_bytes=args.size)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
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
    """Node count of an ``rbN`` preset name; ``None``, with the error
    printed, for anything else."""
    import re

    match = re.fullmatch(r"rb(\d+)", name.lower())
    if not match:
        print("error: %s, got %r" % (expected, name), file=sys.stderr)
        return None
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


def _cmd_faults(args) -> int:
    from .errors import ReproError
    from .faults import (FaultSchedule, degradation_curve, linear_fraction,
                         quadratic_fraction)

    if args.action == "curve":
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

    # action == "run": scripted fault injection through the DES, with the
    # control plane attached so convergence is visible.
    from .core.control import ClusterManager

    duration = args.duration_ms * 1e-3
    if args.schedule:
        try:
            with open(args.schedule) as handle:
                schedule = FaultSchedule.from_json(handle.read())
            schedule.validate(args.nodes)
        except (OSError, ValueError, ReproError) as error:
            print("error: cannot load fault schedule %r: %s"
                  % (args.schedule, error), file=sys.stderr)
            return 2
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


def _cmd_control(args) -> int:
    import math

    from .control import ChurnSchedule, run_churn

    nodes = _rb_nodes(args.topology)
    if nodes is None:
        return 2
    duration = args.duration_ms * 1e-3

    if args.action == "churn":
        # Convergence vs update rate sweep.
        try:
            rates = [float(rate) for rate in args.rates.split(",")]
        except ValueError:
            print("error: --rates must be a comma list of numbers, got %r"
                  % args.rates, file=sys.stderr)
            return 2
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

    # action == "run": one forwarding run, optionally with live churn.
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

    from .errors import ReproError
    from .parallel import simulate_parallel

    nodes = _rb_nodes(args.topology)
    if nodes is None:
        return 2
    duration = args.duration_ms * 1e-3
    router, workload = _uniform_cluster(nodes, args.seed, args.size,
                                        args.load)
    start = perf_counter()
    try:
        report = simulate_parallel(
            router, workload, until=duration, workers=args.workers,
            backend=args.backend)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    wall = perf_counter() - start
    # KiB on Linux; this process's own, not its workers'.
    peak_rss = "peak RSS %.1f MiB" % (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print("cluster: %d nodes across %d worker(s) [%s backend], "
          "%g%% uniform load of %d B frames"
          % (nodes, report.workers, args.backend, args.load * 100,
             args.size))
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


def _cmd_trace(args) -> int:
    from .workloads.abilene import AbileneTrace
    from .workloads.pcapio import save_trace

    if args.action == "generate":
        trace = AbileneTrace(seed=args.seed)
        count = save_trace(args.path,
                           trace.timed_packets(args.packets,
                                               rate_bps=args.gbps * 1e9))
        print("wrote %d packets to %s" % (count, args.path))
        return 0
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


def _cmd_obs(args) -> int:
    from .obs import benchrun, compare

    if args.seed is None:
        args.seed = benchrun.DEFAULT_SEED
    if args.tolerance is None:
        args.tolerance = compare.DEFAULT_TOLERANCE

    if args.action == "run":
        if args.all:
            names = benchrun.discover()
        elif args.quick:
            names = list(benchrun.QUICK_BENCHMARKS)
        else:
            names = args.names
        if not names:
            print("error: name one or more benchmarks, or pass "
                  "--quick/--all; available:\n  %s"
                  % "\n  ".join(benchrun.discover()), file=sys.stderr)
            return 2
        out_dir = pathlib.Path(args.out_dir)
        docs = []
        failed = False
        for name in names:
            start = time.perf_counter()
            try:
                doc = benchrun.run_benchmark(name, seed=args.seed)
            except FileNotFoundError as error:
                print("error: %s" % error, file=sys.stderr)
                return 2
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

    if args.action == "explain":
        if len(args.names) != 1:
            print("usage: repro obs explain <preset|BENCH_<name>.json> "
                  "[--size N] [--duration-ms MS]", file=sys.stderr)
            return 2
        target = args.names[0]
        if target.endswith(".json"):
            # A finished benchmark document: print its explain section.
            try:
                doc = compare.load_json(target)
            except (OSError, json.JSONDecodeError) as error:
                print("error: %s" % error, file=sys.stderr)
                return 2
            section = doc.get("explain")
            if not section:
                print("error: %s carries no explain section (re-run "
                      "'repro obs run %s')" % (target, doc.get("name", "?")),
                      file=sys.stderr)
                return 2
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
        from .errors import ConfigurationError
        from .obs.explain import explain_pipeline, format_explain
        try:
            report = explain_pipeline(
                target, packet_bytes=args.size,
                duration_sec=args.duration_ms * 1e-3)
        except ConfigurationError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        print(format_explain(report))
        return 0 if report.agreement else 1

    if args.action == "timeline":
        from .obs.timeline import chrome_trace, write_trace_json

        if len(args.names) != 1:
            print("usage: repro obs timeline <rbN|BENCH_<name>.json> "
                  "[--workers N] [--duration-ms MS] [--out-dir DIR]",
                  file=sys.stderr)
            return 2
        target = args.names[0]
        if target.endswith(".json"):
            # A finished benchmark document: export its metrics section.
            from .obs.schema import validate_bench
            try:
                doc = compare.load_json(target)
            except (OSError, json.JSONDecodeError) as error:
                print("error: %s" % error, file=sys.stderr)
                return 2
            problems = validate_bench(doc)
            if problems:
                print("invalid document: %s" % "; ".join(problems),
                      file=sys.stderr)
                return 2
            name = doc.get("name", "bench")
            snapshot = doc.get("metrics") or {}
        else:
            nodes = _rb_nodes(target,
                              "name an rbN preset or a BENCH_*.json")
            if nodes is None:
                return 2
            from .errors import ReproError
            from .obs.metrics import MetricsRegistry
            from .parallel import simulate_parallel

            router, workload = _uniform_cluster(nodes, args.seed,
                                                args.size, 0.3)
            registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                                       profile=True)
            try:
                report = simulate_parallel(
                    router, workload, until=args.duration_ms * 1e-3,
                    workers=args.workers, backend="inline",
                    metrics=registry)
            except ReproError as error:
                print("error: %s" % error, file=sys.stderr)
                return 2
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

    if args.action == "report":
        from .obs.schema import validate_bench

        if len(args.names) != 1:
            print("usage: repro obs report BENCH_<name>.json",
                  file=sys.stderr)
            return 2
        try:
            doc = compare.load_json(args.names[0])
        except (OSError, json.JSONDecodeError) as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        problems = validate_bench(doc)
        if problems:
            print("invalid document: %s" % "; ".join(problems),
                  file=sys.stderr)
            return 2
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

    # action == "diff"
    if len(args.names) != 2:
        print("usage: repro obs diff BASELINE.json BENCH_current.json",
              file=sys.stderr)
        return 2
    try:
        baseline_doc = compare.load_json(args.names[0])
        bench_doc = compare.load_json(args.names[1])
        deltas = compare.compare_docs(baseline_doc, bench_doc,
                                      tolerance=args.tolerance)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RouteBricks reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="run paper experiments")
    p.add_argument("which", nargs="?", default="list",
                   help="'list', 'summary', 'all', or an experiment id "
                        "(e.g. T1, F8)")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("plan", help="size a cluster for N ports")
    p.add_argument("ports", type=int, nargs="?", default=None)
    p.add_argument("--ports", type=int, dest="ports_flag", default=None,
                   help="alternative to the positional port count")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("server", help="single-server saturation")
    p.add_argument("--app", choices=sorted(cal.APPLICATIONS),
                   default="forwarding")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--spec", choices=["nehalem", "next-gen", "xeon"],
                   default="nehalem")
    p.add_argument("--no-nic-limit", action="store_true")
    p.set_defaults(func=_cmd_server)

    p = sub.add_parser("pipeline",
                       help="compile a Click config to a rate prediction")
    p.add_argument("config",
                   help="path to a .click file, or a preset name "
                        "(forwarding, routing, ipsec)")
    p.add_argument("--size", type=int, default=64, help="packet bytes")
    p.add_argument("--kp", type=int, default=cal.DEFAULT_KP)
    p.add_argument("--kn", type=int, default=cal.DEFAULT_KN)
    p.add_argument("--ports", type=int, default=1,
                   help="NIC ports on the modeled server")
    p.add_argument("--queues", type=int, default=None,
                   help="queues per port (default: one per core)")
    p.add_argument("--des", action="store_true",
                   help="also binary-search the timed simulation's "
                        "loss-free rate and compare")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("rb4", help="cluster operating points")
    p.add_argument("--nodes", type=int, default=4)
    p.set_defaults(func=_cmd_rb4)

    p = sub.add_parser("validate", help="analytic model vs timed DES")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("power", help="power estimates with managed modes")
    p.add_argument("--app", choices=sorted(cal.APPLICATIONS),
                   default="forwarding")
    p.add_argument("--servers", type=int, default=4)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("faults",
                       help="fault injection and graceful degradation")
    p.add_argument("action", nargs="?", choices=["curve", "run"],
                   default="curve")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--size", type=float, default=1024,
                   help="frame bytes (default 1024)")
    p.add_argument("--worst-case", action="store_true",
                   help="curve: worst-case matrix instead of uniform")
    p.add_argument("--max-failed", type=int, default=None,
                   help="curve: largest failure count to evaluate")
    p.add_argument("--schedule",
                   help="run: JSON fault schedule (default: crash+recover "
                        "the last node)")
    p.add_argument("--load", type=float, default=0.3,
                   help="run: offered load as a fraction of port rate")
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.add_argument("--detection-usec", type=float, default=100.0,
                   help="run: peer/control failure-detection latency")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("control",
                       help="live control plane: RIB churn streamed into "
                            "the forwarding cluster's FIBs")
    p.add_argument("action", choices=["run", "churn"])
    p.add_argument("topology", nargs="?", default="rb4",
                   help="cluster size as rbN (default rb4)")
    p.add_argument("--churn", action="store_true",
                   help="run: stream RIB updates during forwarding")
    p.add_argument("--routes", type=int, default=20000,
                   help="synthetic RIB size (default 20000)")
    p.add_argument("--update-rate", type=float, default=2e5,
                   help="mean update rate per second (measured-rate "
                        "churn; compressed timescale)")
    p.add_argument("--burst", type=int, default=None,
                   help="run: burst mode, N updates per storm (3 storms)")
    p.add_argument("--rates", default="1e5,4e5",
                   help="churn: comma list of update rates to sweep")
    p.add_argument("--load", type=float, default=0.2,
                   help="offered load as a fraction of port rate")
    p.add_argument("--size", type=int, default=256, help="frame bytes")
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("parallel",
                       help="partitioned cluster DES across worker "
                            "processes (conservative lookahead)")
    p.add_argument("action", choices=["run"])
    p.add_argument("topology", nargs="?", default="rb4",
                   help="cluster size as rbN (default rb4)")
    p.add_argument("--workers", type=int, default=2,
                   help="partitions / worker processes (1 = single-heap)")
    p.add_argument("--backend", choices=["inline", "process"],
                   default="process",
                   help="inline: all partitions in this process; "
                        "process: one worker process per partition")
    p.add_argument("--size", type=int, default=64, help="frame bytes")
    p.add_argument("--load", type=float, default=0.3,
                   help="offered load as a fraction of port rate")
    p.add_argument("--duration-ms", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_parallel)

    p = sub.add_parser("stateful",
                       help="stateful NF dispatch strategies (locks / "
                            "rss / scr) under flow-skewed traffic")
    p.add_argument("action", choices=["run"])
    p.add_argument("nf", choices=["nat", "firewall", "policer", "lb"])
    p.add_argument("--strategy", choices=["locks", "rss", "scr", "all"],
                   default="all",
                   help="dispatch strategy, or 'all' for a comparison "
                        "table (default)")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--skew", type=float, default=1.1,
                   help="Zipf exponent of the flow-popularity law")
    p.add_argument("--flows", type=int, default=512,
                   help="concurrently live flow slots")
    p.add_argument("--packets", type=int, default=20_000)
    p.add_argument("--churn", type=float, default=None,
                   help="mean flow lifetime in packets (default: no churn)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stateful)

    p = sub.add_parser("trace", help="generate/inspect pcap traces")
    p.add_argument("action", choices=["generate", "info"])
    p.add_argument("path")
    p.add_argument("--packets", type=int, default=10_000)
    p.add_argument("--gbps", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detail", action="store_true",
                   help="flow/burstiness/size breakdown for 'info'")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("obs",
                       help="instrumented benchmark runs and regression "
                            "diffs (BENCH_*.json)")
    p.add_argument("action",
                   choices=["run", "report", "diff", "explain", "timeline"])
    p.add_argument("names", nargs="*",
                   help="run: benchmark names (bench_ prefix optional); "
                        "report: one BENCH json; diff: baseline + current; "
                        "explain: a preset pipeline or a BENCH json; "
                        "timeline: an rbN preset or a BENCH json")
    p.add_argument("--quick", action="store_true",
                   help="run: the fast CI subset")
    p.add_argument("--all", action="store_true",
                   help="run: every benchmarks/bench_*.py")
    p.add_argument("--out-dir", default="benchmarks/results",
                   help="run: where BENCH_<name>.json lands")
    p.add_argument("--seed", type=int, default=None,
                   help="run: RNG seed for every scenario")
    p.add_argument("--update-baseline", metavar="PATH",
                   help="run: also bake the results into a baseline file")
    p.add_argument("--tolerance", type=float, default=None,
                   help="diff: fractional regression threshold "
                        "(default 0.10)")
    p.add_argument("--size", type=int, default=64,
                   help="explain/timeline: packet size in bytes "
                        "(default 64)")
    p.add_argument("--duration-ms", type=float, default=1.0,
                   help="explain/timeline: DES run length in milliseconds")
    p.add_argument("--workers", type=int, default=2,
                   help="timeline: partitions for an rbN preset run "
                        "(default 2)")
    p.set_defaults(func=_cmd_obs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
