"""Every call perfbench makes into ``repro``.

This is the only file that imports ``repro``, and it uses only public
entry points.  Each scenario splits one repeat into ``load`` (imports),
``build`` (system + inputs; with ``load`` this is what ``setup_s``
covers), ``run`` (the timed call(s)), ``check`` (correctness, untimed)
and ``probes`` (isolated micro-timings of one layer's public function,
traced repeats only).  Explicit spans wrap the calls made *here*; no
span lives inside ``repro``.

``repro`` is imported inside functions so that importing this module is
free and the import cost lands inside the ``setup.import`` span.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Dict, List

from .trace import Tracer
from .workloads import TABLE1_ROWS, WORKLOADS, Workload

#: Errors that mean "the probed function is gone or changed shape": the
#: probe reports ``<name>.missing`` instead of failing the run.
PROBE_MISSING = (ImportError, AttributeError, TypeError)


def _histogram_percentiles(histogram) -> Dict[str, float]:
    if len(histogram) == 0:
        return {"latency_p50_us": 0.0, "latency_p99_us": 0.0}
    return {"latency_p50_us": histogram.percentile(50),
            "latency_p99_us": histogram.percentile(99)}


def _cluster_scalars(report) -> Dict[str, object]:
    """The simulated scalars of a ``SimulationReport`` (digest input)."""
    scalars = {
        "offered_packets": report.offered_packets,
        "delivered_packets": report.delivered_packets,
        "dropped_packets": report.dropped_packets,
        "delivered_bytes": report.delivered_bytes,
        "fib_miss_packets": report.fib_miss_packets,
        "events_run": report.events_run,
        "reordered_fraction": report.reordered_fraction,
        "indirect_fraction": report.indirect_fraction,
        "flowlet_spills": report.flowlet_spills,
    }
    scalars.update(_histogram_percentiles(report.latency_usec))
    return scalars


def _cluster_counts(report) -> Dict[str, float]:
    return {
        "simnet.events": report.events_run,
        "workloads.arrivals": report.offered_packets,
        "core.delivered_pkts": report.delivered_packets,
        "core.dropped_pkts": report.dropped_packets,
        "core.indirect_fraction": report.indirect_fraction,
        "core.flowlet_spills": report.flowlet_spills,
        "core.reordered_fraction": report.reordered_fraction,
        "core.latency_p99_us":
            _histogram_percentiles(report.latency_usec)["latency_p99_us"],
    }


def _conserved(report) -> bool:
    # ``dropped_packets`` already includes FIB misses (the ingress node
    # books them as a drop cause), so they are not added a second time.
    return (report.delivered_packets + report.dropped_packets
            <= report.offered_packets
            and report.fib_miss_packets <= report.dropped_packets)


class Scenario:
    """One workload's calls into ``repro``; see the module docstring."""

    def __init__(self, workload: Workload):
        self.params = workload.params

    def load(self) -> None:
        raise NotImplementedError

    def build(self, seed: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def run(self, tracer: Tracer, traced: bool) -> None:
        raise NotImplementedError

    def check(self, tracer: Tracer) -> Dict[str, bool]:
        return {}

    def scalars(self) -> Dict[str, object]:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        return {}

    def probes(self) -> Dict[str, Callable[[], float]]:
        return {}


class ClusterScenario(Scenario):
    """``RouteBricksRouter.simulate`` / ``simulate_parallel`` on a
    ``WorkloadSpec`` bound to a traffic matrix."""

    def load(self) -> None:
        import repro.core  # noqa: F401
        import repro.workloads.matrices  # noqa: F401
        if self.params["workers"] > 1:
            import repro.parallel  # noqa: F401
        if self.params.get("obs"):
            import repro.obs.metrics  # noqa: F401

    def build(self, seed: int, tracer: Tracer) -> None:
        from repro.core import RouteBricksRouter
        from repro.workloads import WorkloadSpec
        from repro.workloads import matrices

        p = self.params
        nodes = p["nodes"]
        self.until = p["until"]
        self.workers = min(p["workers"], os.cpu_count() or 1)
        rate = p["port_rate_bps"]
        self.router = RouteBricksRouter(
            num_nodes=nodes, seed=seed, port_rate_bps=rate,
            internal_link_bps=rate * p.get("internal_link_fraction", 1.0))
        matrix = {"uniform": matrices.uniform_matrix,
                  "permutation": matrices.permutation_matrix}[p["matrix"]](
                      nodes, rate * p["load"])
        spec = (WorkloadSpec.abilene(seed=seed) if p.get("mix") == "abilene"
                else WorkloadSpec.fixed(p["packet_bytes"], seed=seed))
        self.spec = spec.with_matrix(matrix)
        self.registry = None
        if p.get("obs"):
            from repro.obs.metrics import MetricsRegistry
            # As ``repro obs run`` configures it.
            self.registry = MetricsRegistry(
                enabled=True, trace_sample_every=64, profile=True)
        self.snapshot = None

    def run(self, tracer: Tracer, traced: bool) -> None:
        events = self.spec
        if traced:
            # Realised here only so the cost gets its own span; the
            # timed repeats leave realisation inside the call.
            with tracer.span("workloads.realize"):
                events = list(self.spec.events(self.until))
        if self.workers > 1:
            from repro.parallel import simulate_parallel
            with tracer.span("parallel.simulate"):
                self.report = simulate_parallel(
                    self.router, events, until=self.until,
                    workers=self.workers, backend="process",
                    metrics=self.registry)
        else:
            with tracer.span("core.simulate"):
                self.report = self.router.simulate(
                    events, until=self.until, metrics=self.registry)
        if self.registry is not None:
            with tracer.span("obs.snapshot"):
                self.snapshot = self.registry.snapshot()

    def check(self, tracer: Tracer) -> Dict[str, bool]:
        return {"conservation": _conserved(self.report)}

    def scalars(self) -> Dict[str, object]:
        scalars = _cluster_scalars(self.report)
        if self.snapshot is not None:
            traces = self.snapshot["traces"]
            scalars["obs_traces_seen"] = traces["seen"]
            scalars["obs_traces_sampled"] = traces["sampled"]
        return scalars

    def counts(self) -> Dict[str, float]:
        report = self.report
        counts = _cluster_counts(report)
        if report.workers > 1:
            busy = report.partition_busy_seconds
            counts.update({
                "parallel.epochs": report.epochs,
                "parallel.barrier_wait_s": sum(report.barrier_wait_seconds),
                "parallel.busy_max_s": max(busy),
                "parallel.busy_sum_s": sum(busy),
                "parallel.imbalance": report.load_imbalance,
                "parallel.lookahead_efficiency": report.lookahead_efficiency,
            })
        return counts

    def probes(self) -> Dict[str, Callable[[], float]]:
        def realize_s() -> float:
            start = time.perf_counter()
            count = len(list(self.spec.events(self.until)))
            elapsed = time.perf_counter() - start
            if count != self.report.offered_packets:
                raise RuntimeError("realisation is not repeatable")
            return elapsed
        return {"workloads.realize_s": realize_s}


class ServerScenario(Scenario):
    """Table 1: ``TimedForwardingRun.find_loss_free_rate`` per (kp, kn)
    row on one Nehalem server.  The public search takes no seed, so the
    inputs are the same for every ``--seed``."""

    def load(self) -> None:
        import repro.click.simrun  # noqa: F401
        import repro.hw.presets  # noqa: F401

    def build(self, seed: int, tracer: Tracer) -> None:
        from repro.click.simrun import TimedForwardingRun
        from repro.hw.presets import nehalem_server

        p = self.params
        self.runs = [
            TimedForwardingRun(
                nehalem_server(num_ports=p["ports"],
                               queues_per_port=p["queues_per_port"]),
                p["packet_bytes"], kp=kp, kn=kn, batch=p["batch"])
            for kp, kn, _ in TABLE1_ROWS]
        self.des_reports: List[object] = []

    def run(self, tracer: Tracer, traced: bool) -> None:
        if traced:
            # The search returns only the rate; observe its DES runs by
            # wrapping the instance's public ``run`` from outside.
            for timed_run in self.runs:
                timed_run.run = self._recording(timed_run.run)
        self.rates_gbps = []
        for timed_run in self.runs:
            with tracer.span("click.find_rate"):
                rate = timed_run.find_loss_free_rate(
                    duration_sec=self.params["duration_sec"])
            self.rates_gbps.append(rate / 1e9)

    def _recording(self, run):
        def recorded(*args, **kwargs):
            report = run(*args, **kwargs)
            self.des_reports.append(report)
            return report
        return recorded

    def sim_error_pct(self) -> float:
        return max(abs(rate - paper) / paper * 100.0
                   for rate, (_, _, paper) in zip(self.rates_gbps,
                                                  TABLE1_ROWS))

    def check(self, tracer: Tracer) -> Dict[str, bool]:
        return {"rates_increase_with_batching":
                self.rates_gbps == sorted(self.rates_gbps)}

    def scalars(self) -> Dict[str, object]:
        return {"loss_free_gbps_kp%d_kn%d" % (kp, kn): rate
                for rate, (kp, kn, _) in zip(self.rates_gbps, TABLE1_ROWS)}

    def counts(self) -> Dict[str, float]:
        counts = {
            "click.sim_error_pct": self.sim_error_pct(),
            "click.loss_free_gbps_kp32_kn16": self.rates_gbps[-1],
        }
        if self.des_reports:
            polls = sum(r.total_polls for r in self.des_reports)
            empty = sum(r.empty_polls for r in self.des_reports)
            counts.update({
                "click.des_runs": len(self.des_reports),
                "click.polls": polls,
                "click.empty_poll_ratio": empty / polls if polls else 0.0,
                "click.dropped_pkts":
                    sum(r.dropped_packets for r in self.des_reports),
            })
        return counts


class FibChurnScenario(Scenario):
    """Forwarding through live per-node FIBs while a churn schedule
    streams incremental updates into them (PR 10's control plane)."""

    def load(self) -> None:
        import repro.control  # noqa: F401

    def build(self, seed: int, tracer: Tracer) -> None:
        from repro.control import (ChurnDriver, ChurnSchedule,
                                   announce_rib, build_cluster)
        from repro.net.packet import Packet

        p = self.params
        nodes = p["nodes"]
        self.seed = seed
        control_seed = p["control_seed"]
        self.router, self.manager = build_cluster(nodes, seed=seed)
        announce_rib(self.manager, p["routes"], seed=control_seed + 1)
        with tracer.span("routing.fib_build"):
            self.manager.push_fibs()
        schedule = ChurnSchedule.measured_rate(
            self.manager.rib, rate_per_sec=p["update_rate_per_sec"],
            duration_sec=p["duration_sec"], num_ports=nodes,
            seed=control_seed + 2)
        self.driver = ChurnDriver(self.manager, schedule)

        # Harness-generated traffic: evenly paced, ingress round-robin,
        # destinations mostly inside the announced RIB.  The egress
        # field is None -- the ingress node's live FIB resolves it.
        duration = p["duration_sec"]
        size = p["packet_bytes"]
        per_node_pps = p["load"] * self.router.port_rate_bps / (8.0 * size)
        count = max(1, int(per_node_pps * nodes * duration))
        spacing = duration / count
        rng = random.Random(seed + 3)
        prefixes = list(self.manager.rib)
        self.destinations = []
        self.events = []
        for i in range(count):
            if rng.random() < p["hit_fraction"]:
                prefix = prefixes[rng.randrange(len(prefixes))]
                host_bits = 32 - prefix.length
                dst = prefix.network.value | (
                    rng.getrandbits(host_bits) if host_bits else 0)
            else:
                dst = rng.getrandbits(32)
            self.destinations.append(dst)
            packet = Packet.udp((10 << 24) | (i & 0xFFFF), dst, length=size)
            self.events.append((i * spacing, i % nodes, None, packet))
        self.horizon = duration + p["tail_sec"]

    def run(self, tracer: Tracer, traced: bool) -> None:
        with tracer.span("core.simulate"):
            self.report = self.router.simulate(
                self.events, until=self.horizon, manager=self.manager,
                route_via_fib=True, churn=self.driver)

    def check(self, tracer: Tracer) -> Dict[str, bool]:
        from repro.control import probe_addresses, verify_fibs

        probes = probe_addresses(self.manager, self.params["verify_probes"],
                                 seed=self.seed + 4)
        with tracer.span("routing.verify"):
            consistent = verify_fibs(self.manager, probes)
        return {
            "conservation": _conserved(self.report),
            "fibs_match_trie_reference": consistent,
            "zero_rebuilds": self.driver.rebuilds == 0,
            "zero_unconverged": self.driver.unconverged == 0,
        }

    def scalars(self) -> Dict[str, object]:
        driver = self.driver
        scalars = _cluster_scalars(self.report)
        scalars.update({
            "updates_applied": driver.updates_applied,
            "fib_ops": driver.fib_ops,
            "rebuilds": driver.rebuilds,
            "sync_ticks": driver.sync_ticks,
            "unconverged": driver.unconverged,
            "mean_convergence_sec": driver.mean_convergence_sec,
        })
        return scalars

    def counts(self) -> Dict[str, float]:
        report, driver = self.report, self.driver
        counts = _cluster_counts(report)
        counts.update({
            "routing.lookups": report.offered_packets,
            "routing.fib_misses": report.fib_miss_packets,
            "routing.fib_ops": driver.fib_ops,
            "routing.rebuilds": driver.rebuilds,
            "control.updates_applied": driver.updates_applied,
            "control.sync_ticks": driver.sync_ticks,
            "control.convergence_mean_us": driver.mean_convergence_sec * 1e6,
        })
        return counts

    def probes(self) -> Dict[str, Callable[[], float]]:
        """Timed on node 0's live FIB, over the workload's own
        destinations, after the run (the table is left as found)."""
        fib = self.manager.fib_of(0)
        destinations = self.destinations

        def lookup_ns() -> float:
            lookup = fib.lookup
            start = time.perf_counter()
            for dst in destinations:
                lookup(dst)
            return (time.perf_counter() - start) / len(destinations) * 1e9

        def lookup_batch_ns() -> float:
            import numpy as np
            addresses = np.asarray(destinations, dtype=np.uint32)
            fib.lookup_batch(addresses)           # builds the slot cache
            start = time.perf_counter()
            fib.lookup_batch(addresses)
            return (time.perf_counter() - start) / len(destinations) * 1e9

        def update_us() -> float:
            from repro.routing.table import Route
            manager = self.manager
            installed = [(prefix, manager.owner_of(port))
                         for prefix, port in list(manager.rib.items())[:2000]
                         if fib.has_route(prefix)]
            start = time.perf_counter()
            for prefix, owner in installed:
                fib.remove_route(prefix)
                fib.add_route(prefix, Route(port=owner,
                                            next_hop=prefix.network))
            return (time.perf_counter() - start) / len(installed) * 1e6

        return {"routing.lookup_ns": lookup_ns,
                "routing.lookup_batch_ns": lookup_batch_ns,
                "routing.update_us": update_us}


_KINDS = {"cluster": ClusterScenario, "server": ServerScenario,
          "fib_churn": FibChurnScenario}


def scenario(name: str) -> Scenario:
    workload = WORKLOADS[name]
    return _KINDS[workload.kind](workload)


# -- workload-independent probes ---------------------------------------------

def _dispatch_ns(count: int = 100_000) -> float:
    """Engine dispatch: N no-op ``schedule_timer`` + one ``run``."""
    from repro.simnet.engine import Simulator

    sim = Simulator()

    def noop() -> None:
        pass

    start = time.perf_counter()
    for i in range(count):
        sim.schedule_timer(i * 1e-9, noop)
    sim.run()
    return (time.perf_counter() - start) / count * 1e9


def _pkt_build_ns(count: int = 20_000) -> float:
    from repro.net.packet import Packet

    start = time.perf_counter()
    for i in range(count):
        Packet.udp(0x0A000001, 0x0A000002 + i, length=64)
    return (time.perf_counter() - start) / count * 1e9


def _wire_us_per_pkt(count: int = 5_000) -> float:
    """``to_wire`` -> pickle -> ``from_wire``: what a packet pays to
    cross a partition boundary."""
    import pickle

    from repro.net.packet import Packet

    packets = [Packet.udp(0x0A000001, 0x0A000002 + i, length=64)
               for i in range(count)]
    start = time.perf_counter()
    wires = pickle.loads(pickle.dumps([p.to_wire() for p in packets]))
    for wire in wires:
        Packet.from_wire(wire)
    return (time.perf_counter() - start) / count * 1e6


GENERIC_PROBES: Dict[str, Callable[[], float]] = {
    "simnet.dispatch_ns": _dispatch_ns,
    "net.pkt_build_ns": _pkt_build_ns,
    "net.wire_us_per_pkt": _wire_us_per_pkt,
}
