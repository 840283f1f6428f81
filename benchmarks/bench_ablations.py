"""Ablations of the design choices DESIGN.md calls out.

* NUMA-aware data placement: no effect on throughput (Sec. 4.2's
  surprising finding) -- remote descriptor placement shifts ~23 % of
  memory accesses across the inter-socket link, which has ample headroom.
* Direct vs classic VLB: the 2R-vs-3R per-node processing tax.
* Flowlet delta sweep: reordering vs the inactivity threshold.
* Mesh vs fly vs torus cluster sizes.
* RX/TX queue count: the one-queue-per-core-per-port sufficiency rule.
"""

import pytest

from repro import calibration as cal
from repro.analysis import format_table
from repro.core import ClassicVlb, DirectVlb, RouteBricksRouter, analyze
from repro.core.topology import FullMesh, KAryNFly, Torus
from repro.costs import per_packet_vector
from repro.perfmodel import max_loss_free_rate
from repro.workloads import (
    FlowGenerator,
    WorkloadSpec,
    permutation_matrix,
    uniform_matrix,
)


def test_numa_placement_ablation(benchmark, save_result):
    """Remote descriptor placement loads the QPI but moves no bottleneck:
    throughput is unchanged, matching the paper's 6.3 = 6.3 Gbps test."""

    def run():
        loads = per_packet_vector(cal.MINIMAL_FORWARDING, 64)
        base = max_loss_free_rate(
            WorkloadSpec.fixed(64, app=cal.MINIMAL_FORWARDING))
        # Remote placement: charge the descriptor share of memory traffic
        # (23 % of accesses, Sec. 4.2) across the inter-socket link too.
        remote_qpi = loads.qpi_bytes + 0.23 * loads.mem_bytes
        qpi_capacity = cal.INTERSOCKET_EMPIRICAL_BPS / 8
        qpi_limit_pps = qpi_capacity / remote_qpi
        return base, qpi_limit_pps

    base, qpi_limit_pps = benchmark(run)
    rows = [{"placement": "local", "rate_gbps": base.rate_gbps},
            {"placement": "remote descriptors",
             "rate_gbps": min(base.rate_pps, qpi_limit_pps) * 512 / 1e9}]
    save_result("ablation_numa", format_table(
        rows, ["placement", "rate_gbps"],
        title="Ablation: NUMA data placement (64B forwarding)"))
    # No difference: the QPI never becomes the binding component.
    assert qpi_limit_pps > base.rate_pps
    assert rows[0]["rate_gbps"] == pytest.approx(rows[1]["rate_gbps"])


def test_direct_vs_classic_vlb(benchmark, save_result):
    """Direct VLB cuts the per-node processing factor from ~3R to ~2R on
    uniform matrices while both stay ~3R in the worst case."""

    def run():
        n, rate = 8, 10e9
        out = []
        for name, matrix in (("uniform", uniform_matrix(n, rate)),
                             ("permutation", permutation_matrix(n, rate))):
            for policy in (DirectVlb(), ClassicVlb()):
                analysis = analyze(matrix, rate, policy)
                out.append({"matrix": name, "policy": policy.name,
                            "c_factor": analysis.c_factor(rate),
                            "direct_fraction": analysis.direct_fraction})
        return out

    rows = benchmark(run)
    save_result("ablation_vlb", format_table(
        rows, ["matrix", "policy", "c_factor", "direct_fraction"],
        title="Ablation: Direct vs classic VLB processing factor"))
    table = {(r["matrix"], r["policy"]): r["c_factor"] for r in rows}
    assert table[("uniform", "direct")] < 2.2
    assert table[("uniform", "classic")] > 2.7
    assert table[("permutation", "direct")] > 2.8


def test_flowlet_delta_sweep(benchmark, save_result):
    """Reordering vs the flowlet inactivity threshold delta: too small a
    delta degrades toward per-packet balancing."""

    def run(delta):
        gen = FlowGenerator(num_flows=50, packets_per_flow=160,
                            packet_bytes=740, burst_size=8,
                            burst_gap_sec=1e-4, intra_burst_gap_sec=4e-7,
                            seed=1)
        router = RouteBricksRouter(seed=5)
        sim_router = router
        # Override the flowlet delta on every node.
        sim, nodes = sim_router.build_simulation()
        from repro.core.reordering import ReorderingMeter
        meter = ReorderingMeter()
        for node in nodes:
            node.flowlets.delta_sec = delta
            node.egress_callback = lambda p, now, m=meter: m.observe(p)
        for t, p in gen.timed_packets():
            sim.schedule_timer_at(t, lambda n=nodes[0], p=p: n.ingress(p, 1))
        sim.run()
        return meter.reordered_fraction()

    deltas = [1e-5, 1e-3, cal.FLOWLET_DELTA_SEC]
    fractions = [run(d) for d in deltas]
    benchmark.pedantic(run, args=(cal.FLOWLET_DELTA_SEC,), rounds=1,
                       iterations=1)
    rows = [{"delta_sec": d, "reordered_pct": f * 100}
            for d, f in zip(deltas, fractions)]
    save_result("ablation_flowlet_delta", format_table(
        rows, ["delta_sec", "reordered_pct"],
        title="Ablation: flowlet delta sweep", float_format="%.4f"))
    # A tiny delta (<< path-latency difference) must not beat the default.
    assert fractions[0] >= fractions[-1]


def test_topology_comparison(benchmark, save_result):
    """Mesh < fly < torus in server count, where each is feasible."""

    def run():
        out = []
        for ports in (256, 512, 1024):
            fly = KAryNFly(num_ports=ports, ports_per_server=1, fanout=32)
            torus = Torus(num_ports=ports, ports_per_server=1)
            out.append({"ports": ports, "fly": fly.total_servers(),
                        "torus": torus.total_servers()})
        return out

    rows = benchmark(run)
    save_result("ablation_topology", format_table(
        rows, ["ports", "fly", "torus"],
        title="Ablation: fly vs torus cluster sizes"))
    for row in rows:
        assert row["torus"] > row["fly"]
    mesh = FullMesh(num_ports=32, ports_per_server=1, fanout=32)
    assert mesh.total_servers() == 32  # no intermediates at all


def test_resequencing_alternative(benchmark, save_result):
    """The option the paper rejected (Sec. 6.1): sequence numbers plus
    output-node resequencing kill reordering entirely, but cost buffer
    space and CPU at the output node -- which is why flowlets won."""

    def run():
        gen_args = dict(num_flows=60, packets_per_flow=200, packet_bytes=740,
                        burst_size=8, burst_gap_sec=1e-4,
                        intra_burst_gap_sec=4e-7, seed=1)
        out = []
        for label, kwargs in (
                ("per-packet", dict(use_flowlets=False)),
                ("flowlets", dict(use_flowlets=True)),
                ("resequencer", dict(use_flowlets=False, resequence=True))):
            gen = FlowGenerator(**gen_args)
            report = RouteBricksRouter(seed=3, **kwargs).replay_pair(
                gen.timed_packets())
            out.append({"mode": label,
                        "reordered_pct": report.reordered_fraction * 100,
                        "held_packets": report.resequencer_held,
                        "p99_latency_usec":
                            report.latency_usec.percentile(99)})
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_resequencer", format_table(
        rows, ["mode", "reordered_pct", "held_packets", "p99_latency_usec"],
        title="Ablation: reordering-avoidance alternatives",
        float_format="%.3f"))
    by_mode = {row["mode"]: row for row in rows}
    assert by_mode["resequencer"]["reordered_pct"] == 0.0
    assert by_mode["resequencer"]["held_packets"] > 0
    assert by_mode["flowlets"]["reordered_pct"] < \
        by_mode["per-packet"]["reordered_pct"]


def test_queue_count_sufficiency(benchmark):
    """With m cores, m queues per port let every core read/write any port
    without sharing (Sec. 4.2); fewer queues force sharing."""
    from repro.hw import nehalem_server

    def run():
        enough = nehalem_server(num_ports=4, queues_per_port=8)
        short = nehalem_server(num_ports=4, queues_per_port=2)
        return enough, short

    enough, short = benchmark(run)
    cores = len(enough.cores)
    for port in enough.ports:
        assert port.num_queues >= cores  # one queue per core available
    assert any(port.num_queues < cores for port in short.ports)
