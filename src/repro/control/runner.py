"""End-to-end live-churn experiment: forwarding under FIB updates.

This is the control-plane counterpart of the fault-injection harness: it
builds an N-node cluster with a :class:`~repro.core.control.ClusterManager`,
announces a synthetic RIB (the same DFZ prefix-length mix as
:func:`~repro.routing.rib_gen.generate_rib`, up to full-Internet scale),
pushes initial FIBs, and then runs forwarding traffic *while* a
:class:`~repro.control.churn.ChurnSchedule` streams announce/withdraw
updates through the manager into every node's live ``Dir24_8`` table --
incremental insert/remove on the simulation clock, never a rebuild.

The result reports convergence (mean / max / final lag from update
arrival to full FIB distribution), forwarding statistics including the
latency tail during churn, and a post-run consistency verdict: every
node's table is probed against an independently built binary-trie
reference of the master RIB.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.control import ClusterManager
from ..core.router import RouteBricksRouter, SimulationReport
from ..errors import ConfigurationError
from ..net.packet import Packet
from ..results import RunResult
from ..routing.rib_gen import generate_prefixes
from ..routing.trie import BinaryTrie
from .churn import ChurnSchedule
from .driver import DEFAULT_SYNC_INTERVAL_SEC, ChurnDriver

#: A full-Internet-scale synthetic RIB.  The 2009 DFZ held ~300 K
#: prefixes; 1 M is the headroom figure the generator is sized for.
#: Experiments default far smaller -- pass ``routes=INTERNET_RIB_ENTRIES``
#: to run at full scale.
INTERNET_RIB_ENTRIES = 1_000_000


def announce_rib(manager: ClusterManager, num_entries: int,
                 seed: int = 1) -> int:
    """Announce a synthetic RIB into ``manager``, round-robin over its
    ports; returns the resulting master version."""
    ports = manager.ports()
    if not ports:
        raise ConfigurationError("manager has no ports to announce on")
    for i, prefix in enumerate(generate_prefixes(num_entries, seed)):
        manager.announce(prefix, ports[i % len(ports)])
    return manager.rib_version


def build_cluster(num_nodes: int = 4,
                  seed: int = 0) -> Tuple[RouteBricksRouter, ClusterManager]:
    """An N-node router plus a manager with one external port per node."""
    router = RouteBricksRouter(num_nodes=num_nodes, seed=seed)
    manager = ClusterManager(port_rate_bps=router.port_rate_bps)
    for port in range(num_nodes):
        manager.add_node(external_port=port)
    return router, manager


def probe_addresses(manager: ClusterManager, num: int, seed: int = 2,
                    hit_fraction: float = 0.9) -> List[int]:
    """Deterministic probe addresses: mostly host-randomized picks from
    the master RIB, the rest uniform (likely misses)."""
    rng = random.Random(seed)
    prefixes = list(manager.rib)
    probes = []
    for _ in range(num):
        if prefixes and rng.random() < hit_fraction:
            prefix = prefixes[rng.randrange(len(prefixes))]
            host_bits = 32 - prefix.length
            probes.append(prefix.network.value
                          | (rng.getrandbits(host_bits) if host_bits else 0))
        else:
            probes.append(rng.getrandbits(32))
    return probes


def verify_fibs(manager: ClusterManager, probes: Sequence[int]) -> bool:
    """Every live node's (incrementally updated) FIB matches an
    independently built trie reference of the master RIB on ``probes``.

    The reference excludes routes whose owner is dead or removed, the
    same rule :meth:`ClusterManager.build_fib` applies -- but it is a
    plain :class:`BinaryTrie`, so a bug in the DIR-24-8 update path
    cannot hide in both sides of the comparison.
    """
    live = set(manager.live_nodes())
    reference = BinaryTrie()
    for prefix, port in manager.rib.items():
        owner = manager.owner_of(port)
        if owner is None or owner not in live:
            continue
        reference.insert(prefix, owner)
    for node_id in sorted(live):
        fib = manager.fib_of(node_id)
        for probe in probes:
            route = fib.lookup(probe)
            got = None if route is None else route.port
            if got != reference.lookup(probe):
                return False
    return True


@dataclass(frozen=True)
class ChurnReport(RunResult):
    """Outcome of one :func:`run_churn` experiment."""

    _summary_fields = ("routes", "updates_applied", "update_rate_per_sec",
                       "mean_convergence_usec", "final_convergence_usec",
                       "consistent")

    nodes: int
    routes: int
    duration_sec: float
    #: Mean offered update rate over the schedule's span.
    update_rate_per_sec: float
    updates_offered: int
    updates_applied: int
    announced: int
    reannounced: int
    withdrawn: int
    skipped: int
    #: Per-node FIB insert/remove operations replayed from the journal.
    fib_ops: int
    rebuilds: int
    sync_ticks: int
    mean_convergence_sec: float
    max_convergence_sec: float
    #: Lag from the last update to full distribution (NaN if the run
    #: ended before the final sync tick).
    final_convergence_sec: float
    unconverged: int
    #: Post-run: all live FIBs match the trie reference on the probes.
    consistent: bool
    verified_probes: int
    forwarding: SimulationReport

    @property
    def mean_convergence_usec(self) -> float:
        return self.mean_convergence_sec * 1e6

    @property
    def final_convergence_usec(self) -> float:
        return self.final_convergence_sec * 1e6


def run_churn(num_nodes: int = 4, *,
              routes: int = 20_000,
              update_rate_per_sec: float = 200_000.0,
              duration_sec: float = 2e-3,
              burst: Optional[Tuple[int, float, int]] = None,
              load: float = 0.2,
              packet_bytes: int = 256,
              hit_fraction: float = 0.95,
              sync_interval_sec: float = DEFAULT_SYNC_INTERVAL_SEC,
              tail_sec: float = 1e-3,
              faults=None,
              seed: int = 0,
              verify_probes: int = 256,
              metrics=None,
              schedule: Optional[ChurnSchedule] = None) -> ChurnReport:
    """Forward traffic through an ``num_nodes``-node cluster while the
    control plane streams RIB churn into the live per-node FIBs.

    ``burst`` switches the schedule from Poisson measured-rate to storm
    shape: ``(burst_updates, interval_sec, bursts)``.  ``faults``
    optionally scripts node/link failures on the same clock, so a single
    run exercises link-cut -> reroute -> FIB push -> convergence.
    ``schedule`` overrides the generated churn stream entirely.

    Deterministic for a given ``seed``: two runs yield bit-identical
    reports.
    """
    if routes < 1:
        raise ConfigurationError("need at least one route")
    if load <= 0 or duration_sec <= 0:
        raise ConfigurationError("load and duration must be positive")
    router, manager = build_cluster(num_nodes, seed=seed)
    announce_rib(manager, routes, seed=seed + 1)
    manager.push_fibs()

    if schedule is None:
        if burst is not None:
            burst_updates, interval_sec, bursts = burst
            schedule = ChurnSchedule.bursts(
                manager.rib, burst_updates=burst_updates,
                interval_sec=interval_sec, bursts=bursts,
                num_ports=num_nodes, seed=seed + 2)
        else:
            schedule = ChurnSchedule.measured_rate(
                manager.rib, rate_per_sec=update_rate_per_sec,
                duration_sec=duration_sec, num_ports=num_nodes,
                seed=seed + 2)
    driver = ChurnDriver(manager, schedule,
                         sync_interval_sec=sync_interval_sec,
                         metrics=metrics)

    # Traffic: destinations sampled from the initial RIB (host bits
    # randomized), evenly paced to the offered load, ingress round-robin.
    # Egress is None -- with route_via_fib the ingress node resolves it
    # from its live FIB at arrival time.  As ``matrix_events`` does, each
    # packet carries its flow's one FiveTuple and a per-flow sequence
    # number counted from 1, which the reordering meter reads.
    per_node_pps = load * router.port_rate_bps / (8.0 * packet_bytes)
    num_packets = max(1, int(per_node_pps * num_nodes * duration_sec))
    spacing = duration_sec / num_packets
    rng = random.Random(seed + 3)
    prefixes = list(manager.rib)
    flows = {}      # (src, dst) -> [flow key, packets so far]
    events = []
    for i in range(num_packets):
        if rng.random() < hit_fraction:
            prefix = prefixes[rng.randrange(len(prefixes))]
            host_bits = 32 - prefix.length
            dst = prefix.network.value | (
                rng.getrandbits(host_bits) if host_bits else 0)
        else:
            dst = rng.getrandbits(32)
        src = (10 << 24) | (i & 0xFFFF)
        packet = Packet.udp(src, dst, length=packet_bytes)
        flow = flows.get((src, dst))
        if flow is None:
            flow = flows[src, dst] = [packet.five_tuple(), 0]
        flow[1] += 1
        packet.flow_key, packet.flow_seq = flow
        events.append((i * spacing, i % num_nodes, None, packet))

    horizon = duration_sec + max(tail_sec, 2 * sync_interval_sec)
    forwarding = router.simulate(events, until=horizon,
                                 manager=manager, faults=faults,
                                 route_via_fib=True, churn=driver,
                                 metrics=metrics)

    probes = probe_addresses(manager, verify_probes, seed=seed + 4)
    consistent = verify_fibs(manager, probes)

    return ChurnReport(
        nodes=num_nodes,
        routes=routes,
        duration_sec=duration_sec,
        update_rate_per_sec=schedule.mean_rate_per_sec,
        updates_offered=driver.updates_offered,
        updates_applied=driver.updates_applied,
        announced=driver.announced,
        reannounced=driver.reannounced,
        withdrawn=driver.withdrawn,
        skipped=driver.skipped,
        fib_ops=driver.fib_ops,
        rebuilds=driver.rebuilds,
        sync_ticks=driver.sync_ticks,
        mean_convergence_sec=driver.mean_convergence_sec,
        max_convergence_sec=driver.convergence_max,
        final_convergence_sec=driver.final_convergence_sec,
        unconverged=driver.unconverged,
        consistent=consistent,
        verified_probes=len(probes),
        forwarding=forwarding,
    )
