"""Core-dispatch strategies for stateful NFs, benchmarked head-to-head.

Three ways to spread one stateful NF across ``n`` cores, all consuming
the *same* deterministic packet history so their end states are directly
comparable:

``locks``
    Spray packets round-robin and share one flow table.  Every access
    pays a lock acquire; packets that hit the same flow within a
    dispatch round convoy on that flow's lock (contended acquire), and
    a flow whose state line was last touched by another core pays a
    cache-coherence transfer.  Fully general, collapses under skew.

``rss``
    Pin each flow to ``queue_for_flow(key, n)``.  No sharing, no locks,
    no coherence -- but the busiest core carries the elephants, so the
    aggregate is bounded by ``1 / max-core-share``, which degrades as
    skew grows.

``scr``
    State-Compute Replication (arXiv 2309.14647): spray round-robin
    like ``locks``, but instead of sharing state, the owning core runs
    the full NF and appends a compact delta to a shared history; every
    other core *replays* the delta into its private replica.  Replay is
    far cheaper than the full computation, so aggregate throughput
    scales with cores while every replica converges to the shared-state
    outcome.

Costs are charged as the calibrated ResourceVectors of
:mod:`repro.costs.model`; throughput is the packet count divided by
the *bottleneck* core's cycle total -- the same max-core convention the
rest of the repo uses for parallel pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import calibration as cal
from ..costs.model import (coherence_vector, lock_vector, scr_encode_vector,
                           scr_replay_vector, state_access_vector)
from ..costs.vector import ResourceVector
from ..errors import ConfigurationError
from ..net.flows import FiveTuple, queue_for_flow
from ..obs.metrics import active_registry
from ..workloads.zipf_flows import PacketRecord
from .nf import StatefulNF
from .state import FlowTable, Snapshot, merge_snapshots

STRATEGIES = ("locks", "rss", "scr")

#: Record the flow-table occupancy timeline every this many packets.
TIMELINE_STRIDE = 256


@dataclass
class StrategyReport:
    """Outcome of running one NF over one history with one strategy."""

    strategy: str
    nf: str
    cores: int
    packets: int
    bytes_total: int
    core_hz: float
    #: Cycles charged to each core; the max entry is the bottleneck.
    per_core_cycles: List[float]
    #: Aggregate resource demand (all cores summed).
    resources: ResourceVector
    # state-sync counters
    lock_contended: int = 0
    coherence_transfers: int = 0
    scr_deltas: int = 0
    scr_delta_bytes: float = 0.0
    #: Packets the NF verdict dropped (policer exceed, firewall closed).
    dropped: int = 0
    #: Canonical end state (see FlowTable.snapshot).
    end_state: Snapshot = field(default_factory=dict)
    #: SCR only: did every replica converge to the same snapshot?
    replicas_identical: bool = True

    @property
    def bottleneck_cycles(self) -> float:
        return max(self.per_core_cycles) if self.per_core_cycles else 0.0

    @property
    def duration_sec(self) -> float:
        return self.bottleneck_cycles / self.core_hz

    @property
    def throughput_mpps(self) -> float:
        if self.duration_sec <= 0:
            return 0.0
        return self.packets / self.duration_sec / 1e6

    @property
    def throughput_gbps(self) -> float:
        if self.duration_sec <= 0:
            return 0.0
        return self.bytes_total * 8 / self.duration_sec / 1e9


def _observe(report: StrategyReport, records: Sequence[PacketRecord],
             table_sizes: List[float]) -> None:
    """Publish the run's counters and occupancy timeline to obs."""
    registry = active_registry()
    labels = {"strategy": report.strategy, "nf": report.nf}
    registry.counter(
        "stateful_packets",
        help="packets dispatched through the stateful NF suite",
    ).inc(report.packets, **labels)
    if report.dropped:
        registry.counter(
            "stateful_drops", help="packets dropped by NF verdict",
        ).inc(report.dropped, **labels)
    if report.lock_contended:
        registry.counter(
            "lock_contended_acquires",
            help="lock acquires that convoyed on a same-flow packet",
        ).inc(report.lock_contended, **labels)
    if report.coherence_transfers:
        registry.counter(
            "state_coherence_transfers",
            help="flow-state cache lines migrated between cores",
        ).inc(report.coherence_transfers, **labels)
    if report.scr_deltas:
        registry.counter(
            "scr_delta_messages",
            help="state deltas broadcast on the SCR history log",
        ).inc(report.scr_deltas, **labels)
        registry.counter(
            "scr_delta_bytes", help="bytes of SCR delta traffic",
        ).inc(report.scr_delta_bytes, **labels)
    timeline = registry.timeline(
        "flow_table_entries",
        help="live flow-table entries over trace time, per strategy")
    for index, size in enumerate(table_sizes):
        time = records[min(index * TIMELINE_STRIDE, len(records) - 1)].time
        timeline.record(time, size, **labels)


def _run_locks(nf: StatefulNF, records: Sequence[PacketRecord], cores: int,
               report: StrategyReport, sizes: List[float],
               rss_seed: Optional[int]) -> None:
    table = FlowTable()
    access = state_access_vector(nf.name)
    lock_free = lock_vector(contended=False)
    lock_wait = lock_vector(contended=True)
    coherence = coherence_vector()
    last_core: Dict[FiveTuple, int] = {}
    for start in range(0, len(records), cores):
        round_records = records[start:start + cores]
        seen_in_round: Dict[FiveTuple, int] = {}
        for offset, rec in enumerate(round_records):
            core = offset
            contended = rec.key in seen_in_round
            seen_in_round[rec.key] = core
            cost = access + (lock_wait if contended else lock_free)
            if contended:
                report.lock_contended += 1
            previous = last_core.get(rec.key)
            if previous is not None and previous != core:
                cost = cost + coherence
                report.coherence_transfers += 1
            last_core[rec.key] = core
            entry, verdict, _ = nf.process(table.get(rec.key), rec)
            table.put(rec.key, entry)
            if verdict != "forward":
                report.dropped += 1
            report.per_core_cycles[core] += cost.cpu_cycles
            report.resources = report.resources + cost
            if rec.seq % TIMELINE_STRIDE == 0:
                sizes.append(float(len(table)))
    report.end_state = table.snapshot()


def _run_rss(nf: StatefulNF, records: Sequence[PacketRecord], cores: int,
             report: StrategyReport, sizes: List[float],
             rss_seed: Optional[int]) -> None:
    shards = [FlowTable(name="core%d" % c) for c in range(cores)]
    access = state_access_vector(nf.name)
    for rec in records:
        if rss_seed is None:
            core = queue_for_flow(rec.key, cores)
        else:
            core = queue_for_flow(rec.key, cores, seed=rss_seed)
        shard = shards[core]
        entry, verdict, _ = nf.process(shard.get(rec.key), rec)
        shard.put(rec.key, entry)
        if verdict != "forward":
            report.dropped += 1
        report.per_core_cycles[core] += access.cpu_cycles
        report.resources = report.resources + access
        if rec.seq % TIMELINE_STRIDE == 0:
            sizes.append(float(sum(len(s) for s in shards)))
    report.end_state = merge_snapshots(*(s.snapshot() for s in shards))


def _run_scr(nf: StatefulNF, records: Sequence[PacketRecord], cores: int,
             report: StrategyReport, sizes: List[float],
             rss_seed: Optional[int]) -> None:
    replicas = [FlowTable(name="replica%d" % c) for c in range(cores)]
    access = state_access_vector(nf.name)
    encode = scr_encode_vector()
    replay = scr_replay_vector()
    owner_cost = access + encode
    for rec in records:
        owner = rec.seq % cores
        # Owner runs the full NF against its replica and publishes the
        # compact delta; process() is per-flow deterministic, so the
        # delta it emits is the one every replica needs.
        entry, verdict, args = nf.process(replicas[owner].get(rec.key), rec)
        replicas[owner].put(rec.key, entry)
        if verdict != "forward":
            report.dropped += 1
        report.per_core_cycles[owner] += owner_cost.cpu_cycles
        report.resources = report.resources + owner_cost
        report.scr_deltas += 1
        report.scr_delta_bytes += cal.SCR_DELTA_BYTES
        for core in range(cores):
            if core == owner:
                continue
            replica = replicas[core]
            replica.put(rec.key, nf.replay(replica.get(rec.key), args))
            report.per_core_cycles[core] += replay.cpu_cycles
            report.resources = report.resources + replay
        if rec.seq % TIMELINE_STRIDE == 0:
            sizes.append(float(len(replicas[0])))
    snapshots = [replica.snapshot() for replica in replicas]
    report.replicas_identical = all(s == snapshots[0] for s in snapshots[1:])
    report.end_state = snapshots[0]


_RUNNERS = {"locks": _run_locks, "rss": _run_rss, "scr": _run_scr}


def run_strategy(nf: StatefulNF, records: Sequence[PacketRecord],
                 cores: int, strategy: str,
                 core_hz: float = cal.NEHALEM_CLOCK_HZ,
                 rss_seed: Optional[int] = None) -> StrategyReport:
    """Run ``nf`` over ``records`` on ``cores`` cores with ``strategy``.

    ``records`` must be a materialized sequence (the same list can then
    be fed to every strategy for a fair comparison).  ``rss_seed``
    selects the flow-pinning hash for the ``rss`` strategy; sweeping it
    and averaging approximates the *expected* bottleneck over hash
    placements, which is what the skew curves should show rather than
    one placement's luck.
    """
    if strategy not in _RUNNERS:
        raise ConfigurationError("unknown strategy %r (have %s)"
                                 % (strategy, "/".join(STRATEGIES)))
    if cores < 1:
        raise ConfigurationError("need >= 1 core")
    if core_hz <= 0:
        raise ConfigurationError("core_hz must be positive")
    records = list(records)
    report = StrategyReport(
        strategy=strategy, nf=nf.name, cores=cores, packets=len(records),
        bytes_total=sum(rec.length for rec in records), core_hz=core_hz,
        per_core_cycles=[0.0] * cores, resources=ResourceVector())
    if not records:
        return report
    sizes: List[float] = []
    _RUNNERS[strategy](nf, records, cores, report, sizes, rss_seed)
    _observe(report, records, sizes)
    return report
