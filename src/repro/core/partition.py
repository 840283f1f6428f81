"""The cluster builder: one shard of a cluster simulation, and the merge.

:class:`ClusterPartition` is the only code that wires and accounts a
packet-level run of a :class:`~repro.core.router.RouteBricksRouter`
cluster.  The one epoch loop, :func:`repro.parallel.runner
.run_partitions`, builds one that owns every node (``router.simulate``)
or several, each owning a contiguous node range.  Ownership decides
two things only: a directed cable is a
:class:`~repro.simnet.links.Link` when its receive side is local and a
:class:`~repro.simnet.partition.CrossLink` when it is not, and features
that act on the whole cluster from inside one event queue need a
partition that owns every node (see :class:`PartitionSpec`).

Node seeds come from the :func:`~repro.simnet.rng.node_seeds` chain, so
node ``i`` rolls identical dice no matter how the cluster is sharded.
Everything a partition measures lands in a picklable
:class:`PartitionFragment`; :func:`merge_fragments` folds fragments into
one :class:`~repro.core.router.SimulationReport` in partition-id order,
so merged scalars are bit-identical run to run and -- for fault-free
runs -- at any partition count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from ..net.addresses import MACAddress
from ..net.packet import Packet, WIRE_FORMAT
from ..obs.hooks import ClusterObserver
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TRACE_ANNOTATION
from ..simnet.links import Link
from ..simnet.partition import Partition
from ..simnet.rng import node_seeds
from ..simnet.stats import Histogram
from ..units import usec
from ..workloads.spec import WorkloadSpec
from .latency import server_latency_usec
from .node import ClusterNode
from .reordering import ReorderingMeter
from .resequencer import Resequencer
from .router import (LINK_BUSY_THRESHOLD_SEC, RESEQUENCE_TIMEOUT_SEC,
                     SimulationReport)


#: Owned arrivals of a replayed workload filed at a time: what a
#: partition holds of the stream beyond what is in flight.
ARRIVAL_CHUNK = 1024


def empty_registry_like(registry: MetricsRegistry) -> MetricsRegistry:
    """A fresh registry shaped like ``registry``: what a partition that
    cannot charge the caller's directly (another process, or one of
    several) charges instead, and ships back in its fragment."""
    fresh = MetricsRegistry(
        enabled=registry.enabled,
        timeline_bin_sec=registry.timeline_bin_sec,
        trace_sample_every=registry.tracer.sample_every,
        profile=registry.profiler is not None)
    fresh.tracer.max_traces = registry.tracer.max_traces
    return fresh


def _check_nodes(ingress, egress, n: int, route_via_fib: bool) -> None:
    """Refuse an arrival whose nodes are not the cluster's -- FIB-routed
    runs ignore ``egress``."""
    if not 0 <= ingress < n:
        raise ConfigurationError("bad ingress node %r" % ingress)
    if not route_via_fib and not 0 <= egress < n:
        raise ConfigurationError("bad egress node %r" % egress)


def range_checked(events, n: int, route_via_fib: bool):
    """``events``, each ``(time, ingress, egress, packet)`` range-checked
    as it is consumed: how a caller's list is dealt out to several
    partitions, each checked before it is indexed by owner."""
    for event in events:
        _check_nodes(event[1], event[2], n, route_via_fib)
        yield event


def checked_horizon(until) -> None:
    """Refuse a horizon that is not a positive finite number: ``nan``
    compares false against everything (the run would never reach it) and
    ``inf`` makes a replayed workload an endless stream."""
    if until is None or not 0 < until < float("inf"):
        raise ConfigurationError(
            "a run needs a finite, positive horizon, not until=%r" % until)


def checked_inputs(router, events, until, faults,
                   route_via_fib: bool = False):
    """The one input check of a cluster run: ``(workload, arrivals,
    faults)``.

    A :class:`~repro.workloads.WorkloadSpec` is checked against the
    cluster and the horizon and comes back as ``workload``, for the
    partitions to replay (``arrivals`` is then empty; nothing is realized
    here).  Any other ``events`` comes back as ``arrivals``, as it is:
    whoever consumes it checks each event's nodes then (the partition
    filing it, or :func:`range_checked` dealing it out).  The fault
    schedule comes back coerced from its dict form and validated against
    the cluster size.  The horizon must
    pass :func:`checked_horizon`, except that an event list may run
    open-ended (``until=None``).  A node id must fit one MAC byte.
    """
    n = router.num_nodes
    if n > MACAddress.NODE_ID_MASK + 1:
        raise ConfigurationError(
            "a packet-level run encodes the output node in one MAC byte: "
            "at most %d nodes, not %d" % (MACAddress.NODE_ID_MASK + 1, n))
    workload = None
    if isinstance(events, WorkloadSpec):
        workload, events = events, ()
        if workload.matrix is None:
            raise ConfigurationError(
                "workload %r has no traffic matrix; use with_matrix()"
                % workload.name)
        if workload.matrix.n != n:
            raise ConfigurationError(
                "workload matrix is %dx%d but the cluster has %d nodes"
                % (workload.matrix.n, workload.matrix.n, n))
    if until is not None or workload is not None:
        checked_horizon(until)
    if faults is not None:
        # Here, so a fault-free call never loads the faults package.
        from ..faults.schedule import FaultSchedule
        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule.from_dict(faults)
        faults.validate(n)
    return workload, events, faults


@dataclass(frozen=True)
class PartitionSpec:
    """Everything needed to build and drive one partition.

    The traffic is ``workload`` -- a validated
    :class:`~repro.workloads.WorkloadSpec` the partition itself replays
    over ``until``, building packets (ids ``packet_id_base`` + position
    in the stream) for its own ingress nodes only -- plus ``arrivals``,
    any iterable of checked ``(time, ingress, egress, packet)`` with
    live packets for this partition's ingress nodes (a caller's event
    list, split by owner).  A spec shipped to a worker is fully
    picklable, and a few kilobytes whatever the horizon when the
    traffic is a workload: the router carries only plain configuration
    and the fault schedule is shared data every partition filters for
    itself.

    With ``observe`` the partition has an observer, which the epoch loop
    samples between advances (:meth:`ClusterPartition.sample_barrier`)
    at the ticks of :func:`~repro.obs.hooks.next_tick`.
    """

    router: object                      # RouteBricksRouter
    assignment: Tuple[int, ...]         # node id -> partition id
    partition_id: int
    #: What the partition charges -- always explicit (possibly disabled):
    #: a partition must never fall back to the process-global active
    #: registry, which in an inline run would be the parent's.
    registry: MetricsRegistry
    rate_limited_egress: bool = False
    faults: Optional[object] = None     # FaultSchedule
    manager: Optional[object] = None    # ClusterManager
    detection_latency_sec: Optional[float] = None
    fib_push_latency_sec: float = 0.0
    route_via_fib: bool = False
    churn: Optional[object] = None      # armable, e.g. ChurnDriver
    workload: Optional[object] = None   # WorkloadSpec
    until: Optional[float] = None
    packet_id_base: int = 0
    arrivals: Iterable[tuple] = ()
    observe: bool = False
    observer_interval_sec: float = 1e-4

    def __post_init__(self):
        if self.route_via_fib and self.manager is None:
            raise ConfigurationError(
                "route_via_fib needs a ClusterManager supplying per-node "
                "FIBs (manager=...)")
        whole_cluster = [name for name, used in (
            ("manager", self.manager is not None),
            ("route_via_fib", self.route_via_fib),
            ("churn", self.churn is not None),
            ("router.resequence", self.router.resequence)) if used]
        if whole_cluster and set(self.assignment) != {self.partition_id}:
            # A manager reacts to every node, FIB lookups and churn share
            # tables across all of them, and the resequencer's expiry
            # chain re-arms on "anything pending anywhere": none of that
            # survives a node living in another event queue.
            raise ConfigurationError(
                "%s needs one partition that owns every node; run "
                "workers=1" % ", ".join(whole_cluster))


@dataclass
class PartitionFragment:
    """One partition's share of the run results (picklable)."""

    partition_id: int
    #: Arrivals seen, complete once the run has pulled the last one: the
    #: whole run's when a workload is replayed (foreign ones come with
    #: no packet and are only counted), else this partition's share.
    offered_packets: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    direct_packets: int = 0
    indirect_packets: int = 0
    #: Latency observations in local egress order; every scalar the
    #: merged histogram reports is multiset-determined.
    latency_usec: Histogram = field(default_factory=Histogram)
    reordered_sequences: int = 0
    reorder_packets: int = 0
    dropped_packets: int = 0
    fib_miss_packets: int = 0
    resequencer_held: int = 0
    resequencer_timeouts: int = 0
    node_stats: List[dict] = field(default_factory=list)
    flowlet_switches: int = 0
    flowlet_spills: int = 0
    fault_events: int = 0
    fault_flushed_packets: int = 0
    convergence: List = field(default_factory=list)
    events_run: int = 0
    registry: Optional[MetricsRegistry] = None


class ClusterPartition(Partition):
    """The live simulation island for one :class:`PartitionSpec`.

    Construction order (mesh, fault injector, churn,
    egress accounting, resequencers, arrivals, observer) is the order
    events are scheduled in, and so the tie-break among events at equal
    simulated times; it must not depend on how the cluster is sharded.
    """

    packet_format = WIRE_FORMAT

    def __init__(self, spec: PartitionSpec):
        router = spec.router
        self.spec = spec
        registry = self.registry = spec.registry
        super().__init__(spec.partition_id, metrics=registry,
                         assignment=spec.assignment)
        # What ClusterNode.receive_internal waits before doing anything
        # another event can see -- from the same calls it makes, so the
        # window cannot drift from the model (and if it did, the late
        # delivery's run_as_of raises).
        self.receive_delay_sec = usec(min(
            server_latency_usec("intermediate"),
            server_latency_usec("output")))
        sim = self.sim
        n = router.num_nodes
        seeds = node_seeds(router.seed, n)
        self.nodes: Dict[int, ClusterNode] = {
            i: ClusterNode(
                node_id=i, sim=sim, num_nodes=n,
                rng=random.Random(seeds[i]),
                use_flowlets=router.use_flowlets,
                link_busy_threshold_sec=LINK_BUSY_THRESHOLD_SEC,
                metrics=registry)
            for i in range(n) if spec.assignment[i] == spec.partition_id}
        for src_id, src in self.nodes.items():
            for dst_id in range(n):
                if dst_id == src_id:
                    continue
                name = "link-%d-%d" % (src_id, dst_id)
                if dst_id in self.nodes:
                    link = Link(sim, name=name,
                                rate_bps=router.internal_link_bps,
                                deliver=self.nodes[dst_id].receive_internal,
                                propagation_sec=router.propagation_sec)
                else:
                    link = self.cross_link(
                        name, router.internal_link_bps, src_id, dst_id,
                        propagation_sec=router.propagation_sec)
                src.connect(dst_id, link)
        for node_id, node in self.nodes.items():
            self.register_destination(node_id, node.receive_wire)
            if spec.rate_limited_egress:
                node.egress_link = Link(
                    sim, name="ext-%d" % node_id,
                    rate_bps=router.port_rate_bps,
                    deliver=node._egress_done,
                    queue_packets=256)

        self.injector = None
        if spec.faults is not None:
            from ..faults.inject import (DEFAULT_DETECTION_LATENCY_SEC,
                                         FaultInjector)
            self.injector = FaultInjector(
                sim, self.nodes.values(), spec.faults,
                manager=spec.manager,
                detection_latency_sec=(
                    DEFAULT_DETECTION_LATENCY_SEC
                    if spec.detection_latency_sec is None
                    else spec.detection_latency_sec),
                fib_push_latency_sec=spec.fib_push_latency_sec,
                num_nodes=n)
        if spec.churn is not None:
            spec.churn.arm(sim)

        frag = self.fragment = PartitionFragment(spec.partition_id)
        self.meter = ReorderingMeter()
        self.resequencers: List[Resequencer] = []
        on_egress = self._egress_accounting()
        if router.resequence:
            self._attach_resequencers(on_egress)
        else:
            for node in self.nodes.values():
                node.egress_callback = on_egress

        if spec.route_via_fib:
            fib_of = spec.manager.fib_of

            def admit(node, packet, _egress):
                # The egress node is whatever the ingress node's *own*
                # FIB says right now -- churn applied on the simulation
                # clock changes the answer mid-run.
                route = fib_of(node.node_id).lookup(int(packet.ip.dst))
                if route is None:
                    frag.fib_miss_packets += 1
                    node._count_drop("fib_miss")
                    return
                node.ingress(packet, route.port)
        else:
            admit = ClusterNode.ingress

        # A caller's list is resident already and need not be sorted:
        # one chunk, filed now.  A workload is replayed as the clock
        # reaches it: the queue holds what is in flight, not the horizon.
        arrivals, chunk = spec.arrivals, None
        if spec.workload is not None:
            arrivals, chunk = spec.workload.events(
                spec.until, owned=self.nodes,
                id_base=spec.packet_id_base), ARRIVAL_CHUNK
        nodes, any_egress = self.nodes, spec.route_via_fib

        def arrival_timers():
            # The one pass over the stream: each arrival is range-checked
            # and counted as it is consumed, and an owned one becomes
            # its ingress node's timer.
            for time, ingress, egress, packet in arrivals:
                if not (0 <= ingress < n and (any_egress or 0 <= egress < n)):
                    _check_nodes(ingress, egress, n, any_egress)
                frag.offered_packets += 1
                if packet is not None:
                    yield time, partial(admit, nodes[ingress], packet, egress)

        timers = arrival_timers()
        sim.schedule_stream(iter(lambda: list(islice(timers, chunk)), []))

        self.observer = ClusterObserver(
            sim, list(self.nodes.values()), registry,
            interval_sec=spec.observer_interval_sec) if spec.observe else None

    def _egress_accounting(self):
        """The per-delivered-packet accounting callback."""
        frag, meter, spec = self.fragment, self.meter, self.spec
        observe_latency = frag.latency_usec.observe
        # Forwarding-latency tail timeline, recorded only for control-
        # plane runs (churn / FIB-routed), so plain runs keep the metric
        # set their sharded twins have.
        latency_tl = None
        if self.registry.enabled and (spec.route_via_fib
                                      or spec.churn is not None):
            latency_tl = self.registry.timeline(
                "cluster_latency_usec",
                bin_sec=spec.observer_interval_sec,
                help="end-to-end forwarding latency during churn "
                     "(max per bin = the tail)").bind()

        def on_egress(packet: Packet, now: float) -> None:
            frag.delivered_packets += 1
            frag.delivered_bytes += packet.length
            meter.observe(packet)
            latency = (now - packet.arrival_time) * 1e6   # usec
            observe_latency(latency)
            if latency_tl is not None:
                latency_tl(now, latency)
            if len(packet.path) <= 2:
                frag.direct_packets += 1
            else:
                frag.indirect_packets += 1

        return on_egress

    def _attach_resequencers(self, on_egress) -> None:
        """The rejected alternative (Sec. 6.1): buffer out-of-order
        arrivals at the output node and release flows in order."""
        sim, registry = self.sim, self.registry

        def make_callback(node):
            def deliver(packet: Packet) -> None:
                if registry.enabled:
                    # Attribute the hold time before crediting egress:
                    # the reorder buffer is a latency stage of its own.
                    if node._prof_frames is not None:
                        node._prof_frames["reorder"](packet)
                    trace = packet.annotations.get(TRACE_ANNOTATION)
                    if trace is not None:
                        trace.hop("reorder.release", sim.now)
                on_egress(packet, sim.now)

            reseq = Resequencer(deliver=deliver,
                                timeout_sec=RESEQUENCE_TIMEOUT_SEC)
            self.resequencers.append(reseq)

            def callback(packet: Packet, now: float) -> None:
                reseq.offer(packet.five_tuple(), packet, now)

            return callback

        for node in self.nodes.values():
            node.egress_callback = make_callback(node)

        def expire_all():
            for reseq in self.resequencers:
                reseq.expire(sim.now)
            if sim.peek_time() is not None:
                sim.schedule_timer(RESEQUENCE_TIMEOUT_SEC / 2, expire_all)

        sim.schedule_timer(RESEQUENCE_TIMEOUT_SEC / 2, expire_all)

    def sample_barrier(self) -> None:
        """Take the observer sample of a tick the partition was just
        advanced to.  A single heap would have run one tick event there;
        partition 0 books its sample as that event (clock, profiler event
        boundary, ``events_run``, ``sim_events``), so the merged counts
        are the single heap's at any partition count."""
        if self.spec.partition_id == 0:
            self.sim.run_as_of(self.sim.now, self.observer.sample)
        else:
            self.observer.sample()

    def finish(self) -> PartitionFragment:
        """Close the books and hand over the results."""
        spec, frag = self.spec, self.fragment
        if spec.churn is not None:
            spec.churn.finalize()
        for reseq in self.resequencers:
            # Final flush: release anything still held back.
            reseq.expire(self.sim.now + RESEQUENCE_TIMEOUT_SEC * 2)
            frag.resequencer_held += reseq.held
            frag.resequencer_timeouts += reseq.timed_out
        frag.reordered_sequences = self.meter.reordered_count()
        frag.reorder_packets = self.meter.packets_observed()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            # node.dropped already counts failed sends on both internal
            # links and the external line (the link's own drop counter
            # double-books the same event, so it is not summed here).
            # Fault flushes land in node.dropped too, so the injector
            # counter is informational.
            frag.dropped_packets += node.dropped
            frag.node_stats.append({
                "node": node.node_id,
                "ingress": node.ingress_packets,
                "egress": node.egress_packets,
                "intermediate": node.intermediate_packets,
            })
            if node.flowlets is not None:
                frag.flowlet_switches += node.flowlets.switches
                frag.flowlet_spills += node.flowlets.spills
        frag.events_run = self.sim.events_run
        if self.injector is not None:
            log = self.injector.log
            frag.fault_events = log.events_applied
            frag.fault_flushed_packets = log.flushed_packets
            frag.convergence = list(log.convergence)
            # Node events a non-owner injector ran only to keep its
            # books: without them the merged count is the single heap's.
            frag.events_run -= log.shadow_events
        if self.registry.enabled:
            frag.registry = self.registry
        return frag


def merge_fragments(fragments: List[PartitionFragment], *,
                    offered_packets: int, duration_sec: float,
                    workers: int, epochs: int,
                    registry: Optional[MetricsRegistry] = None) \
        -> SimulationReport:
    """Fold partition fragments into one :class:`SimulationReport`.

    Fragments are processed in partition-id order, so every sum, the
    latency histogram's backing multiset, and the merged metrics
    registry come out identical regardless of which worker finished
    first.  When ``registry`` is given, each fragment's worker-local
    registry is merged into it.

    This is the one place a report is assembled, so it is also where
    packet conservation is enforced: a run that delivered and dropped
    more than it was offered raises instead of reporting.
    """
    report = SimulationReport()
    report.offered_packets = offered_packets
    report.duration_sec = duration_sec
    report.workers = workers
    report.epochs = epochs
    reordered = 0
    reorder_packets = 0
    for frag in sorted(fragments, key=lambda f: f.partition_id):
        report.delivered_packets += frag.delivered_packets
        report.delivered_bytes += frag.delivered_bytes
        report.direct_packets += frag.direct_packets
        report.indirect_packets += frag.indirect_packets
        report.latency_usec.extend(frag.latency_usec)
        reordered += frag.reordered_sequences
        reorder_packets += frag.reorder_packets
        report.dropped_packets += frag.dropped_packets
        report.fib_miss_packets += frag.fib_miss_packets
        report.resequencer_held += frag.resequencer_held
        report.resequencer_timeouts += frag.resequencer_timeouts
        report.node_stats.extend(frag.node_stats)
        report.flowlet_switches += frag.flowlet_switches
        report.flowlet_spills += frag.flowlet_spills
        report.fault_events += frag.fault_events
        report.fault_flushed_packets += frag.fault_flushed_packets
        report.convergence.extend(frag.convergence)
        report.events_run += frag.events_run
        if registry is not None and frag.registry is not None:
            registry.merge(frag.registry)
    report.node_stats.sort(key=lambda row: row["node"])
    report.reordered_fraction = (reordered / reorder_packets
                                 if reorder_packets else 0.0)
    # ``dropped_packets`` already contains FIB misses (the ingress node
    # books them as a drop cause).
    if (report.delivered_packets + report.dropped_packets
            > report.offered_packets
            or report.fib_miss_packets > report.dropped_packets):
        raise SimulationError(
            "packet conservation violated: offered %d, delivered %d, "
            "dropped %d (of which FIB misses %d)"
            % (report.offered_packets, report.delivered_packets,
               report.dropped_packets, report.fib_miss_packets))
    return report
