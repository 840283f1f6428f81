"""The RouteBricks cluster router: RB4 and beyond.

Two complementary views:

* :meth:`RouteBricksRouter.max_throughput` -- the analytic operating point:
  per-node CPU budget against the VLB workload (ingress routing + egress
  forwarding + intermediate forwarding + reordering-avoidance overhead)
  and the per-NIC payload ceiling.  Reproduces RB4's 12 Gbps (64 B) and
  35 Gbps (Abilene) results (Sec. 6.2).
* :meth:`RouteBricksRouter.simulate` -- the packet-level DES: full-mesh
  links, Direct VLB with flowlets (or per-packet balancing), per-role
  latencies; measures reordering, latency, loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .. import calibration as cal
from ..costs import DEFAULT_CONFIG, ServerConfig
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..net.packet import Packet
from ..obs.metrics import active_registry
from ..results import RunResult
from ..simnet.engine import Simulator
from ..simnet.stats import Histogram
from ..units import gbps, rate_pps_to_bps
from .node import ClusterNode

#: Effective per-NIC payload limit observed in cluster operation
#: (Sec. 6.2: the external-line NIC sustains ~8.75 Gbps external + ~3 Gbps
#: internal = 11.67 Gbps, slightly under the 12.3 Gbps single-direction
#: traffic-generation figure because both ports move payload and
#: descriptors concurrently).
RB4_NIC_EFFECTIVE_BPS = gbps(11.67)

#: How long a resequencer holds a flow's packet back waiting for its
#: predecessors (the rejected Sec. 6.1 alternative, ``resequence=True``).
RESEQUENCE_TIMEOUT_SEC = 1e-3

#: Transmit backlog at which a node deems an internal link busy and
#: detours through an intermediate (Direct VLB's local load check).
LINK_BUSY_THRESHOLD_SEC = 50e-6

#: Cable propagation delay on every internal link; it is also one term
#: of a partitioned run's conservative-lookahead window (see
#: :mod:`repro.parallel`), since cross-partition packets cannot arrive
#: sooner than this after leaving their source.
PROPAGATION_SEC = 1e-6


@dataclass(frozen=True)
class ClusterThroughput(RunResult):
    """Analytic throughput of the cluster for one workload."""

    _summary_fields = ("aggregate_gbps", "per_port_bps", "binding")

    aggregate_bps: float
    per_port_bps: float
    binding: str                      # "cpu" | "nic" | "link"
    cycles_per_ingress_packet: float
    limits_bps: Dict[str, float]

    @property
    def aggregate_gbps(self) -> float:
        return self.aggregate_bps / 1e9


@dataclass
class SimulationReport(RunResult):
    """Results of a packet-level cluster run."""

    _summary_fields = ("offered_packets", "delivered_packets",
                       "dropped_packets", "reordered_fraction")

    offered_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    reordered_fraction: float = 0.0
    latency_usec: Histogram = field(default_factory=Histogram)
    direct_packets: int = 0
    indirect_packets: int = 0
    flowlet_switches: int = 0
    flowlet_spills: int = 0
    resequencer_held: int = 0
    resequencer_timeouts: int = 0
    node_stats: List[dict] = field(default_factory=list)
    delivered_bytes: int = 0
    duration_sec: float = 0.0
    fault_events: int = 0
    fault_flushed_packets: int = 0
    convergence: List = field(default_factory=list)
    #: Packets whose destination had no route in the ingress node's FIB
    #: at arrival time (only populated by FIB-routed runs, where the
    #: egress node is resolved by a live per-node lookup instead of
    #: being precomputed -- see ``route_via_fib``).
    fib_miss_packets: int = 0
    #: How the run was executed: worker partitions, conservative-
    #: lookahead epochs and DES events across all partitions (one
    #: partition reports workers=1 and epochs=0).
    workers: int = 1
    epochs: int = 0
    events_run: int = 0
    #: Where a partitioned run's host time went, by partition id (this
    #: report is its only home; empty, or 0, for one partition): CPU
    #: seconds advancing the event loop (``max`` is the critical path),
    #: CPU seconds being built (build only: arrivals are realized inside
    #: busy, as the epochs reach them), and wall seconds stalled at
    #: barriers (``busy + wait`` approximates the wall clock under the
    #: process backend).
    partition_busy_seconds: List[float] = field(default_factory=list)
    partition_setup_seconds: List[float] = field(default_factory=list)
    barrier_wait_seconds: List[float] = field(default_factory=list)
    #: Mean epoch length over the lookahead window ``W`` (1.0 = every
    #: epoch spans it), and the busiest partition's busy seconds over the
    #: mean (1.0 = perfectly balanced).
    lookahead_efficiency: float = 0.0
    load_imbalance: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        return (self.delivered_packets / self.offered_packets
                if self.offered_packets else 0.0)

    @property
    def indirect_fraction(self) -> float:
        total = self.direct_packets + self.indirect_packets
        return self.indirect_packets / total if total else 0.0

    @property
    def delivered_bps(self) -> float:
        """Goodput over the measured window (external-line bits out)."""
        return (self.delivered_bytes * 8 / self.duration_sec
                if self.duration_sec > 0 else 0.0)


class RouteBricksRouter:
    """An N-node full-mesh RouteBricks cluster (RB4 when N = 4)."""

    #: Every internal cable's delay, as the cluster builder wires it.
    propagation_sec = PROPAGATION_SEC

    def __init__(self, num_nodes: int = cal.RB4_NODES,
                 port_rate_bps: float = cal.PORT_RATE_BPS,
                 internal_link_bps: float = cal.PORT_RATE_BPS,
                 spec: ServerSpec = NEHALEM,
                 config: ServerConfig = DEFAULT_CONFIG,
                 use_flowlets: bool = True,
                 resequence: bool = False,
                 seed: int = 0):
        if num_nodes < 2:
            raise ConfigurationError("cluster needs >= 2 nodes")
        self.num_nodes = num_nodes
        self.port_rate_bps = port_rate_bps
        self.internal_link_bps = internal_link_bps
        self.spec = spec
        self.config = config
        self.use_flowlets = use_flowlets
        self.resequence = resequence
        self.seed = seed

    # -- analytic model ------------------------------------------------------

    def _cycles_per_ingress_packet(self, packet_bytes: float,
                                   indirect_fraction: float,
                                   ingress_app: cal.AppCost) -> float:
        """CPU work one ingress packet induces across the cluster, charged
        per node (symmetric traffic): the ingress application at the input
        node (full IP routing in RB4), minimal forwarding at the output
        node, minimal forwarding at an intermediate for the balanced
        share, plus flowlet bookkeeping."""
        book = cal.bookkeeping_cycles(self.config.kp, self.config.kn)
        ingress = ingress_app.cpu_cycles(packet_bytes) + book
        forwarding = cal.MINIMAL_FORWARDING.cpu_cycles(packet_bytes) + book
        overhead = cal.REORDER_AVOIDANCE_CYCLES if self.use_flowlets else 0.0
        return (ingress + forwarding
                + indirect_fraction * forwarding + overhead)

    def max_throughput(self, workload,
                       uniform: bool = True) -> ClusterThroughput:
        """Analytic loss-free throughput for a workload.

        ``workload`` is a :class:`~repro.workloads.WorkloadSpec` (its
        size mix supplies the mean packet size and its ``app`` the
        ingress application).

        With a close-to-uniform matrix and adaptive Direct VLB, per-pair
        demand R/(N-1) stays below the internal link rate, so everything
        routes directly (``indirect_fraction = 0``) -- the regime both RB4
        experiments ran in.  A worst-case matrix forces the full two-phase
        tax (one extra forwarding per packet, links carry 2R/N each way).
        """
        from ..workloads.spec import WorkloadSpec

        if not isinstance(workload, WorkloadSpec):
            raise TypeError(
                "max_throughput() takes a repro.workloads.WorkloadSpec; "
                "the bare packet-size form was removed -- use "
                "WorkloadSpec.fixed(packet_bytes)")
        packet_bytes = workload.mean_packet_bytes
        n = self.num_nodes
        indirect = 0.0 if uniform else 1.0
        cycles = self._cycles_per_ingress_packet(packet_bytes, indirect,
                                                 workload.app)
        cpu_pps = self.spec.cycles_per_second / cycles
        cpu_bps = rate_pps_to_bps(cpu_pps, packet_bytes)

        # NIC ceiling: the external-line NIC carries R (external) plus the
        # busiest internal port's share.
        if uniform:
            internal_share = 1.0 / (n - 1)     # direct mesh spreading
        else:
            internal_share = 2.0 / n           # VLB two-phase per-link load
        nic_bps = RB4_NIC_EFFECTIVE_BPS / (1.0 + internal_share)

        # Internal links must carry their share at rate R.
        link_bps = self.internal_link_bps / internal_share

        limits = {"cpu": cpu_bps, "nic": nic_bps, "link": link_bps,
                  "port": self.port_rate_bps}
        binding = min(limits, key=limits.get)
        per_port = limits[binding]
        return ClusterThroughput(
            aggregate_bps=per_port * n,
            per_port_bps=per_port,
            binding=binding,
            cycles_per_ingress_packet=cycles,
            limits_bps=limits,
        )

    # -- packet-level simulation ----------------------------------------------

    def _whole_cluster_partition(self, registry, **spec_fields):
        """The one-partition case of the cluster builder: a single
        :class:`~repro.core.partition.ClusterPartition` that owns every
        node and charges ``registry`` directly."""
        from .partition import ClusterPartition, PartitionSpec

        return ClusterPartition(PartitionSpec(
            router=self, assignment=(0,) * self.num_nodes, partition_id=0,
            registry=registry, **spec_fields))

    def build_simulation(self, rate_limited_egress: bool = False,
                         metrics=None) \
            -> Tuple[Simulator, List[ClusterNode]]:
        """Instantiate the DES: nodes plus full-mesh internal links.

        With ``rate_limited_egress`` each node's external line is a real
        R-bps link: contended outputs serialize and drop, which the
        fairness experiments need.  ``metrics`` (or an enabled active
        :mod:`repro.obs` registry) turns on per-hop latency, drop-cause,
        and link-occupancy instrumentation.
        """
        part = self._whole_cluster_partition(
            metrics if metrics is not None else active_registry(),
            rate_limited_egress=rate_limited_egress)
        return part.sim, [part.nodes[i] for i in range(self.num_nodes)]

    def simulate(self,
                 events,
                 until: Optional[float] = None,
                 rate_limited_egress: bool = False,
                 faults=None,
                 manager=None,
                 detection_latency_sec: Optional[float] = None,
                 fib_push_latency_sec: float = 0.0,
                 route_via_fib: bool = False,
                 churn=None,
                 metrics=None) -> SimulationReport:
        """Run traffic through the cluster.

        ``events`` yields (time, ingress node, egress node, packet) -- or
        is a :class:`~repro.workloads.WorkloadSpec` carrying a traffic
        matrix, which the partition realizes over the ``until`` horizon
        with packet ids numbered from one base (see
        :func:`~repro.net.packet.packet_id_floor`).  The report covers
        reordering (per the Sec. 6.2 metric), latency, goodput, and path
        statistics.

        ``faults`` scripts failures: a :class:`~repro.faults.FaultSchedule`
        (or its dict/JSON-dict form); a cable down from the start is a
        ``fail_link`` at t = 0.  Crashed nodes lose their queued and
        in-flight packets; peers detect the failure after
        ``detection_latency_sec`` and Direct VLB re-balances around it
        with local information only.
        With a :class:`~repro.core.control.ClusterManager` as
        ``manager``, node failures also trigger the control-plane
        reaction (reprovision + FIB re-push) and each reaction's
        convergence record lands in ``report.convergence``.

        ``route_via_fib`` makes forwarding consult the control plane's
        per-node FIBs *live*: each event's egress field is ignored and
        the ingress node instead looks up the packet's IP destination in
        its own FIB at arrival time, so control-plane churn applied on
        the simulation clock (``churn``) changes where packets go
        mid-run.  Destinations without a route are dropped and counted
        in ``report.fib_miss_packets``.  ``churn`` is an armable driver
        (see :class:`~repro.control.ChurnDriver`) whose scheduled
        update/sync callbacks interleave with forwarding events.

        The run is the one-partition case of the one epoch loop
        (:func:`repro.parallel.runner.run_partitions`), in this process
        and charging the caller's registry: with no cross-link, each
        advance ends at the next observer tick or at the horizon, and
        ``until=None`` runs until nothing is pending.
        """
        from ..parallel.runner import run_partitions

        return run_partitions(
            self, events, until, metrics=metrics,
            rate_limited_egress=rate_limited_egress, faults=faults,
            manager=manager, detection_latency_sec=detection_latency_sec,
            fib_push_latency_sec=fib_push_latency_sec,
            route_via_fib=route_via_fib, churn=churn)

    def replay_pair(self, timed_packets: Iterable[Tuple[float, Packet]],
                    ingress: int = 0, egress: int = 1) -> SimulationReport:
        """The Sec. 6.2 reordering setup: a whole trace through one
        input/output pair (overloading the direct path so balancing kicks
        in)."""
        events = ((time, ingress, egress, packet)
                  for time, packet in timed_packets)
        return self.simulate(events)
