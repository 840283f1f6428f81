"""The cluster control plane: membership and FIB distribution.

The architecture's extensibility claim (Sec. 2) is that ports are added by
adding servers.  That needs a (thin) control plane: track cluster
membership, recompute the mesh wiring and port assignments when servers
join or leave, and keep every node's FIB consistent with the master RIB
(each node routes packets to *output nodes*, so all nodes must agree on
the prefix -> node mapping).  This module implements that bookkeeping with
versioned FIB snapshots and explicit consistency checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, TopologyError
from ..net.addresses import Prefix
from ..results import RunResult
from ..routing.table import Route, RoutingTable

#: Journal ops: install/refresh the prefix -> node mapping, or drop it.
FIB_SET = "set"
FIB_DEL = "del"

#: Delta-journal size cap.  When the journal outgrows this, the oldest
#: half is discarded and nodes whose FIB predates the remaining window
#: fall back to a full rebuild on their next sync.
MAX_JOURNAL_ENTRIES = 1 << 18


@dataclass(frozen=True)
class FibDelta:
    """One compiled FIB change: ``op`` is :data:`FIB_SET` (map ``prefix``
    to egress node ``node_id``) or :data:`FIB_DEL` (drop the mapping)."""

    version: int
    op: str
    prefix: Prefix
    node_id: Optional[int] = None


@dataclass(frozen=True)
class SyncResult:
    """What one node's FIB synchronization did."""

    node_id: int
    version: int          # FIB version after the sync
    ops_applied: int      # incremental deltas applied (0 if rebuilt)
    rebuilt: bool         # True when the journal window forced a rebuild


@dataclass
class NodeState:
    """Control-plane view of one cluster server."""

    node_id: int
    external_port: int
    fib_version: int = 0
    fib: Optional[RoutingTable] = None
    alive: bool = True


@dataclass(frozen=True)
class ProvisionUpdate(RunResult):
    """What the control plane recomputed after a membership/health change."""

    _summary_fields = ("live_nodes", "failed_nodes", "capacity_gbps",
                       "internal_link_rate_gbps")

    live_nodes: int
    failed_nodes: int
    capacity_bps: float
    internal_link_rate_bps: float
    rib_version: int
    fibs_pushed: bool

    @property
    def capacity_gbps(self) -> float:
        return self.capacity_bps / 1e9

    @property
    def internal_link_rate_gbps(self) -> float:
        return self.internal_link_rate_bps / 1e9


class ClusterManager:
    """Membership + FIB distribution for a full-mesh RouteBricks cluster.

    The manager owns the master RIB (prefix -> external port).  Each
    external port belongs to exactly one node; pushing the FIB gives every
    node an identical routing table whose ``Route.port`` values are
    *cluster node ids* -- the egress a ``route_via_fib`` run's ingress
    reads.
    """

    def __init__(self, port_rate_bps: float = 10e9):
        self.port_rate_bps = port_rate_bps
        self.rib: Dict[Prefix, int] = {}   # prefix -> external port
        self._nodes: Dict[int, NodeState] = {}
        self._port_owner: Dict[int, int] = {}
        self._next_node_id = 0
        self.rib_version = 0
        #: Compiled-FIB delta journal (see :class:`FibDelta`): every RIB
        #: or health change appends the FIB-level ops it implies, so a
        #: node can catch up incrementally instead of rebuilding.
        self._journal: List[FibDelta] = []
        #: Versions <= this floor fell out of the journal window.
        self._journal_floor = 0

    # -- membership -----------------------------------------------------------

    def add_node(self, external_port: int) -> int:
        """Add a server owning ``external_port``; returns its node id."""
        if external_port in self._port_owner:
            raise ConfigurationError("port %d already owned by node %d"
                                     % (external_port,
                                        self._port_owner[external_port]))
        node_id = self._next_node_id
        self._next_node_id += 1
        self._nodes[node_id] = NodeState(node_id=node_id,
                                         external_port=external_port)
        self._port_owner[external_port] = node_id
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Remove a server; its port's routes become unresolvable until
        the port is reassigned.  The compiled FIB changes (the removed
        node's routes drop out), so the master version is bumped --
        otherwise previously-pushed FIBs would keep routing to the
        removed node while ``stale_nodes()``/``check_consistency()``
        report everything current."""
        if node_id not in self._nodes:
            raise ConfigurationError("no node %d" % node_id)
        state = self._nodes.pop(node_id)
        del self._port_owner[state.external_port]
        self.rib_version += 1
        self._journal_extend(
            (FIB_DEL, prefix, None)
            for prefix in self._owned_prefixes(state.external_port))

    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def live_nodes(self) -> List[int]:
        """Members currently believed healthy."""
        return sorted(node_id for node_id, state in self._nodes.items()
                      if state.alive)

    def ports(self) -> List[int]:
        """All owned external ports, sorted."""
        return sorted(self._port_owner)

    def owner_of(self, external_port: int) -> Optional[int]:
        """Node id owning ``external_port`` (``None`` if unowned)."""
        return self._port_owner.get(external_port)

    def failed_nodes(self) -> List[int]:
        """Members marked down by the health layer (still cluster members;
        their ports stay assigned, their routes drop out of the FIB)."""
        return sorted(node_id for node_id, state in self._nodes.items()
                      if not state.alive)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    # -- health ---------------------------------------------------------------

    def mark_failed(self, node_id: int) -> None:
        """Record that ``node_id`` stopped responding.  Its routes leave
        the compiled FIB (traffic to a dark port would be lost anyway),
        so the master version is bumped and every live FIB goes stale."""
        state = self._nodes.get(node_id)
        if state is None:
            raise ConfigurationError("no node %d" % node_id)
        if not state.alive:
            return
        state.alive = False
        self.rib_version += 1
        self._journal_extend(
            (FIB_DEL, prefix, None)
            for prefix in self._owned_prefixes(state.external_port))

    def mark_recovered(self, node_id: int) -> None:
        """A rebooted server rejoined: empty FIB, routes restored."""
        state = self._nodes.get(node_id)
        if state is None:
            raise ConfigurationError("no node %d" % node_id)
        if state.alive:
            return
        state.alive = True
        state.fib = None           # reboot: it remembers nothing
        state.fib_version = 0
        self.rib_version += 1
        self._journal_extend(
            (FIB_SET, prefix, node_id)
            for prefix in self._owned_prefixes(state.external_port))

    def handle_node_failure(self, node_id: int,
                            push: bool = True) -> ProvisionUpdate:
        """Failure reaction: mark the node down, recompute provisioning,
        and (by default) re-push FIBs to the survivors."""
        self.mark_failed(node_id)
        return self.reprovision(push=push)

    def handle_node_recovery(self, node_id: int,
                             push: bool = True) -> ProvisionUpdate:
        """Recovery reaction: readmit the node and re-push FIBs."""
        self.mark_recovered(node_id)
        return self.reprovision(push=push)

    def reprovision(self, push: bool = False) -> ProvisionUpdate:
        """Recompute the cluster's operating parameters for the current
        live membership (VLB's 2R/N internal-link requirement, aggregate
        capacity), optionally distributing fresh FIBs."""
        live = self.live_nodes()
        if push:
            self.push_fibs()
        return ProvisionUpdate(
            live_nodes=len(live),
            failed_nodes=len(self.failed_nodes()),
            capacity_bps=len(live) * self.port_rate_bps,
            internal_link_rate_bps=(
                2 * self.port_rate_bps / len(live) if len(live) >= 2
                else float("nan")),
            rib_version=self.rib_version,
            fibs_pushed=push,
        )

    def mesh_links(self) -> List[Tuple[int, int]]:
        """The directed internal links current membership requires."""
        ids = self.nodes()
        return [(a, b) for a in ids for b in ids if a != b]

    def internal_link_rate_bps(self) -> float:
        """VLB's required internal link rate for the current mesh."""
        if self.num_nodes < 2:
            raise TopologyError("mesh needs >= 2 nodes")
        return 2 * self.port_rate_bps / self.num_nodes

    # -- RIB / FIB -------------------------------------------------------------

    def _owned_prefixes(self, external_port: int) -> List[Prefix]:
        return [prefix for prefix, port in self.rib.items()
                if port == external_port]

    def _journal_extend(self, deltas) -> None:
        """Append FIB-level ops at the current master version, trimming
        the journal at a version boundary when it outgrows its cap."""
        version = self.rib_version
        self._journal.extend(
            FibDelta(version=version, op=op, prefix=prefix, node_id=node_id)
            for op, prefix, node_id in deltas)
        if len(self._journal) > MAX_JOURNAL_ENTRIES:
            drop = len(self._journal) // 2
            cut_version = self._journal[drop - 1].version
            while (drop < len(self._journal)
                   and self._journal[drop].version == cut_version):
                drop += 1
            self._journal_floor = cut_version
            del self._journal[:drop]

    def announce(self, prefix, external_port: int) -> None:
        """Install or move a prefix to an external port in the master RIB."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if external_port not in self._port_owner:
            raise ConfigurationError("no node owns port %d" % external_port)
        self.rib[prefix] = external_port
        self.rib_version += 1
        owner = self._port_owner[external_port]
        if self._nodes[owner].alive:
            self._journal_extend([(FIB_SET, prefix, owner)])
        else:
            # Routes to a dark port are withheld from the compiled FIB
            # until the owner recovers (see build_fib).
            self._journal_extend([(FIB_DEL, prefix, None)])

    def withdraw(self, prefix) -> None:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if prefix not in self.rib:
            raise ConfigurationError("prefix %s not announced" % prefix)
        del self.rib[prefix]
        self.rib_version += 1
        self._journal_extend([(FIB_DEL, prefix, None)])

    def fib_deltas(self, since_version: int) -> Optional[List[FibDelta]]:
        """Compiled-FIB ops advancing ``since_version`` to the current
        version, or ``None`` when the journal no longer covers the gap
        (the caller must fall back to a full rebuild)."""
        if since_version < self._journal_floor:
            return None
        # Versions never decrease along the journal, so the deltas past
        # ``since_version`` are one tail: bisect for its start (what
        # ``bisect_right`` on the versions would return).
        journal = self._journal
        lo, hi = 0, len(journal)
        while lo < hi:
            mid = (lo + hi) // 2
            if journal[mid].version <= since_version:
                lo = mid + 1
            else:
                hi = mid
        return journal[lo:]

    def build_fib(self) -> RoutingTable:
        """Compile the RIB into a node FIB (prefix -> owning node id).

        Routes whose owning node is dead are excluded: until the port is
        re-homed or the server recovers, those prefixes are unreachable
        and advertising them would blackhole traffic inside the mesh.
        """
        fib = RoutingTable()
        for prefix, port in self.rib.items():
            node_id = self._port_owner.get(port)
            if node_id is None:
                continue  # orphaned route: owner was removed
            if not self._nodes[node_id].alive:
                continue  # owner is down: withhold until recovery
            fib.add_route(prefix, Route(port=node_id,
                                        next_hop=prefix.network))
        return fib

    def sync_node(self, node_id: int) -> SyncResult:
        """Bring one live node's FIB up to the master version.

        Incremental by default: the delta journal is replayed against
        the node's existing table *in place* (``Dir24_8`` insert/remove,
        never a rebuild), so a dataplane holding a reference to the
        table sees updates live.  A node whose FIB predates the journal
        window (or has none yet) gets a full rebuild instead.
        """
        state = self._nodes.get(node_id)
        if state is None:
            raise ConfigurationError("no node %d" % node_id)
        if not state.alive:
            raise ConfigurationError(
                "node %d is down; it resyncs on recovery" % node_id)
        deltas = (self.fib_deltas(state.fib_version)
                  if state.fib is not None else None)
        if deltas is None:
            # Each node gets its own table instance (independent mutation
            # in tests mirrors independent memory in reality).
            state.fib = self.build_fib()
            state.fib_version = self.rib_version
            result = SyncResult(node_id=node_id, version=self.rib_version,
                                ops_applied=len(state.fib), rebuilt=True)
        else:
            fib = state.fib
            applied = 0
            for delta in deltas:
                if delta.op == FIB_SET:
                    fib.add_route(delta.prefix,
                                  Route(port=delta.node_id,
                                        next_hop=delta.prefix.network))
                    applied += 1
                elif fib.has_route(delta.prefix):
                    fib.remove_route(delta.prefix)
                    applied += 1
            state.fib_version = self.rib_version
            result = SyncResult(node_id=node_id, version=self.rib_version,
                                ops_applied=applied, rebuilt=False)
        from ..obs.metrics import active_registry
        registry = active_registry()
        if registry.enabled:
            registry.counter(
                "fib_updates_applied",
                "FIB update operations applied to per-node tables",
            ).inc(result.ops_applied, node=node_id)
        return result

    def push_fibs(self) -> int:
        """Bring every live node's FIB to the master version; returns the
        version.  Nodes that can catch up from the delta journal do so
        incrementally (see :meth:`sync_node`); dead nodes cannot receive
        a push -- they rejoin stale and get a fresh table on recovery."""
        for node_id in self.live_nodes():
            self.sync_node(node_id)
        return self.rib_version

    def fib_of(self, node_id: int) -> RoutingTable:
        state = self._nodes.get(node_id)
        if state is None:
            raise ConfigurationError("no node %d" % node_id)
        if state.fib is None:
            raise ConfigurationError("node %d has no FIB yet" % node_id)
        return state.fib

    # -- consistency ------------------------------------------------------------

    def stale_nodes(self) -> List[int]:
        """Live nodes whose FIB lags the master RIB version (dead nodes
        are unreachable, not stale -- they re-sync on recovery)."""
        return [node_id for node_id, state in sorted(self._nodes.items())
                if state.alive and (state.fib is None
                                    or state.fib_version != self.rib_version)]

    def check_consistency(self, probes: List) -> bool:
        """All live nodes agree on the egress node for every probe."""
        if not self._nodes:
            raise ConfigurationError("empty cluster")
        if self.stale_nodes():
            return False
        for probe in probes:
            answers = set()
            for state in self._nodes.values():
                if not state.alive:
                    continue
                route = state.fib.lookup(probe)
                answers.add(None if route is None else route.port)
            if len(answers) > 1:
                return False
        return True

    def capacity_bps(self) -> float:
        """Aggregate external capacity of the live membership."""
        return len(self.live_nodes()) * self.port_rate_bps
