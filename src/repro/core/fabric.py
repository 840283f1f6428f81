"""Multi-hop interconnect fabrics: explicit graphs for mesh and fly.

`repro.core.topology` sizes clusters; this module *builds* them as graphs
so paths, per-node transit loads, and latency can be computed explicitly.
It reproduces the Sec. 3.3 latency estimate -- "even with current servers,
we need 2 intermediate servers per port to provide N = 1024 external
ports ... 96 usec of per-packet latency" (4 servers x 24 us) -- and feeds
the fabric-aware VLB analysis.

Graphs are directed; I/O servers are nodes named ``("io", i)`` and fly
stage servers ``("fly", stage, index)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Tuple

from ..errors import TopologyError

# networkx is imported where a graph is built or searched, not here:
# ``repro.core`` loads this module, and the 0.12 s / 15 MiB the import
# costs would be paid by every CLI command and every worker process.
if TYPE_CHECKING:
    import networkx as nx

#: Per-server latency used in the Sec. 3.3 estimate (Sec. 6.2's 24 us).
SERVER_LATENCY_USEC = 24.0


def mesh_graph(num_servers: int) -> nx.DiGraph:
    """A full mesh of I/O servers."""
    import networkx as nx

    if num_servers < 2:
        raise TopologyError("mesh needs >= 2 servers")
    graph = nx.DiGraph()
    nodes = [("io", i) for i in range(num_servers)]
    graph.add_nodes_from(nodes)
    for a in nodes:
        for b in nodes:
            if a != b:
                graph.add_edge(a, b)
    return graph


def fly_graph(k: int, stages: int, num_terminals: int = None) -> nx.DiGraph:
    """A k-ary n-fly: terminals enter stage 0 and exit after the last stage.

    The classic butterfly wiring: stage ``s`` switch ``j`` output ``d``
    connects to stage ``s+1`` switch obtained by replacing the (n-1-s)-th
    base-k digit of ``j``'s row with ``d``.  Terminals attach k-per-switch
    at both ends; the same physical I/O servers act as sources and sinks
    (the fabric is used in a folded fashion, as in the paper's cluster).
    """
    import networkx as nx

    if k < 2:
        raise TopologyError("fly needs k >= 2")
    if stages < 1:
        raise TopologyError("fly needs >= 1 stage")
    capacity = k ** stages
    if num_terminals is None:
        num_terminals = capacity
    if num_terminals > capacity:
        raise TopologyError("%d terminals exceed k^n = %d"
                            % (num_terminals, capacity))
    switches_per_stage = k ** (stages - 1)
    graph = nx.DiGraph()
    terminals = [("io", i) for i in range(num_terminals)]
    graph.add_nodes_from(terminals)
    for stage in range(stages):
        for index in range(switches_per_stage):
            graph.add_node(("fly", stage, index))
    # Terminal -> stage 0: terminal i attaches to switch i // k.
    for i in range(num_terminals):
        graph.add_edge(("io", i), ("fly", 0, i // k))
    # Stage s -> stage s+1 butterfly wiring.
    for stage in range(stages - 1):
        digit = stages - 2 - stage  # digit replaced at this stage
        for index in range(switches_per_stage):
            for out in range(k):
                # A switch index is an (n-1)-digit base-k number; output
                # `out` rewires the `digit`-th digit.
                base = k ** digit
                next_index = (index - ((index // base) % k) * base
                              + out * base)
                graph.add_edge(("fly", stage, index),
                               ("fly", stage + 1, next_index))
    # Last stage -> terminals: switch j output d reaches terminal j*k + d.
    for index in range(switches_per_stage):
        for out in range(k):
            terminal = index * k + out
            if terminal < num_terminals:
                graph.add_edge(("fly", stages - 1, index),
                               ("io", terminal))
    return graph


class FabricNetwork:
    """Path and load computations over an explicit fabric graph."""

    def __init__(self, graph: nx.DiGraph):
        if graph.number_of_nodes() < 2:
            raise TopologyError("fabric needs >= 2 nodes")
        self.graph = graph
        self.io_nodes = sorted(n for n in graph.nodes if n[0] == "io")
        if len(self.io_nodes) < 2:
            raise TopologyError("fabric needs >= 2 I/O nodes")
        self._paths: Dict[Tuple[Hashable, Hashable], List] = {}

    def path(self, src_io: int, dst_io: int) -> List:
        """Shortest server path from I/O node src to I/O node dst."""
        key = (src_io, dst_io)
        if key not in self._paths:
            import networkx as nx
            self._paths[key] = nx.shortest_path(
                self.graph, ("io", src_io), ("io", dst_io))
        return self._paths[key]

    def hops(self, src_io: int, dst_io: int) -> int:
        """Number of servers a packet traverses src -> dst (inclusive)."""
        return len(self.path(src_io, dst_io))

    def transit_load(self, uniform_rate_bps: float) -> Dict[Hashable, float]:
        """Per-node transit rate for a uniform all-to-all demand, counting
        every node on each shortest path (endpoints included)."""
        loads = {node: 0.0 for node in self.graph.nodes}
        n = len(self.io_nodes)
        pair_rate = uniform_rate_bps / (n - 1)
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                for node in self.path(s, d):
                    loads[node] += pair_rate
        return loads


def sec33_latency_estimate(num_ports: int = 1024) -> dict:
    """Reproduce the Sec. 3.3 data point: N=1024 on current servers means
    ~2 intermediate servers per port and ~96 us per-packet latency."""
    from .provision import provision
    topo = provision(num_ports, "current")
    intermediates_per_port = getattr(topo, "intermediate_servers",
                                     lambda: 0)() / num_ports
    servers_on_path = 2 + round(intermediates_per_port)
    return {
        "ports": num_ports,
        "intermediates_per_port": intermediates_per_port,
        "servers_on_path": servers_on_path,
        "latency_usec": servers_on_path * SERVER_LATENCY_USEC,
    }
