"""The RouteBricks cluster router (the paper's primary contribution).

Parallelizes a router with N external ports across commodity servers:

* **VLB switching** (:mod:`.vlb`): Valiant load balancing and Direct VLB
  give 100 % throughput and fairness with purely local decisions (Sec. 3.2).
* **Topologies** (:mod:`.topology`, :mod:`.provision`): full mesh while
  server fanout allows, k-ary n-fly beyond; plus the rejected
  switched-cluster cost comparison (Sec. 3.3, Fig. 3).
* **Reordering avoidance** (:mod:`.flowlet`, :mod:`.reordering`): Flare-
  style flowlet switching bounds same-flow reordering (Sec. 6.1-6.2).
* **The cluster router** (:mod:`.router`, :mod:`.node`): the RB4 prototype
  and arbitrary-size clusters, as an analytic throughput model plus a
  packet-level DES; per-hop latency model in :mod:`.latency`.
"""

from .vlb import DirectVlb, ClassicVlb, VlbAnalysis, analyze
from .fabric import FabricNetwork, fly_graph, mesh_graph, torus_graph
from .flowlet import FlowletTable
from .resequencer import Resequencer
from .mac_encoding import decode_output_node, encode_output_node
from .topology import (
    ClosReference,
    FullMesh,
    KAryNFly,
    Torus,
    switched_cluster_equivalent_servers,
)
from .provision import ServerModel, provision, SERVER_MODELS
from .latency import cluster_latency_usec, server_latency_usec
from .reordering import ReorderingMeter
from .sizing import conclusion_claims, ports_per_server
from .control import ClusterManager
from .router import ClusterThroughput, RouteBricksRouter, SimulationReport
# The cluster builder ``simulate`` runs on: loaded with the package (after
# ``.router``, which it imports from) so that the first ``simulate`` call
# does not read and compile a module inside the call.
from . import partition  # noqa: F401
from .switching import check_fairness, check_throughput

__all__ = [
    "DirectVlb",
    "ClassicVlb",
    "VlbAnalysis",
    "analyze",
    "FabricNetwork",
    "mesh_graph",
    "fly_graph",
    "torus_graph",
    "FlowletTable",
    "Resequencer",
    "encode_output_node",
    "decode_output_node",
    "FullMesh",
    "KAryNFly",
    "Torus",
    "ClosReference",
    "switched_cluster_equivalent_servers",
    "ServerModel",
    "provision",
    "SERVER_MODELS",
    "cluster_latency_usec",
    "server_latency_usec",
    "ReorderingMeter",
    "conclusion_claims",
    "ports_per_server",
    "ClusterManager",
    "ClusterThroughput",
    "RouteBricksRouter",
    "SimulationReport",
    "check_fairness",
    "check_throughput",
]
