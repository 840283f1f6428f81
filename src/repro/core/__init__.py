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

from .. import _lazy

#: Submodule -> the public names it defines; each loads on first use,
#: except ``provision``, bound below.
_EXPORTS = {
    "vlb": ("DirectVlb", "ClassicVlb", "VlbAnalysis", "analyze"),
    "fabric": ("FabricNetwork", "mesh_graph", "fly_graph"),
    "flowlet": ("FlowletTable",),
    "resequencer": ("Resequencer",),
    "mac_encoding": ("encode_output_node", "decode_output_node"),
    "topology": ("FullMesh", "KAryNFly", "Torus", "ClosReference",
                 "switched_cluster_equivalent_servers"),
    "provision": ("ServerModel", "provision", "SERVER_MODELS"),
    "latency": ("cluster_latency_usec", "server_latency_usec"),
    "reordering": ("ReorderingMeter",),
    "sizing": ("conclusion_claims", "ports_per_server"),
    "control": ("ClusterManager",),
    "router": ("ClusterThroughput", "RouteBricksRouter", "SimulationReport"),
    "switching": ("check_fairness", "check_throughput"),
}

__getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)

# ``provision`` names both a submodule and the function it defines.
# Loading the submodule sets the package attribute to the module, which a
# lazy read would leave there; binding the function here, after the
# submodule has loaded, keeps ``repro.core.provision`` the function.
from .provision import provision  # noqa: E402

# The cluster builder ``simulate`` runs on: loaded with the package so
# that the first ``simulate`` call does not read and compile a module
# inside the call.
from . import partition  # noqa: E402,F401
