"""Traffic generation.

Reproduces the paper's workloads (Sec. 5.1): fixed-size synthetic packets
(64 B worst case up to 1024 B), random destination addresses that stress
lookup locality, an Abilene-like trace (a synthetic stand-in for the
Abilene-I capture, matching its packet-size mixture and flow structure),
and cluster traffic matrices (uniform, worst-case permutation).
"""

from .. import _lazy

#: Submodule -> the public names it defines; each loads on first use.
_EXPORTS = {
    "spec": ("WorkloadSpec",),
    "synthetic": ("FixedSizeWorkload", "PacketSource"),
    "abilene": ("AbileneTrace", "ABILENE_SIZE_MIX"),
    "matrices": ("TrafficMatrix", "uniform_matrix", "permutation_matrix"),
    "flowgen": ("Flow", "FlowGenerator"),
    "imix": ("MIXES",),
    "zipf_flows": ("PacketRecord", "SkewedFlowWorkload"),
    "cluster_traffic": ("matrix_events", "offered_packets"),
    "pcapio": ("load_trace", "save_trace"),
}

__getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)
