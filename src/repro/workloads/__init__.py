"""Traffic generation.

Reproduces the paper's workloads (Sec. 5.1): fixed-size synthetic packets
(64 B worst case up to 1024 B), random destination addresses that stress
lookup locality, an Abilene-like trace (a synthetic stand-in for the
Abilene-I capture, matching its packet-size mixture and flow structure),
and cluster traffic matrices (uniform, worst-case permutation).
"""

from .synthetic import FixedSizeWorkload, PacketSource
from .abilene import AbileneTrace, ABILENE_SIZE_MIX
from .matrices import TrafficMatrix, uniform_matrix, permutation_matrix
from .flowgen import Flow, FlowGenerator
from .imix import MIXES
from .zipf_flows import PacketRecord, SkewedFlowWorkload
from .cluster_traffic import matrix_events, offered_packets
from .pcapio import load_trace, save_trace
from .spec import WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "FixedSizeWorkload",
    "PacketSource",
    "AbileneTrace",
    "ABILENE_SIZE_MIX",
    "TrafficMatrix",
    "uniform_matrix",
    "permutation_matrix",
    "Flow",
    "FlowGenerator",
    "MIXES",
    "PacketRecord",
    "SkewedFlowWorkload",
    "matrix_events",
    "offered_packets",
    "load_trace",
    "save_trace",
]
