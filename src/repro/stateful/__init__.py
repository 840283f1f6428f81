"""Stateful NF suite with State-Compute Replication (arXiv 2309.14647).

Four stateful network functions (NAT, conntrack firewall, token-bucket
policer, L4 load balancer) over a shared :class:`~repro.stateful.state.
FlowTable` abstraction, plus three core-dispatch strategies -- shared
state with locks, RSS flow-pinning, and State-Compute Replication --
benchmarked head-to-head under flow-skewed workloads
(:class:`~repro.workloads.SkewedFlowWorkload`).
"""

from .state import FlowTable, Snapshot, StateDelta, merge_snapshots
from .nf import (
    DROP,
    FORWARD,
    NF_FACTORIES,
    FirewallNF,
    LoadBalancerNF,
    NatNF,
    PolicerNF,
    StatefulNF,
    apply_history,
    make_nf,
)
from .dispatch import (
    STRATEGIES,
    StrategyReport,
    run_strategy,
)

__all__ = [
    "FlowTable",
    "Snapshot",
    "StateDelta",
    "merge_snapshots",
    "StatefulNF",
    "NatNF",
    "FirewallNF",
    "PolicerNF",
    "LoadBalancerNF",
    "NF_FACTORIES",
    "make_nf",
    "apply_history",
    "FORWARD",
    "DROP",
    "STRATEGIES",
    "StrategyReport",
    "run_strategy",
]
