"""Valiant load balancing: classic and Direct, with adaptive direct routing.

Classic VLB (Sec. 3.2): every packet is routed S -> I -> D with I chosen
uniformly at random.  Internal link loads stay <= 2R/N for any admissible
traffic matrix, at the cost of each node processing up to 3R.

Direct VLB [49]: each input routes up to R/N of the traffic addressed to
each output *directly* and balances only the remainder, cutting the
per-node rate to ~2R when the matrix is close to uniform.  RB4 goes one
step further (adaptive, local information): a node sends *all* of a
destination's traffic directly while the direct link has headroom --
that's why the 64 B and Abilene experiments route everything directly
(Sec. 6.2).

This module provides both the *analysis* (link loads, per-node processing
rates -- the quantities the provisioning math needs) and the *policy*
objects it is parameterized by.  The DES nodes do not consult them:
:class:`~repro.core.node.ClusterNode` makes its own per-flowlet choice
from local link state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
import numpy as np

from ..errors import ConfigurationError
from ..workloads.matrices import TrafficMatrix


@dataclass(frozen=True)
class VlbAnalysis:
    """Load analysis of a (matrix, policy) pair on a full mesh of N nodes.

    ``link_loads[i][j]`` is the bits/second carried by the directed
    internal link i -> j.  ``node_processing[i]`` is the total rate at
    which node i must process packets (ingress + intermediate + egress),
    the paper's "cR" quantity.
    """

    link_loads: np.ndarray
    node_processing: np.ndarray
    direct_fraction: float

    @property
    def max_link_load(self) -> float:
        return float(self.link_loads.max())

    @property
    def max_node_processing(self) -> float:
        return float(self.node_processing.max())

    def c_factor(self, port_rate_bps: float) -> float:
        """The per-node processing multiple of R (between 2 and 3)."""
        return self.max_node_processing / port_rate_bps


class ClassicVlb:
    """Two-phase VLB: every packet bounces through a random intermediate."""

    name = "classic"

    def direct_share(self, demand: float, port_rate_bps: float,
                     n: int) -> float:
        """Classic VLB sends nothing direct (phase 1 covers everything);
        the 1/N of phase-1 traffic that lands on the destination is
        accounted as balanced, matching the 3R bound."""
        return 0.0

    def choose_intermediate(self, src: int, dst: int, n: int,
                            rng: random.Random) -> int:
        """Uniform over all nodes; picking src or dst degenerates to a
        shorter path, as in the original scheme."""
        return rng.randrange(n)


class DirectVlb:
    """Direct VLB with adaptive local decisions (what RB4 implements).

    ``guaranteed_fraction`` of R/N per destination may always go direct
    (the [49] rule); beyond that, a node keeps sending direct while its
    local estimate of the direct link's utilization stays below
    ``headroom`` -- the adaptation that routes everything directly for
    uniform-ish matrices.
    """

    name = "direct"

    def __init__(self, headroom: float = 0.95):
        if not 0 < headroom <= 1:
            raise ConfigurationError("headroom must be in (0, 1]")
        self.headroom = headroom

    def direct_share(self, demand: float, port_rate_bps: float,
                     n: int) -> float:
        """Bits/second of a pair's demand routed directly (analysis form).

        For analysis we apply the guarantee-preserving rule: up to R/N
        direct, remainder balanced -- the conservative (worst-case) figure
        used for provisioning.  The DES applies the adaptive rule on top.
        """
        return min(demand, port_rate_bps / n)

    def choose_intermediate(self, src: int, dst: int, n: int,
                            rng: random.Random) -> int:
        """Uniform over nodes other than src and dst."""
        if n <= 2:
            return dst
        choice = rng.randrange(n - 2)
        for excluded in sorted((src, dst)):
            if choice >= excluded:
                choice += 1
        return choice


def analyze(matrix: TrafficMatrix, port_rate_bps: float,
            policy=None) -> VlbAnalysis:
    """Compute link loads and per-node processing rates on a full mesh.

    Phase-1 remainders are spread uniformly over the n-2 candidate
    intermediates (classic VLB spreads over all n, which this converges to
    for large n; for the small-n RB4 analysis the distinction matters and
    the direct policy is the one the prototype runs).
    """
    if policy is None:
        policy = DirectVlb()
    n = matrix.n
    if n < 2:
        raise ConfigurationError("VLB needs >= 2 nodes")
    demands = matrix.demands
    links = np.zeros((n, n))
    intermediate = np.zeros(n)
    total_demand = 0.0
    total_direct = 0.0
    for s in range(n):
        for d in range(n):
            if s == d or demands[s][d] == 0:
                continue
            demand = demands[s][d]
            total_demand += demand
            direct = policy.direct_share(demand, port_rate_bps, n)
            direct = min(direct, demand)
            balanced = demand - direct
            total_direct += direct
            links[s][d] += direct
            if balanced > 0:
                if isinstance(policy, ClassicVlb):
                    # Spread over all n nodes; I == s skips the first hop,
                    # I == d skips the second.
                    share = balanced / n
                    for i in range(n):
                        if i != s:
                            links[s][i] += share
                        if i != d:
                            links[i][d] += share
                        if i not in (s, d):
                            intermediate[i] += share
                else:
                    candidates = [i for i in range(n) if i not in (s, d)]
                    share = balanced / len(candidates)
                    for i in candidates:
                        links[s][i] += share
                        links[i][d] += share
                        intermediate[i] += share
    node_processing = np.array([
        matrix.row_sum(i) + matrix.col_sum(i) + intermediate[i]
        for i in range(n)
    ])
    direct_fraction = total_direct / total_demand if total_demand else 1.0
    return VlbAnalysis(link_loads=links, node_processing=node_processing,
                       direct_fraction=direct_fraction)


def required_internal_link_rate(n: int, port_rate_bps: float) -> float:
    """The 2R/N internal-link capacity VLB needs on a full mesh (Sec. 3.2)."""
    if n < 2:
        raise ConfigurationError("VLB needs >= 2 nodes")
    return 2 * port_rate_bps / n


def processing_rate_bound(port_rate_bps: float, uniform: bool) -> float:
    """The paper's headline per-node requirement: 2R uniform, 3R worst case."""
    return (2 if uniform else 3) * port_rate_bps
