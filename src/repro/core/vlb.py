"""Valiant load balancing: classic and Direct, with adaptive direct routing.

Classic VLB (Sec. 3.2): every packet is routed S -> I -> D with I chosen
uniformly at random.  Internal link loads stay <= 2R/N for any admissible
traffic matrix, at the cost of each node processing up to 3R.

Direct VLB [49]: each input routes up to R/N of the traffic addressed to
each output *directly* and balances only the remainder, cutting the
per-node rate to ~2R when the matrix is close to uniform.  RB4 goes one
step further (adaptive, local information): a node sends *all* of a
destination's traffic directly while the direct link has room --
that's why the 64 B and Abilene experiments route everything directly
(Sec. 6.2).

This module provides the *analysis* (link loads, per-node processing
rates -- the quantities the provisioning math needs), the *policy*
objects it is parameterized by, and the adaptive per-packet decision
itself: :func:`first_hop` (over :func:`direct_first_hop`), which the DES
node (:class:`~repro.core.node.ClusterNode`) runs with its own links as
the local link-state oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Container, List

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

    link_loads: List[List[float]]
    node_processing: List[float]
    direct_fraction: float

    @property
    def max_link_load(self) -> float:
        return max(map(max, self.link_loads))

    @property
    def max_node_processing(self) -> float:
        return max(self.node_processing)

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


class DirectVlb:
    """Direct VLB (what RB4 implements), in its analysis form.

    Up to R/N per destination goes direct (the [49] rule); the nodes'
    adaptive rule on top -- direct while the direct link is free -- is
    :func:`direct_first_hop`.
    """

    name = "direct"

    def direct_share(self, demand: float, port_rate_bps: float,
                     n: int) -> float:
        """Bits/second of a pair's demand routed directly (analysis form).

        For analysis we apply the guarantee-preserving rule: up to R/N
        direct, remainder balanced -- the conservative (worst-case) figure
        used for provisioning.  The DES applies the adaptive rule on top.
        Two nodes have no intermediate, so all of it goes direct, as
        :func:`direct_first_hop` sends it when none is live.
        """
        return demand if n == 2 else min(demand, port_rate_bps / n)


def direct_first_hop(self_node: int, egress: int, num_nodes: int,
                     available: Callable[[int], bool], failed: Container[int],
                     load_of: Callable[[int], float], rng) -> int:
    """Adaptive Direct VLB's first hop from local link state (Sec. 6.1).

    Direct while ``available(egress)``; otherwise the least-``load_of``
    live intermediate (not ``self_node``, ``egress`` or in ``failed``),
    ties broken by an ``rng.shuffle``; direct again when none is live.
    """
    if available(egress):
        return egress
    candidates = [i for i in range(num_nodes)
                  if i not in (self_node, egress) and i not in failed]
    if not candidates:
        return egress
    rng.shuffle(candidates)
    return min(candidates, key=load_of)


def first_hop(flowlets, packet, egress: int, now: float, self_node: int,
              num_nodes: int, available: Callable[[int], bool],
              failed: Container[int], load_of: Callable[[int], float],
              rng) -> int:
    """The first hop for ``packet`` entering ``self_node`` for ``egress``.

    Without a :class:`~repro.core.flowlet.FlowletTable` every packet
    gets a fresh :func:`direct_first_hop`; with one, the path is pinned
    per ``(flow, egress)`` -- a path pinned for one output node is never
    reused for another -- and kept while ``available``.  ``egress`` is
    never ``self_node`` (both callers deliver locally first), so no path
    :func:`direct_first_hop` pins is ``self_node`` either.
    """
    if flowlets is None:
        return direct_first_hop(self_node, egress, num_nodes, available,
                                failed, load_of, rng)
    return flowlets.assign(
        (packet.flow_key or packet.five_tuple(), egress), now, available,
        partial(direct_first_hop, self_node, egress, num_nodes, available,
                failed, load_of, rng))


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
    links = [[0.0] * n for _ in range(n)]
    intermediate = [0.0] * n
    total_demand = 0.0
    total_direct = 0.0
    for s, row in enumerate(matrix.demands):
        for d, demand in enumerate(row):
            if s == d or demand == 0:
                continue
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
    node_processing = [matrix.row_sum(i) + matrix.col_sum(i) + intermediate[i]
                       for i in range(n)]
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
