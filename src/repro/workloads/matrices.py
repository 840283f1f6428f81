"""Cluster traffic matrices.

The VLB analysis (Sec. 3.2) distinguishes close-to-uniform matrices (where
Direct VLB routes almost everything directly, c -> 2) from worst-case
matrices (where the full two-phase tax applies, c -> 3).  A
:class:`TrafficMatrix` maps (input node, output node) to a demand rate.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class TrafficMatrix:
    """An N x N demand matrix in bits/second.

    Row = input node, column = output node.  The diagonal (self-traffic)
    is typically zero.
    """

    def __init__(self, demands):
        matrix = np.asarray(demands, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError("traffic matrix must be square")
        if (matrix < 0).any():
            raise ConfigurationError("demands cannot be negative")
        self.demands = matrix

    @property
    def n(self) -> int:
        return self.demands.shape[0]

    def row_sum(self, node: int) -> float:
        """Total traffic entering at ``node``."""
        return float(self.demands[node].sum())

    def col_sum(self, node: int) -> float:
        """Total traffic exiting at ``node``."""
        return float(self.demands[:, node].sum())

    def is_admissible(self, port_rate_bps: float, tol: float = 1e-9) -> bool:
        """True if no input or output line is oversubscribed.

        VLB's 100 %-throughput guarantee only applies to admissible
        matrices (no port asked to carry more than its line rate).
        """
        for node in range(self.n):
            if self.row_sum(node) > port_rate_bps * (1 + tol):
                return False
            if self.col_sum(node) > port_rate_bps * (1 + tol):
                return False
        return True

    def scaled(self, factor: float) -> "TrafficMatrix":
        return TrafficMatrix(self.demands * factor)


def uniform_matrix(n: int, port_rate_bps: float) -> TrafficMatrix:
    """Each input spreads its full line rate evenly over the other nodes."""
    if n < 2:
        raise ConfigurationError("need >= 2 nodes")
    demand = port_rate_bps / (n - 1)
    matrix = np.full((n, n), demand)
    np.fill_diagonal(matrix, 0.0)
    return TrafficMatrix(matrix)


def permutation_matrix(n: int, port_rate_bps: float,
                       shift: int = 1) -> TrafficMatrix:
    """The VLB worst case: node i sends everything to node (i+shift) mod n."""
    if n < 2:
        raise ConfigurationError("need >= 2 nodes")
    if shift % n == 0:
        raise ConfigurationError("shift would create self-traffic")
    matrix = np.zeros((n, n))
    for i in range(n):
        matrix[i][(i + shift) % n] = port_rate_bps
    return TrafficMatrix(matrix)
