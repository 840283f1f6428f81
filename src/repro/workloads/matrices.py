"""Cluster traffic matrices.

The VLB analysis (Sec. 3.2) distinguishes close-to-uniform matrices (where
Direct VLB routes almost everything directly, c -> 2) from worst-case
matrices (where the full two-phase tax applies, c -> 3).  A
:class:`TrafficMatrix` maps (input node, output node) to a demand rate.
"""

from __future__ import annotations

from math import fsum, inf

from ..errors import ConfigurationError


class TrafficMatrix:
    """An N x N demand matrix in bits/second.

    Row = input node, column = output node.  The diagonal (self-traffic)
    is typically zero.  ``demands`` is a tuple of rows of Python floats:
    N is at most a few hundred, and every reader walks it entry by entry.
    """

    def __init__(self, demands):
        try:
            rows = tuple(tuple(float(demand) for demand in row)
                         for row in demands)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                "traffic matrix must be rows of numbers") from None
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ConfigurationError("traffic matrix must be square")
        # Written so that NaN fails too (every comparison with NaN is false).
        if not all(0 <= demand < inf for row in rows for demand in row):
            raise ConfigurationError("demands must be finite and >= 0")
        self.demands = rows

    @property
    def n(self) -> int:
        return len(self.demands)

    def row_sum(self, node: int) -> float:
        """Total traffic entering at ``node``."""
        return fsum(self.demands[node])

    def col_sum(self, node: int) -> float:
        """Total traffic exiting at ``node``."""
        return fsum(row[node] for row in self.demands)

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
        return TrafficMatrix([[demand * factor for demand in row]
                              for row in self.demands])


def uniform_matrix(n: int, port_rate_bps: float) -> TrafficMatrix:
    """Each input spreads its full line rate evenly over the other nodes."""
    if n < 2:
        raise ConfigurationError("need >= 2 nodes")
    demand = port_rate_bps / (n - 1)
    return TrafficMatrix([[0.0 if i == j else demand for j in range(n)]
                          for i in range(n)])


def permutation_matrix(n: int, port_rate_bps: float,
                       shift: int = 1) -> TrafficMatrix:
    """The VLB worst case: node i sends everything to node (i+shift) mod n."""
    if n < 2:
        raise ConfigurationError("need >= 2 nodes")
    if shift % n == 0:
        raise ConfigurationError("shift would create self-traffic")
    return TrafficMatrix([[port_rate_bps if j == (i + shift) % n else 0.0
                           for j in range(n)] for i in range(n)])
