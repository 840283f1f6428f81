"""IMIX packet-size mixtures.

Standard Internet-mix workloads used throughout the router-benchmarking
literature: the "simple IMIX" (7:4:1 at 64/570/1518 B, mean ~353 B) and a
small library of named mixes.  These complement the paper's fixed-size and
Abilene workloads when characterizing the rate-vs-size surface.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigurationError

#: Named (size, weight) mixes; weights need not be normalized.
MIXES: Dict[str, List[Tuple[int, float]]] = {
    # The classic simple IMIX: 7 x 64 B, 4 x 570 B, 1 x 1518 B.
    "simple": [(64, 7), (570, 4), (1518, 1)],
    # Tomahawk-style IMIX used in some vendor test plans.
    "cisco": [(64, 0.58), (594, 0.33), (1518, 0.09)],
    # A worst-case all-minimum mix for stress comparisons.
    "minimum": [(64, 1)],
}


def mix_mean_bytes(mix: List[Tuple[int, float]]) -> float:
    """Weighted mean frame size of a mix."""
    total_weight = sum(weight for _, weight in mix)
    if total_weight <= 0:
        raise ConfigurationError("mix weights must sum to > 0")
    return sum(size * weight for size, weight in mix) / total_weight


def imix_rate_gbps(app_name: str = "forwarding", mix: str = "simple") -> float:
    """Loss-free rate for an application under a named IMIX (by mean size,
    exact for the affine cost model)."""
    from ..perfmodel.throughput import max_loss_free_rate
    from .spec import WorkloadSpec

    mix = MIXES[mix] if isinstance(mix, str) else mix
    return max_loss_free_rate(
        WorkloadSpec.imix(mix, app=app_name)).rate_gbps
