"""Per-node random seeds.

Every cluster node draws from its own :class:`random.Random`, seeded from
the run's root seed by :func:`node_seeds`, so a node's random sequence
does not depend on how the cluster is sharded.
"""

from __future__ import annotations

import random
from typing import List


def node_seeds(seed: int, count: int) -> List[int]:
    """The per-node RNG seeds the cluster derives from a root seed.

    This is *the* derivation both the single-heap cluster build and every
    partition build share: a root :class:`random.Random` seeded with
    ``seed`` draws one 32-bit seed per node, in node-id order.  A
    partition re-derives the full chain and uses only its local indices,
    so node RNG streams are identical regardless of how the cluster is
    sharded or which worker hosts a node.
    """
    root = random.Random(seed)
    return [root.getrandbits(32) for _ in range(count)]
