"""A small discrete-event simulation engine.

Drives the packet-level cluster simulation (`repro.core`): an event queue
with a simulated clock, rate-limited links with propagation delay, bounded
FIFO queues, per-node seed derivation, and a histogram with exact percentiles
(counters and timelines are :mod:`repro.obs.metrics`).
"""

from .engine import Simulator
from .links import Link
from .partition import CrossLink, Partition
from .queues import FiniteQueue
from .rng import node_seeds
from .stats import Histogram

__all__ = [
    "Simulator",
    "Link",
    "Partition",
    "CrossLink",
    "FiniteQueue",
    "node_seeds",
    "Histogram",
]
