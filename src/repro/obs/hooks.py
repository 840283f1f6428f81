"""DES instrumentation hooks shared by the cluster simulation.

The timed single-server runners charge metrics inline (they own their
poll loops), but the cluster DES is event-driven with no natural
sampling point -- so the epoch loop that drives every cluster run stops
its partitions at the tick times :func:`next_tick` hands out and has
each one's :class:`ClusterObserver` walk its share of the mesh,
recording every internal link's queue occupancy, drop deltas, and byte
deltas into timelines.  Per-hop latency histograms are charged by the nodes
themselves (see :class:`repro.core.node.ClusterNode`); this observer
covers the *shared* resources a single node cannot see whole.

Metric names written here:

``link_occupancy{link=i-j}``   packets queued on the i->j cable (sampled)
``link_drops{link=i-j}``       drops on that cable per bin (delta)
``link_bytes{link=i-j}``       bytes serialized per bin (delta)
``ext_occupancy{node=i}``      node i's rate-limited external line, if any
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

#: Sampling windows per run when the caller gives only a horizon.
DEFAULT_SAMPLES_PER_RUN = 50


class ClusterObserver:
    """Sampler of one partition's internal links and external lines.

    Nothing of it lives in an event queue: the constructor takes the t=0
    sample, and the epoch loop of :mod:`repro.parallel` (one partition
    or several) calls :meth:`sample` at its barriers, between advances,
    at the times :func:`next_tick` gives.  So observing cannot keep a run alive, and
    the cadence is the same at any partition count.
    """

    def __init__(self, sim, nodes, metrics: MetricsRegistry,
                 interval_sec: float):
        if interval_sec <= 0:
            raise ValueError("observer interval must be positive")
        self.sim = sim
        self.nodes = nodes
        self._occupancy = metrics.timeline("link_occupancy",
                                           bin_sec=interval_sec)
        self._drops = metrics.timeline("link_drops", bin_sec=interval_sec)
        self._bytes = metrics.timeline("link_bytes", bin_sec=interval_sec)
        self._ext = metrics.timeline("ext_occupancy", bin_sec=interval_sec)
        # last-seen cumulative (dropped, bytes_sent) per directed link,
        # so each sample records the delta for its bin.
        self._last: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.sample()

    def _links(self) -> List[Tuple[str, Tuple[int, int], object]]:
        out = []
        for node in self.nodes:
            for dst, link in node.links.items():
                out.append(("%d-%d" % (node.node_id, dst),
                            (node.node_id, dst), link))
        return out

    def sample(self) -> None:
        """Record one observation of every internal link and external line."""
        now = self.sim.now
        for name, key, link in self._links():
            prev_drops, prev_bytes = self._last.get(key, (0, 0))
            self._occupancy.record(now, len(link.queue), link=name)
            dropped = link.queue.dropped
            if dropped > prev_drops:
                self._drops.record(now, dropped - prev_drops, link=name)
            sent = link.bytes_sent
            if sent > prev_bytes:
                self._bytes.record(now, sent - prev_bytes, link=name)
            self._last[key] = (dropped, sent)
        for node in self.nodes:
            if node.egress_link is not None:
                self._ext.record(now, len(node.egress_link.queue),
                                 node=node.node_id)


def next_tick(tick: float, interval_sec: float, until: Optional[float],
              pending: bool = True) -> Optional[float]:
    """The observer's tick rule: when to sample after the sample at
    ``tick``, or ``None`` for "no more".

    The next sample is taken only if something was still ``pending``
    anywhere after the last one (an open-ended run must drain, and a
    drained one stops being sampled) and never past ``until``.  The
    first tick, ``next_tick(0.0, ...)`` after the build-time sample, is
    unconditional.  Times accumulate by float addition, so every driver
    stops at the same floats.
    """
    if not pending:
        return None
    tick += interval_sec
    return tick if until is None or tick <= until else None


def observer_interval(until, default: float = 1e-4) -> float:
    """A sampling interval giving ~:data:`DEFAULT_SAMPLES_PER_RUN` windows
    over a known horizon, or ``default`` for open-ended runs."""
    if until is None or until <= 0:
        return default
    return until / DEFAULT_SAMPLES_PER_RUN
