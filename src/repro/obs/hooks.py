"""DES instrumentation hooks shared by the cluster simulation.

The timed single-server runners charge metrics inline (they own their
poll loops), but the cluster DES is event-driven with no natural
sampling point -- so :class:`ClusterObserver` rides the simulator's
periodic-task machinery: every ``interval_sec`` it walks the mesh and
records each internal link's queue occupancy, drop deltas, and byte
deltas into timelines.  Per-hop latency histograms are charged by the
nodes themselves (see :class:`repro.core.node.ClusterNode`); this
observer covers the *shared* resources a single node cannot see whole.

Metric names written here:

``link_occupancy{link=i-j}``   packets queued on the i->j cable (sampled)
``link_drops{link=i-j}``       drops on that cable per bin (delta)
``link_bytes{link=i-j}``       bytes serialized per bin (delta)
``ext_occupancy{node=i}``      node i's rate-limited external line, if any
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .metrics import MetricsRegistry

#: Sampling windows per run when the caller gives only a horizon.
DEFAULT_SAMPLES_PER_RUN = 50


class ClusterObserver:
    """Periodic sampler of the cluster's internal links.

    Construct it after :meth:`~repro.core.router.RouteBricksRouter
    .build_simulation` and call :meth:`start` with the run horizon; it
    cancels itself when the simulation drains.
    """

    def __init__(self, sim, nodes, metrics: MetricsRegistry,
                 interval_sec: float, keep_alive=None):
        if interval_sec <= 0:
            raise ValueError("observer interval must be positive")
        self.sim = sim
        self.nodes = nodes
        self.metrics = metrics
        self.interval_sec = interval_sec
        #: Optional zero-arg callable consulted when the local queue has
        #: drained: a partition passes one returning True while *other*
        #: partitions still have pending work, so the sampling cadence
        #: is that of one queue holding every pending event (it is always
        #: False for a partition that owns every node).
        self.keep_alive = keep_alive
        self.samples = 0
        self._occupancy = metrics.timeline("link_occupancy",
                                           bin_sec=interval_sec)
        self._drops = metrics.timeline("link_drops", bin_sec=interval_sec)
        self._bytes = metrics.timeline("link_bytes", bin_sec=interval_sec)
        self._ext = metrics.timeline("ext_occupancy", bin_sec=interval_sec)
        # last-seen cumulative (dropped, bytes_sent) per directed link,
        # so each sample records the delta for its bin.
        self._last: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._stopped = False

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
        self.samples += 1
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

    def _tick(self) -> None:
        if self._stopped:
            return
        self.sample()
        # Re-arm only while the simulation has other work: a periodic
        # task that unconditionally re-schedules would keep an
        # open-ended run (``until=None``) alive forever.
        if self.sim.peek_time() is not None or (
                self.keep_alive is not None and self.keep_alive()):
            self.sim.schedule(self.interval_sec, self._tick)

    def start(self) -> None:
        """Begin periodic sampling (plus one sample at t=0)."""
        self.sample()
        self.sim.schedule(self.interval_sec, self._tick)

    def stop(self) -> None:
        self._stopped = True


def observer_interval(until, default: float = 1e-4) -> float:
    """A sampling interval giving ~:data:`DEFAULT_SAMPLES_PER_RUN` windows
    over a known horizon, or ``default`` for open-ended runs."""
    if until is None or until <= 0:
        return default
    return until / DEFAULT_SAMPLES_PER_RUN
