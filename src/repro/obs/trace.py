"""Sampled packet-path tracing.

Aggregate metrics say *how much*; a path trace says *where*.  For 1-in-N
packets the sampler attaches a :class:`PathTrace` that every
instrumented hop appends to -- Click elements record their name as the
packet traverses them, cluster nodes record role and timestamp, the
timed runners record arrival/poll/transmit.  The result is the
per-packet event log the paper's bottleneck arguments reason about
(which queue, which core, which hop added the latency), at a sampling
cost that leaves the hot path alone for the other N-1 packets.

Traces ride in ``packet.annotations["pathtrace"]`` so no dataplane
signature changes; hops inside a single DES event share that event's
timestamp (elements execute instantaneously), so element hops may carry
``time=None`` and inherit the enclosing hop's clock in reports.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

#: Annotation key under which a sampled packet carries its trace.
TRACE_ANNOTATION = "pathtrace"


class TraceHop(NamedTuple):
    """One recorded waypoint: where, when (sim seconds; None = same event
    as the previous timestamped hop), and an optional note."""

    site: str
    time: Optional[float]
    note: Optional[str] = None


class PathTrace:
    """The ordered hop log of one sampled packet."""

    __slots__ = ("packet_id", "started", "hops")

    def __init__(self, packet_id: int, started: float):
        self.packet_id = packet_id
        self.started = started
        self.hops: List[TraceHop] = []

    def hop(self, site: str, time: Optional[float] = None,
            note: Optional[str] = None) -> None:
        self.hops.append(TraceHop(site, time, note))

    def sites(self) -> List[str]:
        return [h.site for h in self.hops]

    def duration(self) -> float:
        """Seconds from the first to the last timestamped hop."""
        times = [h.time for h in self.hops if h.time is not None]
        if not times:
            return 0.0
        return max(times) - min(times)

    def to_dict(self) -> dict:
        return {
            "packet_id": self.packet_id,
            "started": self.started,
            "duration_sec": self.duration(),
            "hops": [{"site": h.site, "time": h.time,
                      **({"note": h.note} if h.note else {})}
                     for h in self.hops],
        }

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self):
        return "<PathTrace #%d %d hops>" % (self.packet_id, len(self.hops))


class TraceSampler:
    """Deterministic 1-in-N packet selection.

    The first packet offered is sampled, then every ``sample_every``-th
    after it -- deterministic so trace output is reproducible run to run.
    ``max_traces`` bounds memory on long runs; sampling keeps counting
    (``seen``/``sampled`` stay truthful) but new traces are no longer
    retained once full.
    """

    def __init__(self, sample_every: int = 64, max_traces: int = 256):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.sample_every = sample_every
        self.max_traces = max_traces
        self.seen = 0
        self.sampled = 0
        #: Per-entry-point seen counters (see ``maybe_start``'s ``key``).
        self._seen_by_key: Dict = {}
        self.traces: List[PathTrace] = []
        #: Traces decoded from transit records (parallel DES): the
        #: downstream partition keeps the continued copy here -- without
        #: counting it as seen/sampled -- so a merge can stitch each
        #: packet's longest hop list back together.
        self.resumed: Dict[int, PathTrace] = {}

    def reset(self) -> None:
        self.seen = 0
        self.sampled = 0
        self._seen_by_key = {}
        self.traces = []
        self.resumed = {}

    def resume(self, trace: PathTrace) -> PathTrace:
        """Adopt a trace that crossed a partition boundary.

        The wire encoding carries the trace (with its hops so far) in the
        packet annotations; the receiving partition re-registers the
        decoded copy here and keeps appending hops to it.  Does not touch
        ``seen``/``sampled`` -- the ingress partition already counted
        this packet.
        """
        self.resumed[trace.packet_id] = trace
        return trace

    def merge(self, other: "TraceSampler") -> None:
        """Fold another sampler's traces in (parallel-run reduction).

        Each packet keeps its longest hop list across copies (a resumed
        downstream copy supersedes the upstream prefix it was forked
        from); the retained list is rebuilt sorted by (start time, packet
        id), which reproduces the single-sampler retention order, and
        re-capped at ``max_traces``.
        """
        self.seen += other.seen
        self.sampled += other.sampled
        for key, count in other._seen_by_key.items():
            self._seen_by_key[key] = self._seen_by_key.get(key, 0) + count
        best = {t.packet_id: t for t in self.traces}
        candidates = list(other.traces)
        candidates.extend(other.resumed[pid] for pid in sorted(other.resumed))
        for trace in candidates:
            kept = best.get(trace.packet_id)
            if kept is None or len(trace.hops) > len(kept.hops):
                best[trace.packet_id] = trace
        ordered = sorted(best.values(),
                         key=lambda t: (t.started, t.packet_id))
        self.traces = ordered[:self.max_traces]

    def maybe_start(self, packet, time: float,
                    site: str = "arrival", key=None) -> Optional[PathTrace]:
        """Offer a packet at an entry point; returns its trace if sampled.

        Idempotent per packet: a packet already carrying a trace just
        gets a hop appended (re-entry at a second ingress point).

        ``key`` selects a per-entry-point seen counter instead of the
        shared one.  Cluster nodes pass their node id: a node's local
        arrival order does not depend on how the cluster is sharded
        across partitions, so keyed sampling picks the *same* packets at
        any worker count (the shared counter's order is global and would
        not).  ``seen`` stays the all-keys total either way.
        """
        annotations: Dict = packet.annotations
        trace = annotations.get(TRACE_ANNOTATION)
        if trace is not None:
            trace.hop(site, time)
            return trace
        if key is None:
            index = self.seen
        else:
            index = self._seen_by_key.get(key, 0)
            self._seen_by_key[key] = index + 1
        self.seen += 1
        if index % self.sample_every:
            return None
        self.sampled += 1
        trace = PathTrace(packet.packet_id, started=time)
        trace.hop(site, time)
        annotations[TRACE_ANNOTATION] = trace
        if len(self.traces) < self.max_traces:
            self.traces.append(trace)
        return trace

    def start_trace(self, packet, time: float,
                    site: str = "arrival") -> PathTrace:
        """Unconditionally start (and retain, capacity permitting) a trace.

        For callers that run the 1-in-``sample_every`` selection
        themselves -- ``TimedForwardingRun`` keeps ``seen`` in a local
        and only materializes a Packet for the slots this method would
        be called on, then writes the final count back to :attr:`seen`.
        The selection rule must match :meth:`maybe_start`'s (sample when
        ``seen % sample_every == 0``) for the two entry points to pick
        the same packet positions.
        """
        self.sampled += 1
        trace = PathTrace(packet.packet_id, started=time)
        trace.hop(site, time)
        packet.annotations[TRACE_ANNOTATION] = trace
        if len(self.traces) < self.max_traces:
            self.traces.append(trace)
        return trace


def rebase_packet_ids(paths: List[dict]) -> List[dict]:
    """Snapshot trace dicts with packet ids counted from the smallest.

    Packet ids come from one process-wide counter, so the same seeded
    run numbers its packets differently after other runs in the same
    process; rebased, a document is a function of code and seed alone.
    """
    if not paths:
        return paths
    base = min(path.get("packet_id", 0) for path in paths)
    return [dict(path, packet_id=path.get("packet_id", 0) - base)
            for path in paths]
