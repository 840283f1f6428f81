"""Deterministic virtual-time profiling and latency decomposition.

Two instruments that turn the raw telemetry of :mod:`repro.obs.metrics`
into the paper's style of *attribution*:

* :class:`SpanProfiler` -- hierarchical span accounting over the DES.
  Instrumented code charges virtual cost (cycles on a server core,
  microseconds on a cluster node) to a stack of frames
  (``run -> core3 -> LookupIPRoute``); the profiler keeps exact per-path
  self values and derives inclusive totals, and can emit the
  collapsed-stack text format flamegraph tooling consumes
  (``run;core3;LookupIPRoute 4821``).  Everything is charged in
  *simulation* units in deterministic event order, so two seeded runs
  produce byte-identical output -- profiling is itself reproducible.
* :func:`decompose_trace` -- splits one traced packet's end-to-end
  latency into named stages (poll wait, RX-ring queueing, element
  service, VLB hop transit, reorder-buffer hold) from the timestamped
  hops its :class:`~repro.obs.trace.PathTrace` recorded.  The stages are
  consecutive intervals of the same clock, so they sum to the measured
  end-to-end latency *by construction*; anything the classifier cannot
  name lands in ``other``, and the conservation check demands that
  bucket stay negligible.
"""

from __future__ import annotations

import bisect
import contextlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Stage names a packet's latency decomposes into, in pipeline order.
STAGES = ("poll_wait", "rx_ring_wait", "element_service",
          "vlb_hop_transit", "egress_transit", "reorder_hold", "other")


class SpanProfiler:
    """Hierarchical virtual-cost accounting with collapsed-stack output.

    Frames form paths rooted at ``root``; :meth:`charge` books a value
    against the current span stack plus any extra frames.  Values are
    unit-agnostic -- the single-server runners charge cycles under
    ``core<N>`` frames, the cluster charges microseconds under
    ``node<N>`` frames -- so read units off the first frame below the
    root.  :meth:`begin_event` is the :class:`~repro.simnet.engine
    .Simulator` hook: each DES event starts with a fresh span stack, so
    a callback that exits abnormally cannot leak frames into the next
    event.
    """

    def __init__(self, root: str = "run"):
        self.root = root
        self._self: Dict[Tuple[str, ...], float] = {}
        self._stack: List[str] = []

    # -- span lifecycle ----------------------------------------------------

    def begin_event(self) -> None:
        """Reset the span stack (called by the DES engine per event)."""
        if self._stack:
            self._stack.clear()

    def push(self, frame: str) -> None:
        self._stack.append(frame)

    def pop(self) -> None:
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, frame: str):
        """Scope a frame: charges inside run under ``frame``."""
        self.push(frame)
        try:
            yield self
        finally:
            self.pop()

    # -- charging ----------------------------------------------------------

    def charge(self, value: float, *frames: str) -> None:
        """Book ``value`` at the current stack extended by ``frames``."""
        if value == 0:
            return
        if value < 0:
            raise ValueError("span charges cannot be negative")
        path = (self.root, *self._stack, *frames)
        self._self[path] = self._self.get(path, 0.0) + value

    def bind(self, *frames: str):
        """A pre-resolved charger for one fixed path.

        The path is captured at bind time (current stack plus
        ``frames``), so hot loops that always charge the same frames --
        the timed runners' per-poll core/element charges -- skip the
        tuple build and stack walk per call.  Only bind where the span
        stack is known to be empty at charge time.
        """
        path = (self.root, *self._stack, *frames)
        store = self._self
        get = store.get

        def charge(value: float) -> None:
            if value:
                store[path] = get(path, 0.0) + value

        return charge

    def bind_stamp(self, clock, *frames: str):
        """A pre-resolved ``charge(packet)`` for one fixed path, in
        microseconds of simulated time.

        Charges the time since the packet's last profiled point
        (``packet.prof_t``, when it has one and the clock ``clock.now``
        is past it), as ``(now - last) * 1e6`` under :meth:`bind`'s
        ``if value`` rule, then advances the point to ``now``: one call
        per profiled hop.  The path is captured as in :meth:`bind`.
        """
        path = (self.root, *self._stack, *frames)
        store = self._self
        get = store.get

        def charge(packet) -> None:
            now = clock.now
            last = packet.prof_t
            if last is not None and now > last:
                value = (now - last) * 1e6
                if value:
                    store[path] = get(path, 0.0) + value
            packet.prof_t = now

        return charge

    def merge(self, other: "SpanProfiler") -> None:
        """Sum another profiler's per-path self values into this one.

        Cluster frames are keyed by node (``node<N>;...``), so partitions
        contribute disjoint paths and the merge is exact; where paths do
        collide the charges simply add, same as if both had been booked
        here.  Paths are visited in sorted order for determinism.
        """
        for path in sorted(other._self):
            self._self[path] = self._self.get(path, 0.0) + other._self[path]

    # -- queries -----------------------------------------------------------

    def self_value(self, *path: str) -> float:
        """Exact value charged at ``path`` itself (root implied)."""
        return self._self.get((self.root, *path), 0.0)

    def total_value(self, *prefix: str) -> float:
        """Inclusive value: everything charged at or below ``prefix``."""
        full = (self.root, *prefix)
        depth = len(full)
        return sum(value for path, value in self._self.items()
                   if path[:depth] == full)

    def table(self) -> List[dict]:
        """Self/total rows for every observed path prefix, sorted."""
        totals: Dict[Tuple[str, ...], float] = {}
        for path, value in self._self.items():
            for depth in range(1, len(path) + 1):
                prefix = path[:depth]
                totals[prefix] = totals.get(prefix, 0.0) + value
        return [{
            "frames": ";".join(prefix),
            "depth": len(prefix) - 1,
            "self": self._self.get(prefix, 0.0),
            "total": total,
        } for prefix, total in sorted(totals.items())]

    def leaf_totals(self, skip: Tuple[str, ...] = ()) -> Dict[str, float]:
        """Charged value aggregated by leaf frame across all paths."""
        out: Dict[str, float] = {}
        for path, value in self._self.items():
            leaf = path[-1]
            if leaf in skip:
                continue
            out[leaf] = out.get(leaf, 0.0) + value
        return out

    def collapsed(self, scale: float = 1.0) -> str:
        """Flamegraph-compatible text: one ``a;b;c value`` line per path.

        Values are rounded to integers as the format expects; pass
        ``scale`` (e.g. 1e3 for microsecond charges) to keep resolution.
        """
        lines = ["%s %.0f" % (";".join(path), value * scale)
                 for path, value in sorted(self._self.items())]
        return "\n".join(lines)

    def to_dict(self, max_rows: int = 200) -> dict:
        """JSON-able dump: top self-value rows plus the collapsed text."""
        rows = sorted(
            ({"frames": ";".join(path), "self": value}
             for path, value in self._self.items()),
            key=lambda row: (-row["self"], row["frames"]))
        return {
            "root": self.root,
            "paths": len(self._self),
            "self_total": sum(self._self.values()),
            "frames": rows[:max_rows],
            "collapsed": self.collapsed().splitlines()[:max_rows],
        }

    def reset(self) -> None:
        self._self.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._self)


def first_poll_after(poll_times: List[float], arrival: float,
                     pickup: float) -> float:
    """First poll on a queue strictly after ``arrival``, clamped to the
    actual pickup time (the runners' poll-wait / ring-wait split)."""
    index = bisect.bisect_right(poll_times, arrival)
    if index < len(poll_times):
        return min(poll_times[index], pickup)
    return pickup


@dataclass
class LatencyBreakdown:
    """One packet's end-to-end latency, split into named stages.

    Stages are consecutive intervals between the trace's timestamped
    hops, so ``sum(stages.values()) == end_to_end_sec`` exactly; the
    conservation *check* is that the unclassified ``other`` share stays
    under a tolerance.
    """

    packet_id: int
    end_to_end_sec: float
    stages: Dict[str, float]

    def stage_sum(self) -> float:
        return sum(self.stages.values())

    def residual_fraction(self) -> float:
        """Unclassified share of the end-to-end latency."""
        if self.end_to_end_sec <= 0:
            return 0.0
        return self.stages.get("other", 0.0) / self.end_to_end_sec

    def conserved(self, rel_tol: float = 0.01) -> bool:
        """Do the named stages account for the measured latency?"""
        if self.end_to_end_sec <= 0:
            return True
        gap = abs(self.stage_sum() - self.end_to_end_sec)
        return (gap <= rel_tol * self.end_to_end_sec
                and self.residual_fraction() <= rel_tol)

    def fractions(self) -> Dict[str, float]:
        total = self.end_to_end_sec
        if total <= 0:
            return {stage: 0.0 for stage in self.stages}
        return {stage: value / total
                for stage, value in self.stages.items()}

    def to_dict(self) -> dict:
        return {
            "packet_id": self.packet_id,
            "end_to_end_usec": self.end_to_end_sec * 1e6,
            "stages_usec": {stage: value * 1e6
                            for stage, value in self.stages.items()},
            "residual_fraction": self.residual_fraction(),
        }


def _classify(prev_site: str, site: str) -> str:
    """Name the stage the interval ``prev_site -> site`` belongs to."""
    if site == "poll":
        return "poll_wait"
    if site == "pickup":
        return "rx_ring_wait"
    if site == "service_done":
        return "element_service"
    if site == "reorder.release":
        return "reorder_hold"
    if site.endswith(".tx") or site.endswith(".egress_q"):
        # Time spent *inside* a node before it transmits (input or
        # intermediate role) or before the external line (output role).
        return "element_service"
    if site.endswith(".intermediate") or site.endswith(".output"):
        return "vlb_hop_transit"
    if site.endswith(".egress"):
        # With a rate-limited external line the egress_q hop precedes
        # this one and the gap is wire serialization; without one the
        # gap is the output role's service time.
        if prev_site.endswith(".egress_q"):
            return "egress_transit"
        return "element_service"
    return "other"


def _timestamped_hops(trace) -> List[Tuple[str, float]]:
    """(site, time) pairs of a PathTrace or its ``to_dict()`` form."""
    hops = trace["hops"] if isinstance(trace, dict) else trace.hops
    out = []
    for hop in hops:
        site = hop["site"] if isinstance(hop, dict) else hop.site
        time = hop["time"] if isinstance(hop, dict) else hop.time
        if time is not None:
            out.append((site, time))
    return out


#: Terminal sites that mark a trace as *delivered* (vs dropped mid-way).
_DELIVERED_SUFFIXES = (".egress",)
_DELIVERED_SITES = ("service_done", "reorder.release")


def trace_delivered(trace) -> bool:
    """Did this traced packet make it all the way out?"""
    hops = _timestamped_hops(trace)
    if not hops:
        return False
    last = hops[-1][0]
    return (last in _DELIVERED_SITES
            or any(last.endswith(suffix) for suffix in _DELIVERED_SUFFIXES))


def decompose_trace(trace) -> LatencyBreakdown:
    """Split one trace's latency into stages (accepts a
    :class:`~repro.obs.trace.PathTrace` or its ``to_dict()`` form)."""
    hops = _timestamped_hops(trace)
    stages = {stage: 0.0 for stage in STAGES}
    if len(hops) < 2:
        packet_id = (trace["packet_id"] if isinstance(trace, dict)
                     else trace.packet_id)
        return LatencyBreakdown(packet_id=packet_id, end_to_end_sec=0.0,
                                stages=stages)
    for (prev_site, prev_time), (site, time) in zip(hops, hops[1:]):
        delta = time - prev_time
        if delta < 0:  # defensively: out-of-order hops are unclassifiable
            stages["other"] += abs(delta)
            continue
        stages[_classify(prev_site, site)] += delta
    packet_id = (trace["packet_id"] if isinstance(trace, dict)
                 else trace.packet_id)
    return LatencyBreakdown(packet_id=packet_id,
                            end_to_end_sec=hops[-1][1] - hops[0][1],
                            stages=stages)


def aggregate_breakdowns(traces: Iterable,
                         delivered_only: bool = True) -> Optional[dict]:
    """Mean stage decomposition over many traces (JSON-able), or None
    when no trace is usable."""
    breakdowns = []
    for trace in traces:
        if delivered_only and not trace_delivered(trace):
            continue
        breakdown = decompose_trace(trace)
        if breakdown.end_to_end_sec > 0:
            breakdowns.append(breakdown)
    if not breakdowns:
        return None
    count = len(breakdowns)
    total = sum(b.end_to_end_sec for b in breakdowns)
    stage_sums = {stage: sum(b.stages[stage] for b in breakdowns)
                  for stage in STAGES}
    return {
        "packets": count,
        "mean_end_to_end_usec": total / count * 1e6,
        "stages_usec": {stage: value / count * 1e6
                        for stage, value in stage_sums.items()},
        "stage_fractions": {stage: (value / total if total else 0.0)
                            for stage, value in stage_sums.items()},
        "max_residual_fraction": max(b.residual_fraction()
                                     for b in breakdowns),
    }
