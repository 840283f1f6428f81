"""Labeled metrics: counters, gauges, histograms, time-binned timelines.

The paper's methodology is *bottleneck deconstruction*: attribute every
cycle and byte to the resource that spent it (Sec. 4.2 uses CPU
performance counters for exactly this).  :class:`MetricsRegistry` is the
in-simulation equivalent -- a named collection of metric series that the
DES hot paths charge while they run, cheap enough to leave compiled in
and disabled by default.

Every metric supports *labels* (``counter.inc(5, core=3)``), so one
metric name holds a family of series -- per-core cycle attribution,
per-queue occupancy, per-bus bytes.  :class:`Timeline` adds time-binned
aggregation: values recorded at simulation timestamps land in fixed-width
bins, giving occupancy/drop trajectories rather than end-of-run totals.

A module-global *active registry* (disabled unless something enables it)
lets instrumented subsystems pick up observability without threading a
registry argument through every constructor: the benchmark runner
installs an enabled registry, runs a scenario, and snapshots whatever the
simulation charged.
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, Iterator, List, Optional, Tuple

# The value store behind one histogram series (exact quantiles).
from ..simnet.stats import Histogram as _Reservoir

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    """Render a label key the Prometheus way: ``{core=3,kind=busy}``."""
    if not key:
        return ""
    return "{%s}" % ",".join("%s=%s" % kv for kv in key)


class Metric:
    """Base: a named family of labeled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, object] = {}

    def __len__(self) -> int:
        return len(self._series)


class Counter(Metric):
    """A monotonically increasing labeled count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def bind(self, **labels):
        """A pre-resolved incrementer for one label set.

        Hot paths call the returned closure instead of :meth:`inc`, so
        the label canonicalization (dict build + sort + str) happens
        once at bind time rather than per charge.  The series itself is
        still created lazily on first increment, so binding alone does
        not change snapshots.
        """
        key = _label_key(labels)
        series = self._series
        get = series.get

        def inc(amount: float = 1.0) -> None:
            series[key] = get(key, 0.0) + amount

        return inc

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> Dict[str, float]:
        return {_label_str(k): float(v)
                for k, v in sorted(self._series.items())}


class Gauge(Metric):
    """A labeled value that can move both ways (occupancy, utilization)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + delta

    def bind(self, **labels):
        """A pre-resolved setter for one label set (see
        :meth:`Counter.bind`).

        Last-writer-wins, like :meth:`set`; the parallel epoch loop
        binds one setter per partition and updates it every barrier.
        """
        key = _label_key(labels)
        series = self._series

        def set(value: float) -> None:
            series[key] = float(value)

        return set

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return {_label_str(k): float(v)
                for k, v in sorted(self._series.items())}


def _summary(series: _Reservoir) -> Dict[str, float]:
    """The snapshot form of one histogram series."""
    # float() strips numpy scalars so snapshots stay JSON-able.
    return {
        "count": len(series),
        "mean": float(series.mean()),
        "min": float(series.min()),
        "p50": float(series.quantile(0.50)),
        "p90": float(series.quantile(0.90)),
        "p99": float(series.quantile(0.99)),
        "max": float(series.max()),
    }


class Histogram(Metric):
    """Labeled value distributions with exact quantiles."""

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Reservoir()
        series.observe(value)

    def bind(self, **labels):
        """A pre-resolved observer for one label set (see
        :meth:`Counter.bind`)."""
        key = _label_key(labels)
        store = self._series

        def observe(value: float) -> None:
            series = store.get(key)
            if series is None:
                series = store[key] = _Reservoir()
            series.observe(value)

        return observe

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return len(series) if series is not None else 0

    def quantile(self, q: float, **labels) -> float:
        series = self._series.get(_label_key(labels))
        if series is None:
            raise ValueError("no series %r for labels %r"
                             % (self.name, labels))
        return series.quantile(q)

    def summary(self, **labels) -> Dict[str, float]:
        series = self._series.get(_label_key(labels))
        if series is None:
            raise ValueError("no series %r for labels %r"
                             % (self.name, labels))
        return _summary(series)

    def series(self) -> Dict[str, Dict[str, float]]:
        return {_label_str(k): _summary(r)
                for k, r in sorted(self._series.items())}


class _TimelineSeries:
    """Per-bin (sum, count, max) aggregates for one label set."""

    __slots__ = ("bins",)

    def __init__(self):
        # bin index -> [sum, count, max]
        self.bins: Dict[int, List[float]] = {}

    def record(self, index: int, value: float) -> None:
        cell = self.bins.get(index)
        if cell is None:
            self.bins[index] = [value, 1, value]
        else:
            cell[0] += value
            cell[1] += 1
            if value > cell[2]:
                cell[2] = value


class Timeline(Metric):
    """Values binned into fixed-width windows of simulation time.

    ``record(t, v)`` adds ``v`` to the bin containing ``t``; each bin
    keeps sum, sample count, and max, so the same timeline serves both
    *accumulating* signals (drops per window: read the sums) and
    *sampled* signals (queue occupancy: read mean or max per window).
    """

    kind = "timeline"

    def __init__(self, name: str, bin_sec: float, help: str = ""):
        if bin_sec <= 0:
            raise ValueError("timeline bin width must be positive")
        super().__init__(name, help)
        self.bin_sec = bin_sec

    def record(self, time: float, value: float = 1.0, **labels) -> None:
        if time < 0:
            raise ValueError("timeline times are simulation seconds >= 0")
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _TimelineSeries()
        series.record(int(time / self.bin_sec), value)

    def bind(self, **labels):
        """A pre-resolved recorder for one label set.

        The returned closure inlines the bin update (no label
        canonicalization, no method dispatch per sample) -- the form the
        DES engine uses for its per-event ``sim_events`` timeline.
        Negative timestamps are rejected at :meth:`record` only; bound
        recorders trust their callers (simulation clocks never run
        backwards).
        """
        key = _label_key(labels)
        store = self._series
        bin_sec = self.bin_sec

        def record(time: float, value: float = 1.0) -> None:
            series = store.get(key)
            if series is None:
                series = store[key] = _TimelineSeries()
            bins = series.bins
            index = int(time / bin_sec)
            cell = bins.get(index)
            if cell is None:
                bins[index] = [value, 1, value]
            else:
                cell[0] += value
                cell[1] += 1
                if value > cell[2]:
                    cell[2] = value

        return record

    def bins(self, **labels) -> List[Tuple[float, float, int, float]]:
        """Sorted ``(bin_start_sec, sum, count, max)`` rows for one series."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return []
        return [(index * self.bin_sec, cell[0], int(cell[1]), cell[2])
                for index, cell in sorted(series.bins.items())]

    def totals(self, **labels) -> Dict[str, float]:
        rows = self.bins(**labels)
        if not rows:
            return {"sum": 0.0, "count": 0, "peak": 0.0, "bins": 0}
        return {"sum": sum(r[1] for r in rows),
                "count": sum(r[2] for r in rows),
                "peak": max(r[3] for r in rows),
                "bins": len(rows)}

    def series(self, max_bins: int = 100) -> Dict[str, dict]:
        """JSON-able view; long series are coarsened to ``max_bins``."""
        out = {}
        for key in sorted(self._series):
            labels = dict(key)
            rows = self.bins(**labels)
            merged = _coarsen(rows, max_bins)
            out[_label_str(key)] = {
                "bin_sec": self.bin_sec,
                "totals": self.totals(**labels),
                "bins": [[round(t, 9), float(s), c, float(m)]
                         for t, s, c, m in merged],
            }
        return out


def _coarsen(rows: List[Tuple[float, float, int, float]],
             max_bins: int) -> List[Tuple[float, float, int, float]]:
    """Merge adjacent bins so at most ``max_bins`` rows survive."""
    if len(rows) <= max_bins:
        return rows
    group = math.ceil(len(rows) / max_bins)
    merged = []
    for start in range(0, len(rows), group):
        chunk = rows[start:start + group]
        merged.append((chunk[0][0],
                       sum(r[1] for r in chunk),
                       sum(r[2] for r in chunk),
                       max(r[3] for r in chunk)))
    return merged


class MetricsRegistry:
    """A named collection of metrics plus sampling configuration.

    ``enabled`` is the master switch instrumented code checks before
    doing any work; a disabled registry costs one attribute read per
    charge site.  ``timeline_bin_sec`` sets the default bin width for
    timelines created through the registry, and ``trace_sample_every``
    configures the registry's packet-path :class:`~repro.obs.trace
    .TraceSampler` (1-in-N sampling; see :mod:`repro.obs.trace`).
    ``profile=True`` additionally attaches a :class:`~repro.obs.profile
    .SpanProfiler` the DES hot paths charge hierarchical cycle/latency
    spans to (``registry.profiler`` is None otherwise, so profiling has
    its own on/off switch on top of ``enabled``).
    """

    def __init__(self, enabled: bool = True,
                 timeline_bin_sec: float = 1e-4,
                 trace_sample_every: int = 64,
                 profile: bool = False):
        from .profile import SpanProfiler
        from .trace import TraceSampler
        self.enabled = enabled
        self.timeline_bin_sec = timeline_bin_sec
        self._metrics: Dict[str, Metric] = {}
        self.tracer = TraceSampler(sample_every=trace_sample_every)
        self.profiler = SpanProfiler() if profile else None

    # -- metric construction (get-or-create, type-checked) ----------------

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, **kwargs) if kwargs else \
                cls(name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r is a %s, not a %s"
                            % (name, metric.kind, cls.kind))
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def timeline(self, name: str, bin_sec: Optional[float] = None,
                 help: str = "") -> Timeline:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Timeline(name, bin_sec or self.timeline_bin_sec,
                              help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, Timeline):
            raise TypeError("metric %r is a %s, not a timeline"
                            % (name, metric.kind))
        return metric

    # -- introspection -----------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every recorded series (configuration survives)."""
        self._metrics.clear()
        self.tracer.reset()
        if self.profiler is not None:
            self.profiler.reset()

    # -- cross-worker aggregation ------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's recordings into this one.

        This is the reduction step of the parallel DES runner: each
        worker records into a private registry and the parent merges them
        in partition-id order.  Merge semantics per metric kind:

        * counters -- per-series sums;
        * gauges -- per-series last-writer-wins (series are expected to
          be disjoint across workers; partition-id order makes a
          conflict deterministic anyway);
        * histograms -- reservoir concatenation (summaries sort first,
          so results depend only on the observed multiset);
        * timelines -- per-bin cell merge (sum += sum, count += count,
          max = max), requiring equal bin widths;
        * traces -- union by packet id, keeping the longest hop list
          (a resumed downstream copy supersedes its upstream prefix);
        * profiler frames -- per-path self-time sums.

        Snapshots render every section in sorted order, so a merged
        snapshot is insensitive to dict insertion order.
        """
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            if isinstance(theirs, Counter):
                mine = self.counter(name, help=theirs.help)
                for key, value in theirs._series.items():
                    mine._series[key] = mine._series.get(key, 0.0) + value
            elif isinstance(theirs, Gauge):
                mine = self.gauge(name, help=theirs.help)
                mine._series.update(theirs._series)
            elif isinstance(theirs, Timeline):
                mine = self.timeline(name, bin_sec=theirs.bin_sec,
                                     help=theirs.help)
                if mine.bin_sec != theirs.bin_sec:
                    raise ValueError(
                        "cannot merge timeline %r: bin_sec %g != %g"
                        % (name, mine.bin_sec, theirs.bin_sec))
                for key, series in theirs._series.items():
                    dest = mine._series.get(key)
                    if dest is None:
                        dest = mine._series[key] = _TimelineSeries()
                    for index, cell in series.bins.items():
                        mcell = dest.bins.get(index)
                        if mcell is None:
                            dest.bins[index] = list(cell)
                        else:
                            mcell[0] += cell[0]
                            mcell[1] += cell[1]
                            if cell[2] > mcell[2]:
                                mcell[2] = cell[2]
            elif isinstance(theirs, Histogram):
                mine = self.histogram(name, help=theirs.help)
                for key, reservoir in theirs._series.items():
                    dest = mine._series.get(key)
                    if dest is None:
                        dest = mine._series[key] = _Reservoir()
                    dest.extend(reservoir)
        self.tracer.merge(other.tracer)
        if self.profiler is not None and other.profiler is not None:
            self.profiler.merge(other.profiler)

    def snapshot(self, max_bins: int = 100,
                 max_traces: int = 32) -> dict:
        """A JSON-able dump of everything recorded so far."""
        counters, gauges, histograms, timelines = {}, {}, {}, {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.series()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.series()
            elif isinstance(metric, Histogram):
                histograms[name] = metric.series()
            elif isinstance(metric, Timeline):
                timelines[name] = metric.series(max_bins=max_bins)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "timelines": timelines,
            "traces": {
                "sampled": self.tracer.sampled,
                "seen": self.tracer.seen,
                "sample_every": self.tracer.sample_every,
                "paths": [t.to_dict()
                          for t in self.tracer.traces[:max_traces]],
            },
            "profile": (self.profiler.to_dict()
                        if self.profiler is not None else None),
        }


#: The default registry instrumented code falls back to.  Disabled, so a
#: plain test run pays only the ``enabled`` check per charge site.
_ACTIVE = MetricsRegistry(enabled=False)


def active_registry() -> MetricsRegistry:
    """The registry instrumentation charges when none is passed in."""
    return _ACTIVE


def set_active_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global fallback; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope an active registry (the benchmark runner's idiom)."""
    previous = set_active_registry(registry)
    try:
        yield registry
    finally:
        set_active_registry(previous)
