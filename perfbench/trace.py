"""Tracing from outside the program: spans, and profile bucketing.

Two instruments, both owned by the benchmark so that refactors inside
``repro`` cannot break them:

* :class:`Tracer` records explicit spans (name, start, end, parent,
  workload id) around the calls ``perfbench/entrypoints.py`` makes into
  a layer, keeps them in memory, and renders Chrome trace-event JSON.
* :func:`bucket_profile` folds a ``cProfile`` run into per-layer self
  time.  A layer is the ``repro.<package>`` a function's *file path*
  sits in -- no function names -- and builtin/stdlib time is charged to
  the layer that called it (through the pstats caller table), so a
  layer's self time is its own work, not its children's.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``src/repro/`` packages on some workload's path; everything else in
#: ``repro`` (and the harness's own glue) lands in ``other``.
LAYERS = ("simnet", "core", "net", "workloads", "click", "routing",
          "control", "parallel", "obs", "costs", "hw", "other")

#: stdlib modules whose time, when charged to ``parallel``, counts as
#: inter-process communication (``parallel.ipc_self_s``).
IPC_MODULES = ("pickle", "multiprocessing", "concurrent", "threading",
               "selectors", "queue")


class Span:
    __slots__ = ("index", "name", "start", "end", "parent")

    def __init__(self, index: int, name: str, start: float,
                 parent: Optional[int]):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, workload: str, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(span)
        self._stack.append(span.index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus what its child spans cover."""
        own = {span.index: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def durations(self) -> Dict[str, float]:
        """Total duration per span name (a name may recur)."""
        total: Dict[str, float] = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.duration
        return total

    def chrome_trace(
            self, layer_self: Optional[Dict[str, float]] = None) -> dict:
        """Chrome trace-event JSON (load in Perfetto / chrome://tracing).

        Track 1 holds the explicit spans.  Track 2, when ``layer_self``
        is given, lays the profiled per-layer self times end to end
        under the ``run`` span, widest first.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.spans[0].start
        own = self.self_times()
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "spans (perfbench/entrypoints.py)"}},
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "perfbench %s" % self.workload}},
        ]
        for span in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": span.name,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "workload": self.workload,
                    "parent": (self.spans[span.parent].name
                               if span.parent is not None else None),
                    "self_us": own[span.index] * 1e6,
                },
            })
        run = next((s for s in self.spans if s.name == "run"), None)
        if layer_self and run is not None:
            events.append(
                {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name",
                 "args": {"name": "layer self time (cProfile, run span)"}})
            cursor = (run.start - origin) * 1e6
            for layer, seconds in sorted(layer_self.items(),
                                         key=lambda item: -item[1]):
                if seconds <= 0:
                    continue
                events.append({
                    "ph": "X", "pid": 1, "tid": 2, "name": layer,
                    "ts": cursor, "dur": seconds * 1e6,
                    "args": {"workload": self.workload,
                             "self_s": seconds}})
                cursor += seconds * 1e6
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- profile bucketing --------------------------------------------------------

FuncKey = Tuple[str, int, str]


def layer_of(func: FuncKey) -> Optional[str]:
    """The layer a profiled function belongs to, from its file path
    alone; ``None`` for builtins, the stdlib and the harness."""
    parts = func[0].replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            package = parts[i + 1]
            if package.endswith(".py"):
                return "other"            # repro/units.py, repro/cli.py
            return package if package in LAYERS else "other"
    return None


def is_ipc(func: FuncKey) -> bool:
    """Whether a non-layer function belongs to the IPC machinery."""
    filename, _, name = func
    if filename == "~":                   # builtin: ``<... _pickle.dumps>``
        return "pickle" in name
    parts = filename.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return stem in IPC_MODULES or any(part in IPC_MODULES
                                      for part in parts[:-1])


def bucket_profile(stats: Dict[FuncKey, tuple]):
    """Fold ``pstats.Stats(...).stats`` into per-layer self time.

    Returns ``(layers, ipc_s)``: ``layers[name] = {"self_s", "calls"}``
    for every name in :data:`LAYERS`, and the part of
    ``layers["parallel"]["self_s"]`` that came from IPC modules.

    A layer function's own ``tt`` is its layer's.  A non-layer function
    (builtin, stdlib, harness) has its per-caller ``tt`` pushed up the
    caller table until it reaches a layer function; where a non-layer
    caller itself has several callers the time is split by their
    cumulative-time share.  Time with no layer above it is ``other``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    memo: Dict[FuncKey, Dict[Tuple[str, bool], float]] = {}
    resolving = set()

    def resolve(func: FuncKey) -> Dict[Tuple[str, bool], float]:
        """Where a second arriving at ``func`` ends up: a distribution
        over (layer, crossed-an-IPC-module)."""
        layer = layer_of(func)
        if layer is not None:
            return {(layer, False): 1.0}
        if func in memo:
            return memo[func]
        if func in resolving:             # stdlib recursion: no new info
            return {}
        resolving.add(func)
        own_ipc = is_ipc(func)
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: 1.0 for caller in callers}
        dist: Dict[Tuple[str, bool], float] = {}
        for caller, weight in weights.items():
            for (name, ipc), share in resolve(caller).items():
                key = (name, ipc or own_ipc)
                dist[key] = dist.get(key, 0.0) + weight * share
        total = sum(dist.values())
        if total > 0:
            dist = {key: share / total for key, share in dist.items()}
        else:
            dist = {("other", False): 1.0}
        resolving.discard(func)
        memo[func] = dist
        return dist

    ipc_s = 0.0
    for func, (_, ncalls, tt, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            layers[layer]["self_s"] += tt
            layers[layer]["calls"] += ncalls
            continue
        own_ipc = is_ipc(func)
        unattributed = tt
        for caller, edge in callers.items():
            seconds = edge[2]
            unattributed -= seconds
            for (name, ipc), share in resolve(caller).items():
                layers[name]["self_s"] += seconds * share
                if name == "parallel" and (ipc or own_ipc):
                    ipc_s += seconds * share
        if unattributed > 0:              # a root frame: no caller edge
            layers["other"]["self_s"] += unattributed
    return layers, ipc_s
