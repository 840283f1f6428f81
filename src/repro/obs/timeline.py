"""Chrome-trace-event export: the parallel runtime as a Perfetto timeline.

:func:`chrome_trace` renders one :meth:`MetricsRegistry.snapshot()
<repro.obs.metrics.MetricsRegistry.snapshot>` -- live from a run or
loaded back out of a ``BENCH_*.json`` document's ``metrics`` section --
as a Chrome trace event document that Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing`` open unmodified.  Four process tracks:

========================  =============================================
pid 1 ``simulation``      epoch spans on the *simulation* clock (one
                          thread per partition, built from the
                          ``parallel_epoch_busy_seconds`` timeline's
                          bins) plus cross-partition transit
                          record/byte counter tracks
pid 2 ``wall clock``      per-partition compute/barrier spans
                          reconstructed on a wall-clock axis: each
                          partition's ``compute`` durations sum to its
                          ``busy_seconds``, each ``barrier`` span is
                          the stall waiting for the slowest sibling
pid 3 ``profile``         the run's :class:`~repro.obs.profile
                          .SpanProfiler` frames laid out as a static
                          flame chart (virtual units as microseconds;
                          self time precedes children within a frame)
pid 4 ``packets``         sampled, cross-partition-stitched
                          :class:`~repro.obs.trace.PathTrace` journeys
                          as per-packet threads, intervals named by the
                          latency-decomposition stage classifier
========================  =============================================

Determinism: the exporter is a pure function of the snapshot, so
re-exporting the same snapshot is byte-identical.  Everything on the
simulation clock (pids 1, 3, 4) is deterministic across reruns of a
seeded scenario -- packet ids are rebased to the run's smallest sampled
id for exactly this reason -- while pid 2 carries genuine wall-clock
measurements that vary run to run (span *counts* stay fixed; only
``ts``/``dur`` move).  ``tests/test_obs_timeline.py`` pins both halves
of that contract.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple

from .profile import _classify
from .schema import TRACE_SCHEMA, validate_trace

__all__ = ["PID_SIM", "PID_WALL", "PID_PROFILE", "PID_PACKETS",
           "chrome_trace", "write_trace_json", "validate_trace"]

PID_SIM = 1
PID_WALL = 2
PID_PROFILE = 3
PID_PACKETS = 4

_PROCESS_NAMES = {
    PID_SIM: "simulation (sim time)",
    PID_WALL: "parallel runtime (wall clock)",
    PID_PROFILE: "span profiler (virtual units)",
    PID_PACKETS: "sampled packets (sim time)",
}


def _parse_labels(label_str: str) -> Dict[str, str]:
    """Invert :func:`repro.obs.metrics._label_str`:
    ``"{partition=0,workers=2}"`` -> ``{"partition": "0", "workers":
    "2"}``.  Label values charged by the runner are plain integers, so
    splitting on ``,``/``=`` is safe."""
    if not label_str or label_str == "{}":
        return {}
    out = {}
    for part in label_str.strip("{}").split(","):
        key, _, value = part.partition("=")
        out[key] = value
    return out


def _partition_tid(labels: Dict[str, str]) -> int:
    """Stable thread id for a (workers, partition) label pair.  256
    partitions per worker-count band keeps ids unique well past the
    RB128 ambitions."""
    return int(labels.get("workers", 0)) * 256 + int(
        labels.get("partition", 0))


def _meta(pid: int, name: str, tid: Optional[int] = None) -> dict:
    event = {"ph": "M", "pid": pid,
             "name": "process_name" if tid is None else "thread_name",
             "args": {"name": name}}
    if tid is not None:
        event["tid"] = tid
    return event


def _timeline_bins(snapshot: dict, name: str) -> Dict[str, dict]:
    """``label_str -> series dict`` for one snapshot timeline, or {}."""
    return snapshot.get("timelines", {}).get(name) or {}


def _sim_events(snapshot: dict, events: List[dict]) -> None:
    """pid 1: epoch spans per partition on the simulation clock, plus
    transit record/byte counters at the barriers that carried them."""
    busy = _timeline_bins(snapshot, "parallel_epoch_busy_seconds")
    threads = set()
    for label_str in sorted(busy):
        labels = _parse_labels(label_str)
        tid = _partition_tid(labels)
        threads.add((tid, labels.get("workers", "?"),
                     labels.get("partition", "?")))
        series = busy[label_str]
        bin_usec = series["bin_sec"] * 1e6
        for start, _total, count, _peak in series["bins"]:
            events.append({"ph": "X", "pid": PID_SIM, "tid": tid,
                           "name": "epochs", "ts": start * 1e6,
                           "dur": bin_usec, "args": {"epochs": count}})
    for tid, workers, partition in sorted(threads):
        events.append(_meta(PID_SIM, "w%s partition %s" % (workers,
                                                           partition), tid))
    for metric, arg in (("parallel_transit_records", "records"),
                        ("parallel_transit_bytes", "bytes")):
        for label_str, series in sorted(
                _timeline_bins(snapshot, metric).items()):
            labels = _parse_labels(label_str)
            counter = "%s into w%s p%s" % (arg, labels.get("workers", "?"),
                                           labels.get("partition", "?"))
            for start, total, _count, _peak in series["bins"]:
                events.append({"ph": "C", "pid": PID_SIM, "name": counter,
                               "ts": start * 1e6, "args": {arg: total}})


def _wall_events(snapshot: dict, events: List[dict]) -> None:
    """pid 2: alternating compute/barrier spans per partition.

    The runner bins per-epoch busy and barrier-wait wall seconds at each
    epoch's *simulation* end time; here those bins are replayed onto a
    wall-clock axis per partition (cursor += span), so the ``compute``
    durations of one thread sum exactly to the values the runner
    charged -- i.e. to the partition's ``busy_seconds`` -- and gaps
    between partitions' final timestamps visualize the imbalance.
    """
    busy = _timeline_bins(snapshot, "parallel_epoch_busy_seconds")
    wait = _timeline_bins(snapshot, "parallel_epoch_barrier_seconds")
    for label_str in sorted(busy):
        labels = _parse_labels(label_str)
        tid = _partition_tid(labels)
        events.append(_meta(
            PID_WALL, "w%s partition %s" % (labels.get("workers", "?"),
                                            labels.get("partition", "?")),
            tid))
        busy_rows = {row[0]: row for row in busy[label_str]["bins"]}
        wait_rows = {row[0]: row
                     for row in wait.get(label_str, {}).get("bins", [])}
        cursor = 0.0
        for start in sorted(set(busy_rows) | set(wait_rows)):
            for name, row in (("compute", busy_rows.get(start)),
                              ("barrier", wait_rows.get(start))):
                if row is None:
                    continue
                dur = row[1] * 1e6
                events.append({"ph": "X", "pid": PID_WALL, "tid": tid,
                               "name": name, "ts": cursor, "dur": dur,
                               "args": {"epochs": row[2],
                                        "sim_end_sec": start}})
                cursor += dur


def _profile_events(snapshot: dict, events: List[dict]) -> None:
    """pid 3: the collapsed-stack profile as a static flame chart.

    Each depth-1 frame under the profiler root becomes a thread laid
    out from ts 0; within a frame, self value is placed before the
    children (sorted by name).  Values are unit-agnostic (cycles or
    microseconds depending on the runner) and are rendered as
    microseconds verbatim.
    """
    profile = snapshot.get("profile") or {}
    selfs: Dict[Tuple[str, ...], float] = {}
    for line in profile.get("collapsed") or []:
        path_str, _, value = line.rpartition(" ")
        if not path_str:
            continue
        path = tuple(path_str.split(";"))
        selfs[path] = selfs.get(path, 0.0) + float(value)
    if not selfs:
        return
    totals: Dict[Tuple[str, ...], float] = {}
    children: Dict[Tuple[str, ...], set] = {}
    for path, value in selfs.items():
        for depth in range(1, len(path) + 1):
            prefix = path[:depth]
            totals[prefix] = totals.get(prefix, 0.0) + value
            if depth > 1:
                children.setdefault(path[:depth - 1], set()).add(prefix)

    def place(prefix: Tuple[str, ...], start: float, tid: int) -> None:
        events.append({"ph": "X", "pid": PID_PROFILE, "tid": tid,
                       "name": prefix[-1], "ts": start,
                       "dur": totals[prefix],
                       "args": {"self": selfs.get(prefix, 0.0)}})
        cursor = start + selfs.get(prefix, 0.0)
        for child in sorted(children.get(prefix, ())):
            place(child, cursor, tid)
            cursor += totals[child]

    roots = sorted({path[:1] for path in totals})
    tid = 0
    for root in roots:
        for top in sorted(children.get(root, ())):
            events.append(_meta(PID_PROFILE, ";".join(top), tid))
            place(top, 0.0, tid)
            tid += 1


def _packet_events(snapshot: dict, events: List[dict]) -> None:
    """pid 4: one thread per sampled packet; spans between consecutive
    timestamped hops, named by the latency-decomposition stage
    classifier.  Packet ids are rebased to the run's smallest sampled id
    so seeded reruns export identical ids regardless of the process's
    global packet counter."""
    paths = snapshot.get("traces", {}).get("paths") or []
    ids = [p.get("packet_id", 0) for p in paths]
    base = min(ids) if ids else 0
    for tid, trace in enumerate(paths):
        packet = trace.get("packet_id", 0) - base
        events.append(_meta(PID_PACKETS, "packet %d" % packet, tid))
        hops = [(h["site"], h["time"]) for h in trace.get("hops", [])
                if h.get("time") is not None]
        for (prev_site, prev_time), (site, hop_time) in zip(hops, hops[1:]):
            if hop_time < prev_time:
                continue
            events.append({"ph": "X", "pid": PID_PACKETS, "tid": tid,
                           "name": _classify(prev_site, site),
                           "ts": prev_time * 1e6,
                           "dur": (hop_time - prev_time) * 1e6,
                           "args": {"from": prev_site, "to": site,
                                    "packet": packet}})
        if hops:
            events.append({"ph": "i", "pid": PID_PACKETS, "tid": tid,
                           "name": "sampled", "ts": hops[0][1] * 1e6,
                           "s": "t"})


def chrome_trace(name: str, snapshot: dict) -> dict:
    """A Chrome trace event document for one metrics snapshot.

    Always loadable -- tracks with nothing to show (no parallel run, no
    profiler, no sampled traces) are simply absent.  The result
    round-trips ``json.dumps(..., sort_keys=True)`` byte-identically
    for one snapshot.
    """
    events: List[dict] = []
    _sim_events(snapshot, events)
    _wall_events(snapshot, events)
    _profile_events(snapshot, events)
    _packet_events(snapshot, events)
    used = sorted({event["pid"] for event in events})
    events.extend(_meta(pid, _PROCESS_NAMES[pid]) for pid in used)
    spans = sum(1 for e in events if e["ph"] == "X")
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "metadata": {
            "schema": TRACE_SCHEMA,
            "name": name,
            "tracks": [_PROCESS_NAMES[pid] for pid in used],
            "events": len(events),
            "spans": spans,
        },
    }
    problems = validate_trace(doc)
    if problems:  # pragma: no cover - guards future format drift
        raise RuntimeError("exporter produced an invalid trace: %s"
                           % "; ".join(problems))
    return doc


def write_trace_json(doc: dict, out_dir) -> pathlib.Path:
    """Write ``TRACE_<name>.json`` (name from the doc's metadata)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("TRACE_%s.json" % doc["metadata"]["name"])
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
