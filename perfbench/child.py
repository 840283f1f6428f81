"""One repeat of one workload, in a fresh interpreter.

Run by the harness as ``python -m perfbench.child <workload> <seed>
<timed|traced>``; prints one JSON object as its last line of output.
A timed repeat runs with tracing off (no spans, no profiler).  A traced
repeat records spans, profiles the run span with ``cProfile``, runs the
isolated probes, and writes ``perfbench/out/trace_<workload>.json``.
"""

import time

_T0 = time.perf_counter()     # the earliest instant this process can read

import cProfile               # noqa: E402
import heapq                  # noqa: E402
import json                   # noqa: E402
import pstats                 # noqa: E402
import resource               # noqa: E402
import sys                    # noqa: E402

from . import OUT_DIR, entrypoints  # noqa: E402
from .stats import digest     # noqa: E402
from .trace import Tracer, bucket_profile  # noqa: E402

#: Spans whose duration is itself a per-layer metric.
SPAN_METRICS = {"routing.fib_build": "routing.fib_build_s",
                "routing.verify": "routing.verify_s",
                "obs.snapshot": "obs.snapshot_s"}


def calibrate(count: int = 60_000) -> float:
    """A fixed pure-Python heap + dict loop: the host's speed right now,
    independent of ``repro`` (see ``stats.host_scale``)."""
    heap, table, x = [], {}, 12345
    start = time.perf_counter()
    for i in range(count):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[x & 0xFFF] = i
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_probes(probes, metrics, missing) -> None:
    for name, probe in probes.items():
        try:
            metrics[name] = probe()
        except entrypoints.PROBE_MISSING:
            missing.append(name)


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    traced = mode == "traced"
    tracer = Tracer(name, enabled=traced)
    scenario = entrypoints.scenario(name)

    with tracer.span("setup"):
        with tracer.span("setup.import"):
            scenario.load()
        with tracer.span("setup.build"):
            scenario.build(seed, tracer)
    ready = resource.getrusage(resource.RUSAGE_SELF)
    setup_wall_s = time.perf_counter() - _T0
    calib_before = calibrate()

    profiler = cProfile.Profile() if traced else None
    reaped_rss_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    with tracer.span("run") as run_span:
        if profiler is not None:
            profiler.enable()
        try:
            scenario.run(tracer, traced)
        finally:
            if profiler is not None:
                profiler.disable()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Either side of the run, so the pair brackets the host's state
    # during it; other tenants only add time, so keep the faster one.
    calib_s = min(calib_before, calibrate())

    checks = scenario.check(tracer)
    scalars = scenario.scalars()
    result = {
        "workload": name, "seed": seed, "mode": mode,
        "wall_s": wall_s, "cpu_s": cpu_s,
        "setup_s": ready.ru_utime, "setup_sys_s": ready.ru_stime,
        "setup_wall_s": setup_wall_s, "peak_rss_mb": peak_rss_mb,
        "calib_s": calib_s,
        "checks": checks, "scalars": scalars, "digest": digest(scalars),
    }
    if traced:
        layers, ipc_s = bucket_profile(pstats.Stats(profiler).stats)
        # What the profiler's hooks cost between its own timestamps is
        # in the run span but in no function: book it, visibly, as
        # ``other`` so the layers add up to the span.
        profiled = sum(cell["self_s"] for cell in layers.values())
        layers["other"]["self_s"] += max(0.0, run_span.duration - profiled)
        metrics = dict(scenario.counts())
        for layer, cell in layers.items():
            metrics[layer + ".self_s"] = cell["self_s"]
            metrics[layer + ".calls"] = cell["calls"]
        metrics["parallel.ipc_self_s"] = ipc_s
        worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if worker_rss > reaped_rss_before:    # the run reaped workers
            metrics["parallel.worker_peak_rss_mb"] = worker_rss / 1024
        durations = tracer.durations()
        for span_name, metric in SPAN_METRICS.items():
            if span_name in durations:
                metrics[metric] = durations[span_name]
        missing = []
        _run_probes(entrypoints.GENERIC_PROBES, metrics, missing)
        _run_probes(scenario.probes(), metrics, missing)
        arrivals = metrics.get("workloads.arrivals")
        if arrivals and "workloads.realize_s" in metrics:
            metrics["workloads.realize_us_per_pkt"] = (
                metrics["workloads.realize_s"] / arrivals * 1e6)
        layer_self = {layer: cell["self_s"] for layer, cell in layers.items()}
        result.update({
            "metrics": metrics, "missing": missing,
            "profile_coverage": profiled / run_span.duration,
        })
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / ("trace_%s.json" % name)).write_text(
            json.dumps(tracer.chrome_trace(layer_self), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
