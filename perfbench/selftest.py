"""Tests of the harness's own arithmetic (not of ``repro``).

Run with ``python3 -m pytest perfbench/selftest.py``; tier-1's
``testpaths = ["tests"]`` does not collect this file.
"""

import json
import pathlib

import pytest

from perfbench import stats
from perfbench.trace import LAYERS, Tracer, bucket_profile, is_ipc, layer_of
from perfbench.workloads import BENCHMARK_WORKLOADS, RATIO_BASE, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- spans --------------------------------------------------------------------

def test_span_self_time_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer("w", clock=clock)
    with tracer.span("run"):                      # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):                    # 1 .. 4
            clock.now = 2.0
            with tracer.span("a.inner"):          # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        with tracer.span("b"):                    # 4 .. 9, sibling of a
            clock.now = 9.0
        clock.now = 10.0
    own = {tracer.spans[i].name: t for i, t in tracer.self_times().items()}
    assert own == {"run": 10.0 - 3.0 - 5.0, "a": 3.0 - 1.0,
                   "a.inner": 1.0, "b": 5.0}
    assert sum(own.values()) == pytest.approx(10.0)
    parents = {s.name: (tracer.spans[s.parent].name
                        if s.parent is not None else None)
               for s in tracer.spans}
    assert parents == {"run": None, "a": "run", "a.inner": "a", "b": "run"}


def test_disabled_tracer_records_nothing():
    tracer = Tracer("w", enabled=False)
    with tracer.span("run") as span:
        assert span is None
    assert tracer.spans == []


def test_chrome_trace_carries_workload_parent_and_layer_track():
    clock = FakeClock()
    tracer = Tracer("wl", clock=clock)
    with tracer.span("run"):
        with tracer.span("core.simulate"):
            clock.now = 2.0
    trace = tracer.chrome_trace({"core": 1.5, "simnet": 0.5, "hw": 0.0})
    spans = [e for e in trace["traceEvents"]
             if e["ph"] == "X" and e["tid"] == 1]
    assert [e["name"] for e in spans] == ["run", "core.simulate"]
    assert spans[1]["args"] == {"workload": "wl", "parent": "run",
                                "self_us": 2e6}
    layers = [e for e in trace["traceEvents"]
              if e["ph"] == "X" and e["tid"] == 2]
    assert [e["name"] for e in layers] == ["core", "simnet"]   # widest first
    assert layers[1]["ts"] == pytest.approx(1.5e6)
    json.dumps(trace)


# -- profile bucketing ----------------------------------------------------------

CORE = ("/x/src/repro/core/node.py", 10, "ingress")
SIMNET = ("/x/src/repro/simnet/engine.py", 400, "run")
PARALLEL = ("/x/src/repro/parallel/runner.py", 200, "advance_all")
UNITS = ("/x/src/repro/units.py", 5, "to_usec")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
ACQUIRE = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")
FUTURES = ("/usr/lib/python3.11/concurrent/futures/_base.py", 428, "result")
THREADING = ("/usr/lib/python3.11/threading.py", 288, "wait")
HARNESS = ("/x/perfbench/entrypoints.py", 150, "run")


def edge(tt, ct=None, calls=1):
    return (calls, calls, tt, tt if ct is None else ct)


def test_layer_is_the_package_in_the_file_path_not_the_function_name():
    assert layer_of(CORE) == "core"
    assert layer_of(("/x/src/repro/core/renamed.py", 1, "anything")) == "core"
    assert layer_of(UNITS) == "other"
    assert layer_of(("/x/src/repro/stateful/nf.py", 1, "f")) == "other"
    assert layer_of(HEAPPUSH) is None
    assert layer_of(FUTURES) is None
    assert layer_of(HARNESS) is None
    assert is_ipc(FUTURES) and is_ipc(THREADING)
    assert is_ipc(("~", 0, "<built-in method _pickle.dumps>"))
    assert not is_ipc(HEAPPUSH) and not is_ipc(ACQUIRE)


def test_builtin_time_is_charged_to_the_calling_layer():
    # heappush: 3 s called from simnet, 1 s from core.
    profile = {
        HARNESS: (1, 1, 0.5, 20.0, {}),
        SIMNET: (1, 1, 5.0, 19.5, {HARNESS: edge(5.0, 19.5)}),
        CORE: (100, 100, 7.0, 10.5, {SIMNET: edge(7.0, 10.5, 100)}),
        UNITS: (50, 50, 0.5, 0.5, {CORE: edge(0.5, calls=50)}),
        HEAPPUSH: (40, 40, 4.0, 4.0, {SIMNET: edge(3.0, calls=30),
                                      CORE: edge(1.0, calls=10)}),
    }
    layers, ipc_s = bucket_profile(profile)
    assert layers["simnet"] == {"self_s": 5.0 + 3.0, "calls": 1}
    assert layers["core"] == {"self_s": 7.0 + 1.0, "calls": 100}
    # repro top-level modules and the harness's root frame are `other`.
    assert layers["other"]["self_s"] == pytest.approx(0.5 + 0.5)
    assert ipc_s == 0.0
    assert sum(c["self_s"] for c in layers.values()) == pytest.approx(17.0)
    assert set(layers) == set(LAYERS)


def test_stdlib_chain_climbs_to_the_layer_and_is_tagged_ipc():
    # parallel -> futures.result -> threading.wait -> lock.acquire (2 s
    # of waiting), and simnet -> lock.acquire directly (not IPC).
    profile = {
        PARALLEL: (1, 1, 1.0, 3.4, {}),
        SIMNET: (1, 1, 1.0, 1.5, {}),
        FUTURES: (5, 5, 0.1, 2.4, {PARALLEL: edge(0.1, 2.4, 5)}),
        THREADING: (5, 5, 0.3, 2.3, {FUTURES: edge(0.3, 2.3, 5)}),
        ACQUIRE: (7, 7, 2.5, 2.5, {THREADING: edge(2.0, calls=5),
                                   SIMNET: edge(0.5, calls=2)}),
    }
    layers, ipc_s = bucket_profile(profile)
    assert layers["parallel"]["self_s"] == pytest.approx(1.0 + 0.1 + 0.3 + 2.0)
    assert layers["parallel"]["calls"] == 1
    assert ipc_s == pytest.approx(0.1 + 0.3 + 2.0)
    assert layers["simnet"]["self_s"] == pytest.approx(1.0 + 0.5)


def test_shared_stdlib_helper_splits_by_cumulative_time():
    helper = ("/usr/lib/python3.11/random.py", 1, "choices")
    bisect = ("~", 0, "<built-in method _bisect.bisect>")
    profile = {
        CORE: (1, 1, 1.0, 4.0, {}),
        SIMNET: (1, 1, 1.0, 2.0, {}),
        helper: (2, 2, 0.0, 4.0, {CORE: edge(0.0, 3.0), SIMNET: edge(0.0, 1.0)}),
        bisect: (2, 2, 4.0, 4.0, {helper: edge(4.0, calls=2)}),
    }
    layers, _ = bucket_profile(profile)
    assert layers["core"]["self_s"] == pytest.approx(1.0 + 3.0)
    assert layers["simnet"]["self_s"] == pytest.approx(1.0 + 1.0)


def test_recursive_stdlib_frames_terminate():
    a = ("/usr/lib/python3.11/copy.py", 1, "deepcopy")
    b = ("/usr/lib/python3.11/copy.py", 2, "_deepcopy_list")
    profile = {
        CORE: (1, 1, 1.0, 3.0, {}),
        a: (3, 1, 1.0, 2.0, {CORE: edge(0.5, 2.0), b: edge(0.5, 1.0)}),
        b: (2, 2, 1.0, 1.5, {a: edge(1.0, 1.5)}),
    }
    layers, _ = bucket_profile(profile)
    assert layers["core"]["self_s"] == pytest.approx(3.0)


# -- digest -----------------------------------------------------------------------

SCALARS = {"offered_packets": 31260, "delivered_packets": 27391,
           "events_run": 146676, "latency_p99_us": 48.69658605349283,
           "reordered_fraction": 0.0}


def test_digest_is_stable_and_order_independent():
    assert stats.digest(SCALARS) == stats.digest(dict(reversed(SCALARS.items())))
    assert len(stats.digest(SCALARS)) == 64


@pytest.mark.parametrize("key,value", [
    ("events_run", 146677),
    ("latency_p99_us", 48.696586053492836),      # one ulp
    ("reordered_fraction", 1e-300),
])
def test_one_changed_scalar_changes_the_digest(key, value):
    assert stats.digest(dict(SCALARS, **{key: value})) != stats.digest(SCALARS)


# -- summaries and bounds ---------------------------------------------------------

def test_minimum_median_and_quartiles_match_the_drivers_method():
    summary = stats.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary == {"value": 1.0, "median": 3.0, "q1": 1.5, "q3": 4.5,
                       "n": 5}
    assert stats.spread(summary) == pytest.approx(1.0)
    assert stats.summarize([2.0]) == {"value": 2.0, "median": 2.0,
                                      "q1": 2.0, "q3": 2.0, "n": 1}
    with pytest.raises(ValueError):
        stats.summarize([])


def test_bound_comparison_respects_direction():
    assert stats.worsening(10.0, 10.7, "lower") == pytest.approx(0.07)
    assert stats.worsening(10.0, 9.0, "lower") == pytest.approx(-0.10)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(10.0, 5.0, "lower") < 0 < 0.08   # an improvement
    with pytest.raises(ValueError):
        stats.worsening(1.0, 2.0, "sideways")


def test_noisy_flag_trips_above_five_percent_spread():
    assert not stats.is_noisy([0.100, 0.101, 0.100, 0.102, 0.101])
    assert stats.is_noisy([0.100, 0.100, 0.104, 0.111, 0.112])


# -- the committed contract agrees with the code ---------------------------------

def test_benchmark_json_names_the_tables_in_the_code():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == \
        list(BENCHMARK_WORKLOADS)
    assert benchmark["paths"] == ["perfbench"]
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    for layer in LAYERS:
        assert {layer + ".self_s", layer + ".calls"} <= per_layer
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    assert set(end_to_end) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    # The driver's contract: set-up time carries the largest bound, and
    # no bound exceeds a quarter.
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()) <= 0.25
    for name in BENCHMARK_WORKLOADS:
        twin = WORKLOADS[name].twin
        assert twin is None or WORKLOADS[twin].twin == name
    per_layer_names = {m["name"] for m in benchmark["per_layer"]}
    for name, (base, metric, direction) in RATIO_BASE.items():
        assert WORKLOADS[base].params["until"] == \
            WORKLOADS[name].params["until"]
        assert metric in per_layer_names
        assert direction in ("this/base", "base/this")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert set(digests["digests"]) == set(BENCHMARK_WORKLOADS)
    for name in BENCHMARK_WORKLOADS:            # twins were recorded equal
        twin = WORKLOADS[name].twin
        assert twin is None or \
            digests["digests"][twin] == digests["digests"][name]
