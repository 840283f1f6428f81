"""Observability: metrics, packet-path tracing, and the benchmark harness.

Three layers:

* :mod:`repro.obs.metrics` -- :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timeline` behind a
  :class:`MetricsRegistry`.  The DES hot paths (``simnet.engine``,
  ``click.simrun``, the cluster nodes) charge the *active* registry,
  which is disabled by default; enable one to get per-core cycle
  attribution, per-queue occupancy/drop timelines, per-bus bytes, and
  per-hop VLB latency out of any run.
* :mod:`repro.obs.trace` -- 1-in-N sampled :class:`PathTrace` logs of
  individual packets' element/hop journeys.
* :mod:`repro.obs.profile` / :mod:`repro.obs.explain` -- the attribution
  layer: a deterministic :class:`SpanProfiler` (hierarchical cycle/
  latency spans with collapsed-stack output), per-packet latency
  decomposition with a conservation check (:func:`decompose_trace`),
  and :func:`explain_pipeline`, which joins the profile with the
  analytic solver to name the binding resource and cross-check the
  DES-observed bottleneck against the model's prediction
  (``python -m repro obs explain``).
* :mod:`repro.obs.benchrun` -- runs a registered paper scenario
  (:data:`repro.analysis.experiments.EXPERIMENTS`) with metrics on and
  emits a schema-versioned ``BENCH_<name>.json`` artifact
  (:mod:`repro.obs.schema`) of its declared scalars, which
  :mod:`repro.obs.compare` holds exactly against a committed baseline
  (``python -m repro obs {run,report,diff}``).
* :mod:`repro.obs.timeline` -- :func:`chrome_trace` renders any metrics
  snapshot (live or from a BENCH document) as a Perfetto-loadable
  Chrome-trace-event ``TRACE_<name>.json``: parallel epoch/barrier
  spans, profiler flame charts, and stitched packet journeys
  (``python -m repro obs timeline``).

Metric names charged by the built-in instrumentation:

=============================  ==========================================
``sim_events``                 timeline of DES events executed
``core_cycles{core,kind}``     cycles per core, ``kind=busy|empty``
``core_polls{core,kind}``      poll counts per core, same split
``bus_bytes{bus}``             bytes over memory/io/pcie/qpi
``rxq_occupancy{queue}``       RX-ring occupancy timeline (sampled)
``rxq_drops{queue}``           RX-ring drops per bin (delta)
``vlb_hop_latency_usec{role}`` per-hop latency, ``role`` = the hop's
                               receiving role (intermediate/output)
``vlb_path_hops``              nodes touched per delivered packet
``link_*{link}``               cluster cable occupancy/drops/bytes
``ext_occupancy{node}``        rate-limited external line backlog
=============================  ==========================================
"""

from .. import _lazy

#: Submodule -> the public names it defines; each loads on first use.
_EXPORTS = {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "Timeline", "active_registry", "set_active_registry",
                "use_registry"),
    "trace": ("PathTrace", "TraceSampler"),
    "profile": ("STAGES", "LatencyBreakdown", "SpanProfiler",
                "aggregate_breakdowns", "decompose_trace",
                "trace_delivered"),
    "explain": ("ExplainReport", "explain_from_registry",
                "explain_pipeline", "format_explain"),
    "timeline": ("chrome_trace", "write_trace_json"),
    "schema": ("BASELINE_SCHEMA", "BENCH_SCHEMA", "TRACE_SCHEMA",
               "validate_bench", "validate_trace"),
    "benchrun": ("QUICK_BENCHMARKS", "run_benchmark", "write_bench_json"),
    "compare": ("compare_docs", "make_baseline"),
}

__getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)
