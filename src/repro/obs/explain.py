"""Name the binding resource and prove it: profile + model, joined.

The paper's signature move (Sec. 5.3, Figs. 9-10) is *bottleneck
deconstruction*: measure per-packet load on every shared component,
compare each against its empirical capacity bound, and name the one that
binds.  :func:`explain_pipeline` does that twice for the same pipeline --
once analytically (:func:`repro.costs.compile_loads` through the
loss-free-rate solver) and once from an instrumented DES run (cycle and
bus-byte counters, corrected for empty polls per Sec. 5.3) -- and
cross-checks that both name the same bottleneck.  The attached span
profile says *which elements* put the load there, and the latency
decomposition says where a traced packet's time went.

Everything heavy is imported lazily so ``repro.obs`` stays importable
without dragging in the click/perfmodel stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..calibration import EMPTY_POLL_CYCLES
from ..results import RunResult
from .profile import aggregate_breakdowns

#: Components the analytic solver and the observed join both price.
#: (The NIC input cap is deliberately excluded: ``analysis.bottleneck``
#: deconstructs the *server internals*, and the DES offers load below
#: the cap anyway.)
COMPONENTS = ("cpu", "memory", "io", "pcie", "qpi")


@dataclass
class ExplainReport(RunResult):
    """Analytic prediction vs DES observation for one pipeline point."""

    _summary_fields = ("pipeline", "packet_bytes", "predicted_bottleneck",
                       "observed_bottleneck", "agreement")

    pipeline: str
    packet_bytes: int
    predicted_bottleneck: str
    observed_bottleneck: str
    predicted_rate_gbps: float
    #: Per-packet loads (cycles for cpu, bytes for buses).
    predicted_loads: Dict[str, float]
    observed_loads: Dict[str, float]
    #: rate limit of each component over the predicted rate (>= 1.0;
    #: exactly 1.0 for the binding component).
    predicted_headroom: Dict[str, float]
    #: Component utilization at the observed forwarding rate, and its
    #: inverse (how much faster the run could go per component).
    observed_utilization: Dict[str, float]
    observed_headroom: Dict[str, float]
    offered_gbps: float
    achieved_gbps: float
    forwarded_packets: int
    duration_sec: float
    #: Hottest elements by profiled self cycles (desc).
    top_elements: List[dict] = field(default_factory=list)
    #: Aggregate latency decomposition of the run's sampled traces.
    latency: Optional[dict] = None

    @property
    def agreement(self) -> bool:
        """Do the model and the instrumented run name the same resource?"""
        return self.predicted_bottleneck == self.observed_bottleneck


def cpu_load_from_polling(total_cycles: float, total_packets: int,
                          empty_polls: int,
                          cycles_per_empty_poll: float =
                          EMPTY_POLL_CYCLES) -> float:
    """The Sec. 5.3 empty-poll correction.

    Click polls continuously, so raw CPU utilization is always 100 %;
    the true per-packet load deducts ``empty_polls x ce`` from the cycle
    total before dividing by packets.
    """
    if total_packets <= 0:
        raise ValueError("need >= 1 packet")
    if empty_polls < 0 or total_cycles < 0:
        raise ValueError("counts cannot be negative")
    useful = total_cycles - empty_polls * cycles_per_empty_poll
    if useful < 0:
        raise ValueError("empty-poll cycles exceed total cycles")
    return useful / total_packets


def _observed_loads(registry, forwarded: int, empty_polls: int,
                    empty_poll_cycles: float) -> Dict[str, float]:
    """Per-packet component loads from a run's counters (Sec. 5.3)."""
    loads = {}
    core_cycles = registry.get("core_cycles")
    if core_cycles is not None and forwarded > 0:
        loads["cpu"] = cpu_load_from_polling(
            core_cycles.total(), forwarded, empty_polls, empty_poll_cycles)
    bus_bytes = registry.get("bus_bytes")
    if bus_bytes is not None and forwarded > 0:
        for bus in ("memory", "io", "pcie", "qpi"):
            value = bus_bytes.value(bus=bus)
            if value:
                loads[bus] = value / forwarded
    return loads


def _capacity_per_sec(component: str, spec, bounds) -> float:
    """Empirical capacity in load units per second (cycles/s or bytes/s)."""
    if component == "cpu":
        return spec.cycles_per_second
    return bounds[component].empirical / 8.0


def _top_elements(profiler, limit: int = 8) -> List[dict]:
    """Hottest leaf frames of the span profile, empty polls excluded."""
    if profiler is None or not len(profiler):
        return []
    totals = profiler.leaf_totals(skip=("empty_poll",))
    grand = sum(totals.values())
    rows = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    return [{"element": name, "self": value,
             "fraction": value / grand if grand else 0.0}
            for name, value in rows]


def explain_pipeline(pipeline: str, packet_bytes: int = 64,
                     spec=None, config=None,
                     duration_sec: float = 1e-3,
                     load_fraction: float = 0.6,
                     seed: int = 0, server=None,
                     metrics=None) -> ExplainReport:
    """Predict a pipeline's bottleneck analytically, observe it in the
    DES, and return the joined report.

    ``pipeline`` is a :data:`~repro.click.pipelines.PRESET_PIPELINES`
    name or raw Click text.  The DES is offered ``load_fraction`` of the
    predicted loss-free rate (below saturation, so the run is steady and
    the per-packet loads are clean).  ``metrics`` may supply an enabled
    registry; by default the run gets its own with profiling and dense
    trace sampling switched on.
    """
    from ..click.pipelines import build_pipeline
    from ..click.simrun import TimedPipelineRun
    from ..costs import DEFAULT_CONFIG, compile_loads
    from ..errors import ConfigurationError
    from ..hw.presets import NEHALEM, nehalem_server
    from ..perfmodel.bounds import bounds_for
    from ..perfmodel.throughput import rate_from_loads
    from .metrics import MetricsRegistry

    spec = spec if spec is not None else NEHALEM
    config = config if config is not None else DEFAULT_CONFIG
    if not 0 < load_fraction < 1:
        raise ConfigurationError("load_fraction must be in (0, 1)")
    server = server if server is not None else nehalem_server()

    # Analytic half: compile the graph, solve on the same basis as
    # analysis.bottleneck.deconstruct (empirical bounds, no NIC cap).
    graph = build_pipeline(pipeline, server)
    loads = compile_loads(graph, packet_bytes, config=config, spec=spec)
    predicted = rate_from_loads(loads, packet_bytes, spec=spec,
                                empirical_bounds=True, nic_limited=False)
    predicted_loads = {"cpu": loads.cpu_cycles, "memory": loads.mem_bytes,
                       "io": loads.io_bytes, "pcie": loads.pcie_bytes,
                       "qpi": loads.qpi_bytes}
    predicted_loads = {name: value
                       for name, value in predicted_loads.items() if value}
    predicted_headroom = {
        name: limit / predicted.rate_pps
        for name, limit in predicted.component_rates_pps.items()}

    # Observed half: an instrumented DES run below saturation.
    registry = metrics if metrics is not None else MetricsRegistry(
        enabled=True, profile=True, trace_sample_every=16)
    run = TimedPipelineRun(server, pipeline, packet_bytes=packet_bytes,
                           metrics=registry)
    offered_bps = load_fraction * predicted.rate_bps
    report = run.run(offered_bps, duration_sec=duration_sec, seed=seed)
    if report.forwarded_packets <= 0:
        raise ConfigurationError(
            "DES run forwarded no packets; raise duration_sec")

    observed = _observed_loads(registry, report.forwarded_packets,
                               report.empty_polls, EMPTY_POLL_CYCLES)
    bounds = bounds_for(spec)
    observed_rate_pps = report.forwarded_packets / report.duration_sec
    observed_utilization = {
        name: observed_rate_pps * load / _capacity_per_sec(name, spec,
                                                           bounds)
        for name, load in observed.items()}
    observed_headroom = {
        name: (1.0 / utilization if utilization else float("inf"))
        for name, utilization in observed_utilization.items()}
    # The binding resource is the one closest to its empirical bound --
    # same argmax the analytic solver takes, on measured loads.
    observed_bottleneck = max(sorted(observed_utilization),
                              key=observed_utilization.get)

    return ExplainReport(
        pipeline=pipeline if len(pipeline) < 40 else "<click text>",
        packet_bytes=packet_bytes,
        predicted_bottleneck=predicted.bottleneck,
        observed_bottleneck=observed_bottleneck,
        predicted_rate_gbps=predicted.rate_gbps,
        predicted_loads=predicted_loads,
        observed_loads=observed,
        predicted_headroom=predicted_headroom,
        observed_utilization=observed_utilization,
        observed_headroom=observed_headroom,
        offered_gbps=offered_bps / 1e9,
        achieved_gbps=report.achieved_gbps,
        forwarded_packets=report.forwarded_packets,
        duration_sec=report.duration_sec,
        top_elements=_top_elements(registry.profiler),
        latency=aggregate_breakdowns(registry.tracer.traces),
    )


def explain_from_registry(registry, max_frames: int = 20) -> dict:
    """The explain section attached to ``BENCH_*.json`` documents.

    A benchmark scenario interleaves many runs in one registry, so no
    single per-packet load is well defined; what *is* well defined is
    where the profiled cycles/microseconds went and how traced packets'
    latency decomposes.  Both are derived here, JSON-ably.
    """
    profiler = registry.profiler
    section = {
        "latency": aggregate_breakdowns(registry.tracer.traces),
        "top_frames": _top_elements(profiler, limit=max_frames),
        "span_paths": len(profiler) if profiler is not None else 0,
    }
    return section


def _format_loads(loads: Dict[str, float]) -> str:
    parts = []
    for name in COMPONENTS:
        if name not in loads:
            continue
        unit = "cyc" if name == "cpu" else "B"
        parts.append("%s=%.0f%s" % (name, loads[name], unit))
    return " ".join(parts)


def _format_ratios(ratios: Dict[str, float], percent: bool = False) -> str:
    parts = []
    for name in COMPONENTS:
        if name not in ratios:
            continue
        value = ratios[name]
        if percent:
            parts.append("%s=%.0f%%" % (name, value * 100))
        elif value == float("inf"):
            parts.append("%s=inf" % name)
        else:
            parts.append("%s=%.1fx" % (name, value))
    return " ".join(parts)


def format_explain(report: ExplainReport) -> str:
    """The human transcript ``repro obs explain`` prints."""
    lines = [
        "explain: %s @ %dB" % (report.pipeline, report.packet_bytes),
        "  predicted (analytic): bottleneck=%s at %.2f Gbps"
        % (report.predicted_bottleneck, report.predicted_rate_gbps),
        "    per-packet loads: " + _format_loads(report.predicted_loads),
        "    headroom:         " + _format_ratios(report.predicted_headroom),
        "  observed (DES at %.2f Gbps offered, %.1f ms):"
        % (report.offered_gbps, report.duration_sec * 1e3),
        "    achieved %.2f Gbps over %d packets"
        % (report.achieved_gbps, report.forwarded_packets),
        "    per-packet loads: " + _format_loads(report.observed_loads),
        "    utilization:      " + _format_ratios(report.observed_utilization,
                                                  percent=True),
        "    bottleneck=%s -- %s" % (
            report.observed_bottleneck,
            "agrees with the analytic model" if report.agreement
            else "DISAGREES with the analytic model (predicted %s)"
            % report.predicted_bottleneck),
    ]
    if report.top_elements:
        lines.append("  hottest elements (profiled self cycles):")
        for row in report.top_elements:
            lines.append("    %-20s %12.0f  (%4.1f%%)"
                         % (row["element"], row["self"],
                            row["fraction"] * 100))
    if report.latency:
        latency = report.latency
        lines.append(
            "  latency decomposition (%d traced packets, mean %.2f usec):"
            % (latency["packets"], latency["mean_end_to_end_usec"]))
        for stage, usec_value in latency["stages_usec"].items():
            fraction = latency["stage_fractions"][stage]
            if usec_value or stage == "other":
                lines.append("    %-16s %8.3f usec  (%5.1f%%)"
                             % (stage, usec_value, fraction * 100))
        lines.append("    conservation residual: %.3f%% (max over traces)"
                     % (latency["max_residual_fraction"] * 100))
    return "\n".join(lines)
