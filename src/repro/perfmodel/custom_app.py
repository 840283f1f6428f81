"""Performance prediction for user-defined packet-processing applications.

The paper's closing challenge (Sec. 8): the programmer should be able to
add new functionality *and predict its performance implications*.  This
module is that API: describe a new application's per-packet work --
instructions and CPI (as a profiler would report), or cycles directly,
plus per-byte compute and extra memory touches -- and get back an
:class:`repro.calibration.AppCost` that plugs into the whole model stack
(throughput solver, bottleneck deconstruction, cluster projections).
"""

from __future__ import annotations

from .. import calibration as cal
from ..costs import CACHE_LINE_BYTES
from ..errors import ConfigurationError

__all__ = ["CACHE_LINE_BYTES", "define_application", "predict"]


def define_application(name: str,
                       instructions_per_packet: float = None,
                       cycles_per_instruction: float = 1.0,
                       cycles_per_packet: float = None,
                       cycles_per_byte: float = 0.0,
                       extra_memory_lines: float = 0.0,
                       touches_payload: bool = True) -> cal.AppCost:
    """Build an :class:`AppCost` for a new packet-processing application.

    Parameters
    ----------
    instructions_per_packet, cycles_per_instruction:
        The profiler view (Table 3 style); alternatively give
        ``cycles_per_packet`` directly.  The cost is *in addition to* the
        minimal-forwarding base (every application moves the packet).
    cycles_per_byte:
        Compute that scales with packet size (e.g. encryption, DPI).
    extra_memory_lines:
        Cache lines of additional random memory per packet (lookup
        structures, flow tables) -- charged on the memory buses.
    touches_payload:
        Whether the application reads the payload (adds per-byte memory
        traffic beyond the forwarding path's).

    Exactly one of ``instructions_per_packet`` and ``cycles_per_packet``
    is given; negative figures and a non-positive CPI are refused.  The
    new app's memory traffic crosses QPI at the calibration's one-in-four
    share, like the preset applications'.
    """
    if (instructions_per_packet is None) == (cycles_per_packet is None):
        raise ConfigurationError("give exactly one of "
                                 "instructions_per_packet or "
                                 "cycles_per_packet")
    if instructions_per_packet is not None:
        if instructions_per_packet < 0 or cycles_per_instruction <= 0:
            raise ConfigurationError("bad instruction/CPI figures")
        app_cycles = instructions_per_packet * cycles_per_instruction
    else:
        if cycles_per_packet < 0:
            raise ConfigurationError("cycles_per_packet cannot be negative")
        app_cycles = cycles_per_packet
        instructions_per_packet = cycles_per_packet / cycles_per_instruction
    if cycles_per_byte < 0 or extra_memory_lines < 0:
        raise ConfigurationError("per-byte/memory figures cannot be negative")

    base = cal.MINIMAL_FORWARDING
    mem_base = base.mem_base_bytes + extra_memory_lines * CACHE_LINE_BYTES
    mem_per_byte = base.mem_per_byte + (1.0 if touches_payload else 0.0)
    return cal.AppCost(
        name=name,
        cpu_base_cycles=base.cpu_base_cycles + app_cycles,
        cpu_per_byte_cycles=base.cpu_per_byte_cycles + cycles_per_byte,
        mem_base_bytes=mem_base,
        mem_per_byte=mem_per_byte,
        io_base_bytes=base.io_base_bytes,
        io_per_byte=base.io_per_byte,
        pcie_base_bytes=base.pcie_base_bytes,
        pcie_per_byte=base.pcie_per_byte,
        qpi_base_bytes=mem_base * 0.25,
        qpi_per_byte=mem_per_byte * 0.25,
        instructions_per_packet=base.instructions_per_packet
        + instructions_per_packet,
        cycles_per_instruction=cycles_per_instruction,
    )


def predict(app: cal.AppCost, packet_bytes: int = 64,
            cluster_nodes: int = 0) -> dict:
    """One-call performance prediction for a defined application.

    Returns the single-server saturation (rate, bottleneck) and -- when
    ``cluster_nodes`` is given -- the aggregate a RouteBricks cluster of
    that size would reach running this application at its input nodes.
    """
    from ..workloads.spec import WorkloadSpec
    from .throughput import max_loss_free_rate

    result = max_loss_free_rate(WorkloadSpec.fixed(packet_bytes, app=app))
    out = {
        "application": app.name,
        "packet_bytes": packet_bytes,
        "server_gbps": result.rate_gbps,
        "server_mpps": result.rate_mpps,
        "bottleneck": result.bottleneck,
        "cycles_per_packet": result.loads.cpu_cycles,
    }
    if cluster_nodes:
        # This app at the input nodes of a uniformly loaded cluster: the
        # router's own operating point (CPU / NIC / link / port minimum).
        from ..core.router import RouteBricksRouter
        cluster = RouteBricksRouter(num_nodes=cluster_nodes).max_throughput(
            WorkloadSpec.fixed(packet_bytes, app=app))
        out["cluster_nodes"] = cluster_nodes
        out["cluster_gbps"] = cluster.aggregate_gbps
    return out
