"""repro: a reproduction of RouteBricks (SOSP 2009).

RouteBricks is a router architecture that parallelizes packet processing
both across commodity servers (via Valiant load-balanced switching) and
within each server (multi-queue NICs, one-core-per-packet scheduling, and
batched I/O).  This library reproduces the system and its evaluation as a
calibrated performance model plus a packet-level discrete-event simulation,
with real substrates (LPM routing, AES-128/ESP, a Click-like dataplane).

Public entry points
-------------------

``repro.costs``
    The unified cost layer: ``ResourceVector``, the cost functions over
    the calibrated constants (``per_packet_vector``, the device and
    application element terms), and the ``compile_loads`` pipeline
    compiler that the analytic model, the Click scheduler, and the DES
    all charge from.
``repro.perfmodel``
    Single-server performance model (Tables 1-3, Figs 6-10).
``repro.core``
    The cluster router: VLB switching, topologies, RB4 (Sec. 3, 6).
``repro.click``
    The Click-like modular dataplane.
``repro.workloads``
    Traffic generation (fixed-size, Abilene-like, traffic matrices) and
    ``WorkloadSpec``, the uniform workload descriptor every throughput
    API accepts.
``repro.faults``
    Fault injection (timed crash/recover/link/NIC-stall schedules) and
    the analytic graceful-degradation model (Sec. 3.2).
``repro.results``
    ``RunResult``, the common base for every result object
    (``to_dict()`` / ``summary()``).
``repro.analysis``
    Bottleneck deconstruction and experiment runners.
"""

from . import calibration, costs, units
from .errors import (
    ConfigurationError,
    CryptoError,
    PacketError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    TopologyError,
)

__version__ = "1.0.0"

__all__ = [
    "calibration",
    "costs",
    "units",
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "PacketError",
    "RoutingError",
    "SchedulingError",
    "SimulationError",
    "CryptoError",
    "__version__",
]
