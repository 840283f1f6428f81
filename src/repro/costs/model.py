"""The cost model: every calibrated per-packet cost, as plain functions.

Historically the repo encoded the paper's resource accounting three times:
preset-app constants in :mod:`repro.calibration` consumed by the analytic
model, ad-hoc ``cycle_cost`` hooks on Click elements charged by the
scheduler, and hard-wired cycle math in the timed simulation.  These
functions derive every per-packet vector from :mod:`repro.calibration`,
the one owner of the constants; the analytic solver, the Click
scheduler, and the DES all draw their numbers from here, so a change to
the calibration propagates everywhere consistently.

The model speaks :class:`~repro.costs.vector.ResourceVector`: per-packet
CPU cycles plus bytes on each bus, affine in the packet size.  Two views
matter:

* :func:`app_vector` / :func:`per_packet_vector` -- whole-application
  costs (the Fig. 8 / Figs. 9-10 quantities), the latter with batching
  bookkeeping and scheduling penalties applied;
* :func:`rx_terms` / :func:`tx_terms` / :func:`increment_terms` -- the
  same costs decomposed onto Click elements, so a pipeline's element-wise
  sum reproduces the application totals exactly.

The Sec. 8 builder for new applications is
:func:`repro.perfmodel.custom_app.define_application`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .. import calibration as cal
from ..errors import ConfigurationError
from .vector import ResourceVector

#: Cache-line granularity for memory-touch accounting.
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class ServerConfig:
    """Software configuration knobs of the evaluation (Sec. 4.2).

    ``multi_queue``
        One RX/TX queue per core per port (both scheduling rules hold).
        When False, ports expose a single queue and packet handoffs between
        a polling core and a worker core are unavoidable.
    ``kp, kn``
        Poll-driven and NIC-driven batch sizes (Table 1).
    """

    multi_queue: bool = True
    kp: int = cal.DEFAULT_KP
    kn: int = cal.DEFAULT_KN

    def __post_init__(self):
        if self.kp < 1:
            raise ConfigurationError("kp must be >= 1, got %r" % self.kp)
        if not 1 <= self.kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError(
                "kn must be in [1, %d] (PCIe payload limit), got %r"
                % (cal.MAX_NIC_BATCH, self.kn))


#: The evaluation's default configuration: multi-queue, kp=32, kn=16.
DEFAULT_CONFIG = ServerConfig()


# -- whole-application vectors ---------------------------------------------

def app_terms(app) -> Tuple[ResourceVector, ResourceVector]:
    """``(base, per_byte)`` affine terms of an application's cost."""
    app = cal.resolve_app(app)
    return (ResourceVector(cpu_cycles=app.cpu_base_cycles,
                           mem_bytes=app.mem_base_bytes,
                           io_bytes=app.io_base_bytes,
                           pcie_bytes=app.pcie_base_bytes,
                           qpi_bytes=app.qpi_base_bytes),
            ResourceVector(cpu_cycles=app.cpu_per_byte_cycles,
                           mem_bytes=app.mem_per_byte,
                           io_bytes=app.io_per_byte,
                           pcie_bytes=app.pcie_per_byte,
                           qpi_bytes=app.qpi_per_byte))


def app_vector(app, packet_bytes: float) -> ResourceVector:
    """Pure application cost at ``packet_bytes`` (no bookkeeping)."""
    if packet_bytes <= 0:
        raise ConfigurationError("packet size must be positive")
    base, per_byte = app_terms(app)
    return base + per_byte.scaled(packet_bytes)


def apply_cpu_penalties(vector: ResourceVector,
                        config: ServerConfig = DEFAULT_CONFIG,
                        spec=None) -> ResourceVector:
    """Scheduling penalties on top of a per-packet vector.

    Without multi-queue NICs the one-core-per-packet rule breaks: a
    polling core hands each packet to a worker, adding the Fig. 6
    pipeline synchronization cost.  On shared-bus servers, FSB
    contention inflates every cycle count by the spec's ``cpi_factor``.
    """
    cycles = vector.cpu_cycles
    if not config.multi_queue:
        cycles += cal.PIPELINE_SYNC_CYCLES
    if spec is not None and getattr(spec, "cpi_factor", 1.0) != 1.0:
        cycles *= spec.cpi_factor
    return vector.with_cpu(cycles)


def per_packet_vector(app, packet_bytes: float,
                      config: ServerConfig = DEFAULT_CONFIG,
                      spec=None) -> ResourceVector:
    """The full per-packet load vector (the Figs. 9-10 quantity)."""
    vector = app_vector(app, packet_bytes)
    vector = vector.with_cpu(vector.cpu_cycles
                             + cal.bookkeeping_cycles(config.kp, config.kn))
    return apply_cpu_penalties(vector, config, spec)


# -- element-level decomposition -------------------------------------------

# The per-element split is chosen so that summing a pipeline's elements
# reproduces the application totals exactly: the RX device carries the
# packet-movement baseline's CPU cost (whose 64 B value is the Table 1
# irreducible term) plus half of each bus term; the TX device carries the
# other bus half; application elements carry their increment over the
# baseline, minimal forwarding.

def rx_terms(kp: int = cal.DEFAULT_KP) \
        -> Tuple[ResourceVector, ResourceVector]:
    """Cost terms of a polling device: poll amortization + baseline."""
    if kp < 1:
        raise ConfigurationError("kp must be >= 1")
    base, per_byte = app_terms(cal.MINIMAL_FORWARDING)
    rx_base = ResourceVector(
        cpu_cycles=cal.BOOK_POLL_CYCLES / kp + base.cpu_cycles,
        mem_bytes=base.mem_bytes / 2,
        io_bytes=base.io_bytes / 2,
        pcie_bytes=base.pcie_bytes / 2,
        qpi_bytes=base.qpi_bytes / 2)
    rx_per_byte = ResourceVector(
        cpu_cycles=per_byte.cpu_cycles,
        mem_bytes=per_byte.mem_bytes / 2,
        io_bytes=per_byte.io_bytes / 2,
        pcie_bytes=per_byte.pcie_bytes / 2,
        qpi_bytes=per_byte.qpi_bytes / 2)
    return rx_base, rx_per_byte


def tx_terms(kn: int = cal.DEFAULT_KN) \
        -> Tuple[ResourceVector, ResourceVector]:
    """Cost terms of a sending device: NIC-batch amortization + TX DMA."""
    if not 1 <= kn <= cal.MAX_NIC_BATCH:
        raise ConfigurationError("kn must be in [1, %d]"
                                 % cal.MAX_NIC_BATCH)
    base, per_byte = app_terms(cal.MINIMAL_FORWARDING)
    tx_base = ResourceVector(
        cpu_cycles=cal.BOOK_NIC_CYCLES / kn,
        mem_bytes=base.mem_bytes / 2,
        io_bytes=base.io_bytes / 2,
        pcie_bytes=base.pcie_bytes / 2,
        qpi_bytes=base.qpi_bytes / 2)
    tx_per_byte = ResourceVector(
        mem_bytes=per_byte.mem_bytes / 2,
        io_bytes=per_byte.io_bytes / 2,
        pcie_bytes=per_byte.pcie_bytes / 2,
        qpi_bytes=per_byte.qpi_bytes / 2)
    return tx_base, tx_per_byte


def increment_terms(app) -> Tuple[ResourceVector, ResourceVector]:
    """An application element's cost over the forwarding baseline.

    This is what :class:`~repro.click.elements.ip.LookupIPRoute` or
    :class:`~repro.click.elements.ipsec.IPsecESPEncap` add on top of the
    packet movement the device elements already account for.
    """
    app_base, app_per_byte = app_terms(app)
    base, per_byte = app_terms(cal.MINIMAL_FORWARDING)
    return app_base - base, app_per_byte - per_byte


# -- stateful NF dispatch (State-Compute Replication) -----------------------

# The stateful suite charges four kinds of work beyond an NF's own update:
# shared-state locking, cache-line coherence transfers, and SCR's delta
# encode/replay.  Expressing them as ResourceVectors keeps the dispatch
# strategies on the same accounting basis as every other consumer: cycles
# bind cores, delta bytes ride the memory/QPI buses.

def state_access_vector(nf: str = "nat") -> ResourceVector:
    """Per-packet cost of one flow-state lookup + update + NF verdict."""
    compute = cal.NF_COMPUTE_CYCLES.get(nf)
    if compute is None:
        raise ConfigurationError(
            "unknown stateful NF %r (have %s)"
            % (nf, sorted(cal.NF_COMPUTE_CYCLES)))
    return ResourceVector(
        cpu_cycles=(cal.STATEFUL_BASE_CYCLES + cal.STATE_LOOKUP_CYCLES
                    + cal.STATE_UPDATE_CYCLES + compute),
        mem_bytes=cal.STATE_ENTRY_BYTES)


def lock_vector(contended: bool = False) -> ResourceVector:
    """One lock acquire/release; contended acquires convoy-wait."""
    cycles = cal.LOCK_BASE_CYCLES
    if contended:
        cycles += cal.LOCK_CONTENDED_CYCLES
    return ResourceVector(cpu_cycles=cycles)


def coherence_vector(lines: float = cal.STATE_SHARED_LINES) -> ResourceVector:
    """Cache lines migrating from a remote core (shared-state access).

    The transferred bytes are charged to the inter-socket link: on the
    two-socket reference server half of all remote transfers cross QPI,
    and the on-die half is free, so one full accounting of every line at
    the 0.5 crossing probability is the expected QPI load.
    """
    return ResourceVector(
        cpu_cycles=lines * cal.CACHE_COHERENCE_CYCLES,
        qpi_bytes=lines * CACHE_LINE_BYTES * 0.5)


def scr_encode_vector() -> ResourceVector:
    """Appending one compact delta to the shared history log."""
    return ResourceVector(cpu_cycles=cal.SCR_DELTA_ENCODE_CYCLES,
                          mem_bytes=cal.SCR_DELTA_BYTES)


def scr_replay_vector() -> ResourceVector:
    """One replica applying one delta from the history log.

    Reading the log is a sequential stream (prefetched), so the cost is
    the apply cycles plus the delta's bytes on the memory bus; the state
    line itself is core-local by construction.
    """
    return ResourceVector(cpu_cycles=cal.SCR_DELTA_APPLY_CYCLES,
                          mem_bytes=cal.SCR_DELTA_BYTES)
