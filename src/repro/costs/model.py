"""The cost model: one owner for every calibrated per-packet cost.

Historically the repo encoded the paper's resource accounting three times:
preset-app constants in :mod:`repro.calibration` consumed by the analytic
model, ad-hoc ``cycle_cost`` hooks on Click elements charged by the
scheduler, and hard-wired cycle math in the timed simulation.  A
:class:`CostModel` owns the calibrated constants and the batching
amortization once; the analytic solver, the Click scheduler, and the DES
all derive their numbers from it, so a change to the calibration (or a
user-supplied recalibration) propagates everywhere consistently.

The model speaks :class:`~repro.costs.vector.ResourceVector`: per-packet
CPU cycles plus bytes on each bus, affine in the packet size.  Three views
matter:

* ``app_vector`` / ``per_packet_vector`` -- whole-application costs (the
  Fig. 8 / Figs. 9-10 quantities), the latter with batching bookkeeping
  and scheduling penalties applied;
* ``rx_terms`` / ``tx_terms`` / ``increment_terms`` -- the same costs
  decomposed onto Click elements, so a pipeline's element-wise sum
  reproduces the application totals exactly;
* ``derive_application`` -- the Sec. 8 programmability story: build a new
  calibrated application from profiler-style figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .. import calibration as cal
from ..errors import ConfigurationError
from .vector import ResourceVector

#: Cache-line granularity for memory-touch accounting (derive_application).
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


def _app_base_vector(app: cal.AppCost) -> ResourceVector:
    """The size-independent part of an application's cost."""
    return ResourceVector(cpu_cycles=app.cpu_base_cycles,
                          mem_bytes=app.mem_base_bytes,
                          io_bytes=app.io_base_bytes,
                          pcie_bytes=app.pcie_base_bytes,
                          qpi_bytes=app.qpi_base_bytes)


def _app_per_byte_vector(app: cal.AppCost) -> ResourceVector:
    """The per-packet-byte slope of an application's cost."""
    return ResourceVector(cpu_cycles=app.cpu_per_byte_cycles,
                          mem_bytes=app.mem_per_byte,
                          io_bytes=app.io_per_byte,
                          pcie_bytes=app.pcie_per_byte,
                          qpi_bytes=app.qpi_per_byte)


class CostModel:
    """Calibrated per-packet costs, batching amortization, penalties.

    The default instance (:data:`DEFAULT_COST_MODEL`) is built from
    :mod:`repro.calibration`; alternative instances can carry a different
    application catalog or recalibrated batching constants (e.g. for a
    hypothetical server generation) and drop into every consumer.
    """

    def __init__(self,
                 applications: Optional[Dict[str, cal.AppCost]] = None,
                 baseline: str = "forwarding",
                 book_base_cycles: float = cal.BOOK_BASE_CYCLES,
                 book_poll_cycles: float = cal.BOOK_POLL_CYCLES,
                 book_nic_cycles: float = cal.BOOK_NIC_CYCLES,
                 empty_poll_cycles: float = cal.EMPTY_POLL_CYCLES,
                 pipeline_sync_cycles: float = cal.PIPELINE_SYNC_CYCLES):
        self.applications = dict(applications if applications is not None
                                 else cal.APPLICATIONS)
        if baseline not in self.applications:
            raise ConfigurationError("baseline app %r not in catalog"
                                     % baseline)
        self.baseline_name = baseline
        # A timed run's empty poll files its successor this many cycles
        # on: at zero it would refile at the same instant forever.
        if not 0 < empty_poll_cycles < math.inf:
            raise ConfigurationError(
                "empty_poll_cycles must be finite and > 0 (got %r)"
                % (empty_poll_cycles,))
        self.book_base_cycles = book_base_cycles
        self.book_poll_cycles = book_poll_cycles
        self.book_nic_cycles = book_nic_cycles
        self.empty_poll_cycles = empty_poll_cycles
        self.pipeline_sync_cycles = pipeline_sync_cycles

    # -- application resolution --------------------------------------------

    @property
    def baseline(self) -> cal.AppCost:
        """The packet-movement baseline every application includes."""
        return self.applications[self.baseline_name]

    def app(self, app: Union[str, cal.AppCost, None]) -> cal.AppCost:
        """Accept an :class:`~repro.calibration.AppCost` or a catalog name."""
        if app is None:
            return self.applications["routing"]
        if isinstance(app, cal.AppCost):
            return app
        if app in self.applications:
            return self.applications[app]
        raise ConfigurationError("unknown application %r (have %s)"
                                 % (app, sorted(self.applications)))

    # -- batching ----------------------------------------------------------

    def bookkeeping_cycles(self, kp: int = cal.DEFAULT_KP,
                           kn: int = cal.DEFAULT_KN) -> float:
        """Amortized per-packet book-keeping cost (excluding the base).

        The irreducible per-packet term (``book_base_cycles``) remains at
        infinite batch sizes and is part of the application processing
        cost, not of this amortized remainder.
        """
        if kp < 1 or kn < 1:
            raise ConfigurationError(
                "batch sizes must be >= 1 (got kp=%r, kn=%r)" % (kp, kn))
        return self.book_poll_cycles / kp + self.book_nic_cycles / kn

    # -- whole-application vectors -----------------------------------------

    def app_terms(self, app) -> Tuple[ResourceVector, ResourceVector]:
        """``(base, per_byte)`` affine terms of an application's cost."""
        app = self.app(app)
        return _app_base_vector(app), _app_per_byte_vector(app)

    def app_vector(self, app, packet_bytes: float) -> ResourceVector:
        """Pure application cost at ``packet_bytes`` (no bookkeeping)."""
        if packet_bytes <= 0:
            raise ConfigurationError("packet size must be positive")
        base, per_byte = self.app_terms(app)
        return base + per_byte.scaled(packet_bytes)

    def apply_cpu_penalties(self, vector: ResourceVector,
                            config: ServerConfig = DEFAULT_CONFIG,
                            spec=None) -> ResourceVector:
        """Scheduling penalties on top of a per-packet vector.

        Without multi-queue NICs the one-core-per-packet rule breaks: a
        polling core hands each packet to a worker, adding the Fig. 6
        pipeline synchronization cost.  On shared-bus servers, FSB
        contention inflates every cycle count by the spec's
        ``cpi_factor``.
        """
        cycles = vector.cpu_cycles
        if not config.multi_queue:
            cycles += self.pipeline_sync_cycles
        if spec is not None and getattr(spec, "cpi_factor", 1.0) != 1.0:
            cycles *= spec.cpi_factor
        return vector.with_cpu(cycles)

    def cpu_cycles_per_packet(self, app, packet_bytes: float,
                              config: ServerConfig = DEFAULT_CONFIG,
                              spec=None) -> float:
        """Total CPU cycles/packet: application + book-keeping + penalties."""
        return self.per_packet_vector(app, packet_bytes, config,
                                      spec).cpu_cycles

    def per_packet_vector(self, app, packet_bytes: float,
                          config: ServerConfig = DEFAULT_CONFIG,
                          spec=None) -> ResourceVector:
        """The full per-packet load vector (the Figs. 9-10 quantity)."""
        vector = self.app_vector(app, packet_bytes)
        vector = vector.with_cpu(vector.cpu_cycles
                                 + self.bookkeeping_cycles(config.kp,
                                                           config.kn))
        return self.apply_cpu_penalties(vector, config, spec)

    # -- element-level decomposition ---------------------------------------

    # The per-element split is chosen so that summing a pipeline's elements
    # reproduces the application totals exactly: the RX device carries the
    # packet-movement baseline's CPU cost (whose 64 B value is the Table 1
    # irreducible term) plus half of each bus term; the TX device carries
    # the other bus half; application elements carry their increment over
    # the baseline.

    def rx_terms(self, kp: int = cal.DEFAULT_KP) \
            -> Tuple[ResourceVector, ResourceVector]:
        """Cost terms of a polling device: poll amortization + baseline."""
        if kp < 1:
            raise ConfigurationError("kp must be >= 1")
        base, per_byte = self.app_terms(self.baseline)
        rx_base = ResourceVector(
            cpu_cycles=self.book_poll_cycles / kp + base.cpu_cycles,
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

    def tx_terms(self, kn: int = cal.DEFAULT_KN) \
            -> Tuple[ResourceVector, ResourceVector]:
        """Cost terms of a sending device: NIC-batch amortization + TX DMA."""
        if not 1 <= kn <= cal.MAX_NIC_BATCH:
            raise ConfigurationError("kn must be in [1, %d]"
                                     % cal.MAX_NIC_BATCH)
        base, per_byte = self.app_terms(self.baseline)
        tx_base = ResourceVector(
            cpu_cycles=self.book_nic_cycles / kn,
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

    def increment_terms(self, app) \
            -> Tuple[ResourceVector, ResourceVector]:
        """An application element's cost over the forwarding baseline.

        This is what :class:`~repro.click.elements.ip.LookupIPRoute` or
        :class:`~repro.click.elements.ipsec.IPsecESPEncap` add on top of
        the packet movement the device elements already account for.
        """
        app_base, app_per_byte = self.app_terms(app)
        base, per_byte = self.app_terms(self.baseline)
        return app_base - base, app_per_byte - per_byte

    # -- stateful NF dispatch (State-Compute Replication) -------------------

    # The stateful suite charges four kinds of work beyond an NF's own
    # update: shared-state locking, cache-line coherence transfers, and
    # SCR's delta encode/replay.  Expressing them as ResourceVectors keeps
    # the dispatch strategies on the same accounting basis as every other
    # consumer: cycles bind cores, delta bytes ride the memory/QPI buses.

    def state_access_vector(self, nf: str = "nat") -> ResourceVector:
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

    def lock_vector(self, contended: bool = False) -> ResourceVector:
        """One lock acquire/release; contended acquires convoy-wait."""
        cycles = cal.LOCK_BASE_CYCLES
        if contended:
            cycles += cal.LOCK_CONTENDED_CYCLES
        return ResourceVector(cpu_cycles=cycles)

    def coherence_vector(self,
                         lines: float = cal.STATE_SHARED_LINES
                         ) -> ResourceVector:
        """Cache lines migrating from a remote core (shared-state access).

        The transferred bytes are charged to the inter-socket link: on the
        two-socket reference server half of all remote transfers cross
        QPI, and the on-die half is free, so one full accounting of every
        line at the 0.5 crossing probability is the expected QPI load.
        """
        return ResourceVector(
            cpu_cycles=lines * cal.CACHE_COHERENCE_CYCLES,
            qpi_bytes=lines * CACHE_LINE_BYTES * 0.5)

    def scr_encode_vector(self) -> ResourceVector:
        """Appending one compact delta to the shared history log."""
        return ResourceVector(cpu_cycles=cal.SCR_DELTA_ENCODE_CYCLES,
                              mem_bytes=cal.SCR_DELTA_BYTES)

    def scr_replay_vector(self) -> ResourceVector:
        """One replica applying one delta from the history log.

        Reading the log is a sequential stream (prefetched), so the cost
        is the apply cycles plus the delta's bytes on the memory bus; the
        state line itself is core-local by construction.
        """
        return ResourceVector(cpu_cycles=cal.SCR_DELTA_APPLY_CYCLES,
                              mem_bytes=cal.SCR_DELTA_BYTES)

    # -- user-defined applications (Sec. 8) --------------------------------

    def derive_application(self, name: str,
                           instructions_per_packet: float = None,
                           cycles_per_instruction: float = 1.0,
                           cycles_per_packet: float = None,
                           cycles_per_byte: float = 0.0,
                           extra_memory_lines: float = 0.0,
                           touches_payload: bool = True) -> cal.AppCost:
        """Build an :class:`AppCost` for a new packet-processing app.

        Give the profiler view (instructions and CPI, Table 3 style) or
        ``cycles_per_packet`` directly; the cost is *in addition to* the
        packet-movement baseline.  ``cycles_per_byte`` covers compute that
        scales with packet size (encryption, DPI); ``extra_memory_lines``
        charges cache lines of additional random memory per packet;
        ``touches_payload`` adds per-byte memory traffic beyond the
        forwarding path's.
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
                raise ConfigurationError(
                    "cycles_per_packet cannot be negative")
            app_cycles = cycles_per_packet
            instructions_per_packet = cycles_per_packet \
                / cycles_per_instruction
        if cycles_per_byte < 0 or extra_memory_lines < 0:
            raise ConfigurationError(
                "per-byte/memory figures cannot be negative")

        base = self.baseline
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


#: The calibration-backed model every consumer uses unless told otherwise.
DEFAULT_COST_MODEL = CostModel()
