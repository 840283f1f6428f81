"""Calibrated constants tying the simulation to the paper's measurements.

Every constant in this module is either taken verbatim from the RouteBricks
paper (SOSP 2009) or derived from published numbers; each one carries a
provenance note.  The performance model (`repro.perfmodel`) and the cluster
simulator (`repro.core`) consume these constants, so the reproduction's
operating points (Tables 1-3, Figs 6-10, and the RB4 results in Sec. 6.2)
follow from the calibration below rather than from per-experiment fudging.

Derivations
-----------

*CPU cycle budget.*  The evaluation server is a dual-socket Nehalem with
four 2.8 GHz cores per socket: 8 x 2.8e9 = 22.4e9 cycles/s (Sec. 4.1).

*Batching model (Table 1).*  We model minimal-forwarding cycles/packet as

    cycles(kp, kn) = A + B/kp + C/kn

where ``kp`` is the poll-driven batch size and ``kn`` the NIC-driven batch
size.  Table 1 gives three operating points for 64 B packets on 8 cores:

    (kp, kn) = ( 1,  1) -> 1.46 Gbps = 2.852 Mpps -> 7855.0 cycles/packet
    (kp, kn) = (32,  1) -> 4.97 Gbps = 9.707 Mpps -> 2307.6 cycles/packet
    (kp, kn) = (32, 16) -> 9.77 Gbps = 19.09 Mpps -> 1173.6 cycles/packet

Solving the three equations gives A = 919.0, B = 5726.4, C = 1209.6
(cycles); the model then reproduces Table 1 exactly by construction.

*Application processing costs (Fig. 8, Table 3).*  At the default batching
(kp=32, kn=16) the 64 B saturation rates in Fig. 8 imply total
cycles/packet of

    minimal forwarding:  9.77 Gbps -> 1174   (matches the batching model)
    IP routing:          6.35 Gbps -> 1806
    IPsec:               1.40 Gbps -> 8192

Subtracting the book-keeping terms (B/kp + C/kn = 254.6) gives the pure
processing cost at 64 B.  Table 3's instructions/packet and CPI are kept as
reported (they differ from the rate-derived cycle counts by ~5 %, an
inconsistency present in the paper itself; we note it in EXPERIMENTS.md).

*Packet-size scaling (Sec. 5.3, item 2).*  The paper reports that a 1024 B
packet imposes 1.6x the CPU load, 6x the memory-bus load, and 11x the
socket-I/O load of a 64 B packet.  Modeling each load as affine in packet
size P (load = a + b*P) and anchoring the 64 B points fixes the
coefficients used below.

*RB4 (Sec. 6.2).*  With 64 B packets RB4 forwards 12 Gbps, i.e. 3 Gbps per
server, below the expected 12.7-19.4 Gbps window; the gap is attributed to
the reordering-avoidance bookkeeping.  Solving
   R_pps * (rtr + fwd + phi) = 22.4e9  at R = 3 Gbps (5.86 Mpps)
gives phi = 842 cycles/packet of flowlet-tracking overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import gbps, ghz

# --------------------------------------------------------------------------
# Server hardware (Sec. 4.1, Table 2)
# --------------------------------------------------------------------------

#: Nehalem prototype: sockets x cores x clock.
NEHALEM_SOCKETS = 2
NEHALEM_CORES_PER_SOCKET = 4
NEHALEM_CLOCK_HZ = ghz(2.8)
NEHALEM_L3_BYTES = 8 * 1024 * 1024
NEHALEM_TOTAL_CYCLES_PER_SEC = (
    NEHALEM_SOCKETS * NEHALEM_CORES_PER_SOCKET * NEHALEM_CLOCK_HZ
)  # 22.4e9

#: Shared-bus Xeon reference server (Sec. 4.2): eight 2.4 GHz cores.
XEON_SOCKETS = 2
XEON_CORES_PER_SOCKET = 4
XEON_CLOCK_HZ = ghz(2.4)

#: Table 2 nominal capacities (bits/second unless noted).
MEMORY_NOMINAL_BPS = gbps(410)          # #mem-buses x bus capacity
MEMORY_EMPIRICAL_BPS = gbps(262)        # random-access stream benchmark
INTERSOCKET_NOMINAL_BPS = gbps(200)     # QPI
INTERSOCKET_EMPIRICAL_BPS = gbps(144.34)
IO_NOMINAL_BPS = gbps(2 * 200)          # two socket-I/O links
IO_EMPIRICAL_BPS = gbps(117)            # min. forwarding with 1024 B packets
PCIE_NOMINAL_BPS = gbps(64)             # 2 NICs x 8 lanes x 2 Gbps/direction
PCIE_EMPIRICAL_BPS = gbps(50.8)

#: NIC limits (Sec. 4.1): each dual-port 10 G NIC shares one PCIe1.1 x8 slot
#: and sustains at most 12.3 Gbps of payload; two NICs -> 24.6 Gbps max input.
NIC_PAYLOAD_LIMIT_BPS = gbps(12.3)
NUM_NICS = 2
MAX_INPUT_BPS = NUM_NICS * NIC_PAYLOAD_LIMIT_BPS  # 24.6 Gbps
PORT_RATE_BPS = gbps(10)

#: PCIe1.1 transaction parameters (Table 1 caption): max payload 256 B,
#: packet descriptors are 16 B, so at most 16 descriptors per transaction.
PCIE_MAX_PAYLOAD_BYTES = 256
DESCRIPTOR_BYTES = 16
MAX_NIC_BATCH = PCIE_MAX_PAYLOAD_BYTES // DESCRIPTOR_BYTES  # 16

# --------------------------------------------------------------------------
# Batching model (Table 1)
# --------------------------------------------------------------------------

#: cycles(kp, kn) = BOOK_BASE + BOOK_POLL/kp + BOOK_NIC/kn for 64 B minimal
#: forwarding.  Derived above from Table 1's three operating points.
BOOK_BASE_CYCLES = 919.0
BOOK_POLL_CYCLES = 5726.4
BOOK_NIC_CYCLES = 1209.6

#: Default batching parameters (Sec. 4.2): Click poll batch and NIC batch.
DEFAULT_KP = 32
DEFAULT_KN = 16


def bookkeeping_cycles(kp: int = DEFAULT_KP, kn: int = DEFAULT_KN) -> float:
    """Amortized per-packet book-keeping cost (excluding BOOK_BASE).

    BOOK_BASE is the irreducible per-packet work that remains at infinite
    batch sizes; it is part of the application processing cost below.
    """
    if kp < 1 or kn < 1:
        raise ValueError("batch sizes must be >= 1 (got kp=%r, kn=%r)" % (kp, kn))
    return BOOK_POLL_CYCLES / kp + BOOK_NIC_CYCLES / kn


#: Book-keeping at the default batching configuration: 5726.4/32 + 1209.6/16.
DEFAULT_BOOKKEEPING_CYCLES = bookkeeping_cycles()  # 254.6

#: Cycles burned by a poll that finds no packets (Sec. 5.3's "ce").  Click
#: polls continuously, so raw CPU utilization is always 100 %; both the
#: timed simulation and the empty-poll correction in the utilization
#: accounting (repro.obs.explain.cpu_load_from_polling) use this
#: constant to separate useful work from idle polling.
EMPTY_POLL_CYCLES = 120.0

# --------------------------------------------------------------------------
# Application processing costs (Fig. 8, Table 3, Sec. 5.3 item 2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AppCost:
    """Per-packet resource cost of a packet-processing application.

    CPU cycles and each bus load are affine in the packet size P (bytes):
    ``value = base + per_byte * P``.  The CPU cost excludes the batching
    book-keeping terms, which are added by the performance model according
    to the configured (kp, kn).
    """

    name: str
    cpu_base_cycles: float
    cpu_per_byte_cycles: float
    mem_base_bytes: float
    mem_per_byte: float
    io_base_bytes: float
    io_per_byte: float
    pcie_base_bytes: float
    pcie_per_byte: float
    qpi_base_bytes: float
    qpi_per_byte: float
    instructions_per_packet: float  # Table 3 (as reported)
    cycles_per_instruction: float   # Table 3 (as reported)

    def cpu_cycles(self, packet_bytes: float) -> float:
        """Application CPU cycles for one packet of ``packet_bytes``."""
        return self.cpu_base_cycles + self.cpu_per_byte_cycles * packet_bytes

    def mem_bytes(self, packet_bytes: float) -> float:
        """Memory-bus bytes moved per packet."""
        return self.mem_base_bytes + self.mem_per_byte * packet_bytes

    def io_bytes(self, packet_bytes: float) -> float:
        """Socket-I/O link bytes moved per packet."""
        return self.io_base_bytes + self.io_per_byte * packet_bytes

    def pcie_bytes(self, packet_bytes: float) -> float:
        """PCIe bytes moved per packet (packet in+out plus descriptors)."""
        return self.pcie_base_bytes + self.pcie_per_byte * packet_bytes

    def qpi_bytes(self, packet_bytes: float) -> float:
        """Inter-socket link bytes moved per packet."""
        return self.qpi_base_bytes + self.qpi_per_byte * packet_bytes


# CPU scaling: total(1024)/total(64) = 1.6 at default batching (Sec. 5.3).
# For forwarding: total(64) = 1173.6 -> proc(64) = 919.0, total(1024) = 1877.8
# -> proc(1024) = 1623.2; slope = (1623.2 - 919.0)/960 = 0.7336 cycles/byte.
_FWD_CPU_PER_BYTE = 0.7336
_FWD_CPU_BASE = 919.0 - 64 * _FWD_CPU_PER_BYTE  # 872.0

# Memory scaling: mem(1024) = 6 x mem(64) => base = 128 * per_byte.  We take
# per_byte = 2.5 (DMA write + CPU read + CPU write + DMA read, partially
# absorbed by caches), giving mem(64) = 480 B/packet -- consistent with the
# ~1e3 B/packet magnitude of Fig. 10 (top).
_FWD_MEM_PER_BYTE = 2.5
_FWD_MEM_BASE = 128 * _FWD_MEM_PER_BYTE  # 320

# Socket-I/O scaling: io(1024) = 11 x io(64) => base = 32 * per_byte.  Each
# payload byte crosses the socket-I/O link twice (NIC->memory, memory->NIC).
_FWD_IO_PER_BYTE = 2.0
_FWD_IO_BASE = 32 * _FWD_IO_PER_BYTE  # 64

# PCIe: each payload byte crosses the bus twice (NIC->memory on RX,
# memory->NIC on TX) plus one 16 B descriptor each way and a batched
# TLP-header share.  The coefficients are consistent with the observed
# per-slot limit: 50.8 Gbps empirical / (2 B moved per payload byte)
# ~= 25 Gbps of payload ~= the measured 24.6 Gbps input ceiling.
_FWD_PCIE_PER_BYTE = 2.0
_FWD_PCIE_BASE = 2 * DESCRIPTOR_BYTES + 8

# Inter-socket: Sec. 4.2 measures ~23 % of memory accesses remote when
# descriptors live on the other socket; we charge a quarter of memory load.
_QPI_FRACTION = 0.25

MINIMAL_FORWARDING = AppCost(
    name="forwarding",
    cpu_base_cycles=_FWD_CPU_BASE,
    cpu_per_byte_cycles=_FWD_CPU_PER_BYTE,
    mem_base_bytes=_FWD_MEM_BASE,
    mem_per_byte=_FWD_MEM_PER_BYTE,
    io_base_bytes=_FWD_IO_BASE,
    io_per_byte=_FWD_IO_PER_BYTE,
    pcie_base_bytes=_FWD_PCIE_BASE,
    pcie_per_byte=_FWD_PCIE_PER_BYTE,
    qpi_base_bytes=_FWD_MEM_BASE * _QPI_FRACTION,
    qpi_per_byte=_FWD_MEM_PER_BYTE * _QPI_FRACTION,
    instructions_per_packet=1033,
    cycles_per_instruction=1.19,
)

# IP routing: 6.35 Gbps at 64 B -> 12.40 Mpps -> 1806 cycles/packet total;
# processing = 1806 - 254.6 = 1551.4 at 64 B.  The routing increment
# (trie/DIR-24-8 lookup, TTL/checksum update) is size-independent.
_RTR_CPU_BASE = 1551.4 - 64 * _FWD_CPU_PER_BYTE  # 1504.4

# Routing memory load: random-destination lookups in a 256 K-entry table
# miss in cache.  The base is fixed at 1684 B/packet (64 B point) so that a
# 4x-CPU / 2x-memory next-generation server becomes memory-bound at exactly
# the paper's projected 19.9 Gbps (Sec. 5.3, item 4):
#   2 x 262 Gbps / (38.85 Mpps) = 1684 B/packet.
_RTR_MEM_64B = 1684.0
_RTR_MEM_BASE = _RTR_MEM_64B - 64 * _FWD_MEM_PER_BYTE  # 1524

IP_ROUTING = AppCost(
    name="routing",
    cpu_base_cycles=_RTR_CPU_BASE,
    cpu_per_byte_cycles=_FWD_CPU_PER_BYTE,
    mem_base_bytes=_RTR_MEM_BASE,
    mem_per_byte=_FWD_MEM_PER_BYTE,
    io_base_bytes=_FWD_IO_BASE,
    io_per_byte=_FWD_IO_PER_BYTE,
    pcie_base_bytes=_FWD_PCIE_BASE,
    pcie_per_byte=_FWD_PCIE_PER_BYTE,
    qpi_base_bytes=_RTR_MEM_BASE * _QPI_FRACTION,
    qpi_per_byte=_FWD_MEM_PER_BYTE * _QPI_FRACTION,
    instructions_per_packet=1512,
    cycles_per_instruction=1.23,
)

# IPsec: 1.40 Gbps at 64 B -> 2.734 Mpps -> 8192 cycles/packet total;
# processing(64) = 7937.4.  AES-128 encryption scales with packet bytes at
# ~32 cycles/byte (software AES on 2008-era cores), chosen jointly with the
# Abilene mean packet size (740 B) to reproduce the 4.45 Gbps Abilene rate.
_IPSEC_CPU_PER_BYTE = 31.96
_IPSEC_CPU_BASE = 7937.4 - 64 * _IPSEC_CPU_PER_BYTE  # 5892.0

IPSEC = AppCost(
    name="ipsec",
    cpu_base_cycles=_IPSEC_CPU_BASE,
    cpu_per_byte_cycles=_IPSEC_CPU_PER_BYTE,
    mem_base_bytes=_FWD_MEM_BASE + 40,   # ESP header/trailer traffic
    mem_per_byte=_FWD_MEM_PER_BYTE,
    io_base_bytes=_FWD_IO_BASE,
    io_per_byte=_FWD_IO_PER_BYTE,
    pcie_base_bytes=_FWD_PCIE_BASE,
    pcie_per_byte=_FWD_PCIE_PER_BYTE,
    qpi_base_bytes=(_FWD_MEM_BASE + 40) * _QPI_FRACTION,
    qpi_per_byte=_FWD_MEM_PER_BYTE * _QPI_FRACTION,
    instructions_per_packet=14221,
    cycles_per_instruction=0.55,
)

APPLICATIONS = {
    "forwarding": MINIMAL_FORWARDING,
    "routing": IP_ROUTING,
    "ipsec": IPSEC,
}

# --------------------------------------------------------------------------
# Parallelism penalties (Fig. 6, Fig. 7)
# --------------------------------------------------------------------------

#: Toy-scenario per-packet processing cost for the "blind" forwarding path
#: used in Fig. 6 (simpler than the full router path): 1.7 Gbps at 64 B on
#: one core -> 3.32 Mpps -> 2.8e9/3.32e6 = 843 cycles/packet.
TOY_FWD_CYCLES = 843.0

#: Core-to-core handoff (pipeline synchronization) cost.  Fig. 6(a) with a
#: shared L3: 1.2 Gbps -> 2.344 Mpps -> stage cost 1194.5 cycles; with the
#: work split evenly (421.5 cycles/stage), the handoff costs 773 cycles.
PIPELINE_SYNC_CYCLES = 773.0

#: Additional cost when the handoff crosses L3 caches (compulsory misses):
#: Fig. 6(a') 0.6 Gbps -> 1.172 Mpps -> stage cost 2389 cycles -> +1194.5.
CROSS_CACHE_MISS_CYCLES = 1194.5

#: Lock + cache-line bouncing penalty per packet when a NIC queue is shared
#: by multiple cores.  Fig. 6(e): overlapping paths without multi-queue run
#: at 0.7 Gbps/FP -> 1.367 Mpps -> 2048 cycles -> penalty = 1205 cycles.
QUEUE_LOCK_CYCLES = 1205.0

#: Fraction of the toy path attributable to RX polling (used for the
#: split-traffic scenario (c) where one core polls and others process).
RX_FRACTION = 0.4

#: Fig. 7 configuration factors.  "Single queue" forces a pipelined
#: RX-core -> worker handoff; measured effect is a ~50 % throughput loss
#: with batching on, and the 6.7x overall gap fixes the no-batching point.
SINGLE_QUEUE_EFFICIENCY = 0.50
#: Xeon shared-bus CPI inflation: FSB contention stretches memory stalls.
#: Chosen so Xeon = 18.96/11 = 1.72 Mpps: (7854 * f) = 19.2e9/1.72e6.
XEON_CPI_FACTOR = 1.45
#: Xeon front-side bus: all memory AND I/O traffic shares one bus.
XEON_FSB_BPS = gbps(68)  # ~8.5 GB/s, typical 1333 MHz FSB

# --------------------------------------------------------------------------
# Stateful NF costs (State-Compute Replication, arXiv 2309.14647)
# --------------------------------------------------------------------------
# The paper's applications are stateless per packet; the stateful NF suite
# (repro.stateful) adds per-flow state whose *access discipline* is the
# measured quantity.  The constants below calibrate the three core-dispatch
# strategies against the Fig. 6 penalties already derived above:
# QUEUE_LOCK_CYCLES (1205) is a lock acquire + full cache-line bounce on a
# shared NIC ring, and CROSS_CACHE_MISS_CYCLES (1194.5) is a compulsory
# cross-L3 transfer; the per-line and per-acquire figures here are chosen
# to decompose consistently with those aggregates.

#: Hash + bucket walk to find a flow's state entry (one random line).
STATE_LOOKUP_CYCLES = 160.0
#: Writing the updated entry back (the line is already resident).
STATE_UPDATE_CYCLES = 90.0
#: Per-packet verdict/action work of each NF on top of the table access.
NF_COMPUTE_CYCLES = {
    "nat": 180.0,
    "firewall": 110.0,
    "policer": 140.0,
    "lb": 120.0,
}
#: Packet handling around the NF stage (parse headers, apply the verdict).
STATEFUL_BASE_CYCLES = 300.0
#: Bytes of per-flow state an NF touches per packet (one cache line).
STATE_ENTRY_BYTES = 64.0

#: One cache line migrating from a remote core's cache (L3 hit-modified /
#: cross-socket snoop average on Nehalem; half of CROSS_CACHE_MISS_CYCLES'
#: two-line handoff).
CACHE_COHERENCE_CYCLES = 350.0
#: Shared-state strategies bounce the lock word and the entry line.
STATE_SHARED_LINES = 2.0
#: Uncontended lock acquire/release (local CAS pair).
LOCK_BASE_CYCLES = 40.0
#: A contended acquire: spin while the holder finishes its lookup+update
#: critical section, then take the bounced line (QUEUE_LOCK_CYCLES-scale
#: convoy cost per extra waiter).
LOCK_CONTENDED_CYCLES = 1800.0

#: Encoding a compact state delta into the per-core history log (SCR's
#: packet-history share): sequence + flow key + operands.
SCR_DELTA_ENCODE_CYCLES = 60.0
#: Replaying one delta on a replica core: apply a precomputed transition
#: to a local, exclusively-owned line -- the whole point of SCR is that
#: this is an order of magnitude cheaper than the full NF update.
SCR_DELTA_APPLY_CYCLES = 25.0
#: Wire/log size of one delta (seq 8 + key 13 + operands, padded).
SCR_DELTA_BYTES = 32.0

# --------------------------------------------------------------------------
# Latency model (Sec. 6.2)
# --------------------------------------------------------------------------

#: DMA transfer time for a 64 B packet (400 MHz DMA engine, Sec. 6.2).
DMA_TRANSFER_USEC = 2.56
#: NIC-driven batching can hold a packet for up to kn-1 others: 16 x 0.8 us.
BATCH_WAIT_USEC = 12.8
#: CPU processing time for routing a 64 B packet ("2425 cycles or 0.8 us").
ROUTE_PROCESS_USEC = 0.8
#: Minimal forwarding processing time at exit nodes (chosen so the
#: direct 2-hop path totals the paper's 47.6 us).
FORWARD_PROCESS_USEC = 0.72
#: Intermediate nodes skip header processing via the MAC-encoding trick and
#: their descriptor DMAs overlap the payload DMAs; the residual per-packet
#: time is two payload DMA transfers + batch wait + queue-move time, chosen
#: so the 3-hop path totals the paper's 66.4 us.
INTERMEDIATE_PROCESS_USEC = 0.88

#: Per-server latency for the input (routing) node: 4 DMA transfers + batch
#: wait + processing = 4 x 2.56 + 12.8 + 0.8 = 24.0 us (Sec. 6.2).
INPUT_NODE_LATENCY_USEC = 4 * DMA_TRANSFER_USEC + BATCH_WAIT_USEC + ROUTE_PROCESS_USEC

# --------------------------------------------------------------------------
# Cluster / VLB constants (Sec. 3, Sec. 6)
# --------------------------------------------------------------------------

#: Flowlet inactivity gap (Sec. 6.1): bursts separated by more than delta
#: follow a new path; 100 ms is "well above the per-packet latency".
FLOWLET_DELTA_SEC = 0.100

#: Reordering-avoidance CPU overhead per ingress packet (derived above from
#: RB4's 12 Gbps 64 B result): per-flow counters, timestamps, and link
#: utilization tracking.
REORDER_AVOIDANCE_CYCLES = 842.0

#: RB4 prototype shape.
RB4_NODES = 4

#: Cost constants for the Fig. 3 comparison.
SERVER_COST_USD = 2000
ARISTA_PORT_COST_USD = 500
SWITCH_PORTS = 48

# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

#: Mean packet size of the synthetic Abilene-like trace.  Chosen (with the
#: IPsec per-byte cost) to reproduce the paper's Abilene IPsec rate of
#: 4.45 Gbps; 740 B is consistent with reported Abilene packet-size means.
ABILENE_MEAN_PACKET_BYTES = 740.0

#: Routing table size used in the paper's IP-routing experiments.
ROUTING_TABLE_ENTRIES = 256 * 1024
