"""Generate timed cluster events from a traffic matrix.

Bridges the analytic world (`TrafficMatrix`, Sec. 3's uniform/worst-case
demands) and the packet-level simulation (`RouteBricksRouter.simulate``):
each (ingress, egress) demand becomes a Poisson packet stream at the
demanded rate, with per-pair flow pools so the flowlet machinery sees
realistic flow structure.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from heapq import heappop, heappush
from itertools import accumulate
from math import fsum, log
from typing import Iterator, Optional, Tuple

from ..errors import ConfigurationError
from ..net.addresses import IPv4Address
from ..net.flows import FiveTuple
from ..net.headers import PROTO_UDP
from ..net.packet import Packet
from .matrices import TrafficMatrix


def matrix_events(matrix: TrafficMatrix, duration_sec: float,
                  packet_bytes: int = 740, flows_per_pair: int = 4,
                  seed: int = 0, size_mix=None, owned=None,
                  id_base: Optional[int] = None) \
        -> Iterator[Tuple[float, int, int, Optional[Packet]]]:
    """Yield (time, ingress, egress, packet) events realizing ``matrix``.

    Each nonzero demand entry runs an independent Poisson process at its
    rate; events from all pairs are merged in time order.  Per-flow
    sequence numbers are stamped so reordering can be measured, and each
    flow's one :class:`~repro.net.flows.FiveTuple` as its packets'
    ``flow_key``.

    ``size_mix`` (optional (size, weight) pairs, e.g. from a
    :class:`~repro.workloads.spec.WorkloadSpec`) draws per-packet frame
    sizes from a distribution; pair rates are then set by the mix's mean
    size so the bits/second demand is still honored in expectation.

    Internal, for a cluster partition replaying the run's stream:
    ``owned`` (a container of node ids) limits packet *construction* to
    those ingress nodes -- every other arrival still rolls its dice,
    advances its flow's sequence counter and is yielded, with ``None``
    for the packet, so the owned ones are exactly the full stream's --
    and ``id_base`` numbers packets ``id_base + position in the stream``
    instead of drawing ids from the process-wide counter.
    """
    if duration_sec <= 0:
        raise ConfigurationError("duration must be positive")
    if packet_bytes < 64:
        raise ConfigurationError("packet size below Ethernet minimum")
    if flows_per_pair < 1:
        raise ConfigurationError("need >= 1 flow per pair")
    rng = random.Random(seed)
    cum_weights = None
    if size_mix is not None:
        sizes = [size for size, _ in size_mix]
        weights = [weight for _, weight in size_mix]
        if not sizes or min(sizes) < 64 or min(weights) < 0 \
                or not 0 < sum(weights) < float("inf"):
            raise ConfigurationError("bad size mix %r" % (size_mix,))
        if len(sizes) == 1:
            packet_bytes = sizes[0]
        else:
            packet_bytes = sum(s * w for s, w in size_mix) / sum(weights)
            # What ``choices(sizes, cum_weights=...)`` reads per call,
            # given once; a drawn size is rounded as a fixed one is.
            cum_weights = list(accumulate(weights))
            total, last = cum_weights[-1] + 0.0, len(cum_weights) - 1
            lengths = [int(round(size)) for size in sizes]
    packet_bits, length = packet_bytes * 8, int(round(packet_bytes))
    flow_bits = int(flows_per_pair).bit_length()    # for ``randrange``

    # Per pair, in its heap entries: the Poisson rate (``expovariate``'s
    # argument), the flow pool and the per-flow sequence counters.
    heap = []
    for src, row in enumerate(matrix.demands):
        for dst, demand in enumerate(row):
            if src == dst or demand <= 0:
                continue
            rate = 1.0 / (packet_bits / demand)
            flows = [FiveTuple(IPv4Address((10 << 24) | (src << 16) | index),
                               IPv4Address((10 << 24) | (dst << 16) | index),
                               PROTO_UDP, 1024 + index, 80)
                     for index in range(flows_per_pair)]
            # (src, dst) is unique, so no comparison reaches the state.
            heappush(heap, (rng.expovariate(rate), src, dst,
                            (rate, flows, [0] * flows_per_pair)))

    # ``randrange``, ``choices`` and ``expovariate``, inline: the random
    # module's own formulas in Python 3.9-3.12 (pinned by a test).
    draw, getrandbits = rng.random, rng.getrandbits
    position = 0
    while heap:
        time, src, dst, state = heappop(heap)
        if time > duration_sec:
            continue
        rate, flows, seqs = state
        flow_index = getrandbits(flow_bits)
        while flow_index >= flows_per_pair:
            flow_index = getrandbits(flow_bits)
        if cum_weights is not None:
            length = lengths[bisect_right(cum_weights, draw() * total,
                                          0, last)]
        seqs[flow_index] += 1
        packet = None
        if owned is None or src in owned:
            flow = flows[flow_index]
            packet = Packet.udp(
                flow.src, flow.dst, length, flow.src_port, flow.dst_port,
                packet_id=None if id_base is None else id_base + position)
            packet.flow_seq = seqs[flow_index]
            packet.flow_key = flow
        position += 1
        yield time, src, dst, packet
        next_time = time + -log(1.0 - draw()) / rate
        if next_time <= duration_sec:
            heappush(heap, (next_time, src, dst, state))


def offered_packets(matrix: TrafficMatrix, duration_sec: float,
                    packet_bytes: int = 740) -> float:
    """Expected event count for a (matrix, duration) realization."""
    total_bps = fsum(demand for row in matrix.demands for demand in row)
    return total_bps * duration_sec / (packet_bytes * 8)
