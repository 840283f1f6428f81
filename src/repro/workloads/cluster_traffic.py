"""Generate timed cluster events from a traffic matrix.

Bridges the analytic world (`TrafficMatrix`, Sec. 3's uniform/worst-case
demands) and the packet-level simulation (`RouteBricksRouter.simulate``):
each (ingress, egress) demand becomes a Poisson packet stream at the
demanded rate, with per-pair flow pools so the flowlet machinery sees
realistic flow structure.
"""

from __future__ import annotations

import heapq
import random
from itertools import accumulate
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
    if size_mix is not None:
        sizes = [size for size, _ in size_mix]
        weights = [weight for _, weight in size_mix]
        if not sizes or min(sizes) < 64 or min(weights) < 0 \
                or sum(weights) <= 0:
            raise ConfigurationError("bad size mix %r" % (size_mix,))
        mean_bytes = (sum(s * w for s, w in size_mix) / sum(weights))
        if len(sizes) == 1:
            size_mix = None
            packet_bytes = sizes[0]
        else:
            packet_bytes = mean_bytes
            # What ``choices(sizes, weights=weights)`` accumulates per
            # call: given once, each draw takes the same ``random()`` and
            # bisects the same list.
            cum_weights = list(accumulate(weights))
    packet_bits = packet_bytes * 8

    # Per-pair state: mean gap, flow pool, per-flow sequence counters.
    heap = []
    pair_state = {}
    for src in range(matrix.n):
        for dst in range(matrix.n):
            demand = matrix.demands[src][dst]
            if src == dst or demand <= 0:
                continue
            mean_gap = packet_bits / demand
            flows = [FiveTuple(IPv4Address((10 << 24) | (src << 16) | index),
                               IPv4Address((10 << 24) | (dst << 16) | index),
                               PROTO_UDP, 1024 + index, 80)
                     for index in range(flows_per_pair)]
            pair_state[(src, dst)] = {
                "mean_gap": mean_gap,
                "flows": flows,
                "seq": [0] * flows_per_pair,
            }
            first = rng.expovariate(1.0 / mean_gap)
            heapq.heappush(heap, (first, src, dst))

    position = 0
    while heap:
        time, src, dst = heapq.heappop(heap)
        if time > duration_sec:
            continue
        state = pair_state[(src, dst)]
        flow_index = rng.randrange(len(state["flows"]))
        length = int(round(rng.choices(sizes, cum_weights=cum_weights)[0]
                           if size_mix is not None else packet_bytes))
        state["seq"][flow_index] += 1
        packet = None
        if owned is None or src in owned:
            flow = state["flows"][flow_index]
            packet = Packet.udp(
                flow.src, flow.dst, length=length, src_port=flow.src_port,
                dst_port=flow.dst_port,
                packet_id=None if id_base is None else id_base + position)
            packet.flow_seq = state["seq"][flow_index]
            packet.flow_key = flow
        position += 1
        yield time, src, dst, packet
        next_time = time + rng.expovariate(1.0 / state["mean_gap"])
        if next_time <= duration_sec:
            heapq.heappush(heap, (next_time, src, dst))


def offered_packets(matrix: TrafficMatrix, duration_sec: float,
                    packet_bytes: int = 740) -> float:
    """Expected event count for a (matrix, duration) realization."""
    total_bps = float(matrix.demands.sum())
    return total_bps * duration_sec / (packet_bytes * 8)
