"""Tests for matrix-driven cluster traffic generation."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RouteBricksRouter
from repro.errors import ConfigurationError
from repro.net import IPv4Address, Packet
from repro.net.flows import FiveTuple
from repro.net.headers import PROTO_UDP
from repro.workloads import (TrafficMatrix, WorkloadSpec, permutation_matrix,
                             uniform_matrix)
from repro.workloads.abilene import ABILENE_SIZE_MIX
from repro.workloads.imix import MIXES
from repro.workloads.cluster_traffic import matrix_events, offered_packets


class TestMatrixEvents:
    def test_events_sorted_and_within_duration(self):
        matrix = uniform_matrix(4, 1e9)
        events = list(matrix_events(matrix, duration_sec=1e-3, seed=1))
        times = [t for t, _, _, _ in events]
        assert times == sorted(times)
        assert all(t <= 1e-3 for t in times)

    def test_event_count_matches_demand(self):
        matrix = uniform_matrix(4, 2e9)
        events = list(matrix_events(matrix, duration_sec=2e-3, seed=2))
        expected = offered_packets(matrix, 2e-3)
        assert len(events) == pytest.approx(expected, rel=0.15)

    def test_pairs_follow_matrix_support(self):
        matrix = permutation_matrix(4, 1e9)
        events = list(matrix_events(matrix, duration_sec=1e-3, seed=3))
        pairs = {(i, e) for _, i, e, _ in events}
        assert pairs <= {(i, (i + 1) % 4) for i in range(4)}

    def test_flow_seq_monotone_per_flow(self):
        matrix = uniform_matrix(3, 1e9)
        last = {}
        for _, _, _, packet in matrix_events(matrix, duration_sec=1e-3,
                                             seed=4):
            key = packet.five_tuple()
            assert packet.flow_seq == last.get(key, 0) + 1
            last[key] = packet.flow_seq

    def test_each_flow_carries_one_shared_key(self):
        # The stamped key is the one the headers give, and every packet
        # of a flow holds the same object (per-flow tables hash it
        # rather than a fresh key per lookup).
        matrix = uniform_matrix(4, 2e9)
        keys = {}
        for _, src, dst, packet in matrix_events(matrix, 1e-3, seed=6,
                                                 flows_per_pair=3):
            ip, l4 = packet.ip, packet.l4
            derived = FiveTuple(ip.src, ip.dst, ip.proto, l4.src_port,
                                l4.dst_port)
            assert packet.flow_key == derived
            assert packet.five_tuple() is packet.flow_key
            assert keys.setdefault(derived, packet.flow_key) \
                is packet.flow_key
        assert len(keys) == 4 * 3 * 3

    def test_deterministic(self):
        matrix = uniform_matrix(3, 1e9)
        a = [(t, i, e) for t, i, e, _ in matrix_events(matrix, 1e-3, seed=5)]
        b = [(t, i, e) for t, i, e, _ in matrix_events(matrix, 1e-3, seed=5)]
        assert a == b

    def test_bad_args(self):
        matrix = uniform_matrix(3, 1e9)
        with pytest.raises(ConfigurationError):
            list(matrix_events(matrix, duration_sec=0))
        with pytest.raises(ConfigurationError):
            list(matrix_events(matrix, 1e-3, packet_bytes=32))


def _library_events(matrix, duration_sec, packet_bytes=740,
                    flows_per_pair=4, seed=0, size_mix=None, owned=None,
                    id_base=None):
    """The generator's loop as it was written against the ``random``
    library calls (``expovariate``, ``randrange``, ``choices``): the
    reference the inline draws must reproduce bit for bit."""
    rng = random.Random(seed)
    if size_mix is not None:
        sizes = [size for size, _ in size_mix]
        weights = [weight for _, weight in size_mix]
        if len(sizes) == 1:
            size_mix, packet_bytes = None, sizes[0]
        else:
            packet_bytes = sum(s * w for s, w in zip(sizes, weights)) \
                / sum(weights)
    heap, pairs = [], {}
    for src in range(matrix.n):
        for dst in range(matrix.n):
            demand = matrix.demands[src][dst]
            if src == dst or demand <= 0:
                continue
            mean_gap = packet_bytes * 8 / demand
            flows = [FiveTuple(IPv4Address((10 << 24) | (src << 16) | i),
                               IPv4Address((10 << 24) | (dst << 16) | i),
                               PROTO_UDP, 1024 + i, 80)
                     for i in range(flows_per_pair)]
            pairs[src, dst] = (mean_gap, flows, [0] * flows_per_pair)
            heapq.heappush(heap, (rng.expovariate(1.0 / mean_gap), src, dst))
    position = 0
    while heap:
        time, src, dst = heapq.heappop(heap)
        if time > duration_sec:
            continue
        mean_gap, flows, seqs = pairs[src, dst]
        index = rng.randrange(len(flows))
        length = int(round(rng.choices(sizes, weights=weights)[0]
                           if size_mix is not None else packet_bytes))
        seqs[index] += 1
        packet = None
        if owned is None or src in owned:
            flow = flows[index]
            packet = Packet.udp(
                flow.src, flow.dst, length=length, src_port=flow.src_port,
                dst_port=flow.dst_port,
                packet_id=None if id_base is None else id_base + position)
            packet.flow_seq, packet.flow_key = seqs[index], flow
        position += 1
        yield time, src, dst, packet
        next_time = time + rng.expovariate(1.0 / mean_gap)
        if next_time <= duration_sec:
            heapq.heappush(heap, (next_time, src, dst))


def _fields(event, with_id):
    """Every field of a yielded event, packet included (its id only
    when the caller numbers the stream)."""
    time, src, dst, packet = event
    if packet is None:
        return time, src, dst, None
    return (time, src, dst, packet.packet_id if with_id else None,
            packet.length, packet.flow_seq, packet.flow_key,
            packet.eth, packet.ip, packet.l4, packet.payload)


_MIXES = st.sampled_from([
    None,                                       # fixed size
    [(64, 1)],                                  # a one-size mix
    ABILENE_SIZE_MIX, MIXES["simple"], MIXES["cisco"],
    [(64.4, 0.5), (300.5, 1.25), (1499.6, 2.0)],   # rounds both ways
])


@st.composite
def _matrices(draw):
    n = draw(st.integers(2, 6))
    demands = [[0.0 if src == dst else draw(st.sampled_from(
        [0.0, 0.0, 3e8, 1e9, 2.5e9])) for dst in range(n)]
        for src in range(n)]
    return TrafficMatrix(demands)


class TestInlineDrawsAreTheLibrarys:
    @settings(max_examples=60, deadline=None)
    @given(matrix=_matrices(), size_mix=_MIXES,
           packet_bytes=st.sampled_from([64, 740, 1500]),
           flows_per_pair=st.integers(1, 7), seed=st.integers(0, 2**32),
           owned=st.none() | st.sets(st.integers(0, 5)),
           id_base=st.none() | st.integers(0, 10**6))
    def test_every_yielded_field_matches_the_library_loop(
            self, matrix, size_mix, packet_bytes, flows_per_pair, seed,
            owned, id_base):
        kwargs = dict(packet_bytes=packet_bytes,
                      flows_per_pair=flows_per_pair, seed=seed,
                      size_mix=size_mix, owned=owned, id_base=id_base)
        lean = [_fields(event, id_base is not None)
                for event in matrix_events(matrix, 2e-5, **kwargs)]
        reference = [_fields(event, id_base is not None)
                     for event in _library_events(matrix, 2e-5, **kwargs)]
        assert lean == reference


class TestPartitionReplay:
    """What a cluster partition relies on when it replays the stream
    for a subset of the ingress nodes."""

    @pytest.mark.parametrize("spec", [WorkloadSpec.fixed(64, seed=12),
                                      WorkloadSpec.abilene(seed=13)],
                             ids=["fixed", "mixed"])
    def test_owned_subset_is_the_full_stream_filtered(self, spec):
        workload = spec.with_matrix(uniform_matrix(4, 2e9))
        owned = {1, 2}
        full = list(workload.events(1e-3, id_base=5000))
        replay = list(workload.events(1e-3, owned=owned, id_base=5000))

        def built(events):
            return [(time, ingress, egress, packet.flow_seq, packet.length,
                     packet.packet_id)
                    for time, ingress, egress, packet in events
                    if packet is not None]

        # Every arrival is still rolled and yielded, in the same order...
        assert ([event[:3] for event in replay]
                == [event[:3] for event in full])
        # ...foreign ones without a packet, owned ones exactly as the
        # full stream has them, ids included.
        assert all((packet is None) == (ingress not in owned)
                   for _, ingress, _, packet in replay)
        assert built(replay) == [row for row in built(full)
                                 if row[1] in owned]
        assert [row[5] for row in built(full)] == list(
            range(5000, 5000 + len(full)))
        if spec.name == "abilene":
            assert len({row[4] for row in built(replay)}) > 1


class TestMatrixThroughDES:
    def test_uniform_matrix_all_direct_no_loss(self):
        """An admissible uniform matrix at 60 % load: everything direct,
        nothing dropped -- the cluster's design point."""
        matrix = uniform_matrix(4, 6e9)
        router = RouteBricksRouter(seed=6)
        report = router.simulate(matrix_events(matrix, 1.5e-3, seed=7))
        assert report.delivered_packets == report.offered_packets
        assert report.indirect_fraction < 0.05

    def test_permutation_matrix_fits_direct_links(self):
        """An admissible permutation matrix (demand <= R per pair) fits
        the 10 G direct links of a full mesh: no balancing needed -- the
        interconnect constraint VLB solves is processing, not link rate,
        in this topology."""
        matrix = permutation_matrix(4, 9.5e9)
        router = RouteBricksRouter(seed=8)
        report = router.simulate(matrix_events(matrix, 1.5e-3, seed=9))
        assert report.delivery_ratio > 0.999
        assert report.indirect_fraction < 0.2

    def test_oversubscribed_pair_forces_balancing(self):
        """Demand above one link's rate on a single pair (the paper's
        replay setup): the excess load-balances via intermediates."""
        from repro.workloads import TrafficMatrix
        demands = [[0.0] * 4 for _ in range(4)]
        demands[0][1] = 14e9  # 1.4x the direct link
        matrix = TrafficMatrix(demands)
        router = RouteBricksRouter(seed=8)
        report = router.simulate(matrix_events(matrix, 1.2e-3, seed=9))
        assert report.delivery_ratio > 0.999
        assert report.indirect_fraction > 0.2

    def test_times_and_samples_are_python_floats(self):
        """A matrix holds numpy demands; what the run computes from them
        (arrival times, the clock, latency samples) is plain float."""
        matrix = uniform_matrix(4, 3e9)
        times = [t for t, _, _, _ in matrix_events(matrix, 2e-4, seed=1)]
        assert {type(t) for t in times} == {float}
        report = RouteBricksRouter(seed=1).simulate(
            WorkloadSpec.fixed(64, seed=1).with_matrix(matrix), until=2e-4)
        assert type(report.latency_usec._values[0]) is float
        assert {type(v) for v in report.latency_usec._values} == {float}
