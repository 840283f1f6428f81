"""Property tests on the DES: the engine's (time, filing order) contract
against a sort-based reference, and the cluster's conservation and
ordering invariants."""

import bisect
import random
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RouteBricksRouter
from repro.simnet import Simulator
from repro.workloads import FixedSizeWorkload


def _random_events(num_nodes, packets, seed):
    rng = random.Random(seed)
    workload = FixedSizeWorkload(packet_bytes=200 + rng.randrange(1300),
                                 num_flows=16, seed=seed)
    events = []
    now = 0.0
    for packet in workload.packets(packets):
        now += rng.expovariate(1e6)
        ingress = rng.randrange(num_nodes)
        egress = rng.randrange(num_nodes)
        events.append((now, ingress, egress, packet))
    return events


@settings(max_examples=12, deadline=None)
@given(num_nodes=st.integers(min_value=2, max_value=6),
       packets=st.integers(min_value=10, max_value=200),
       seed=st.integers(min_value=0, max_value=999),
       flowlets=st.booleans())
def test_packet_conservation(num_nodes, packets, seed, flowlets):
    """Every offered packet is either delivered or counted dropped."""
    router = RouteBricksRouter(num_nodes=num_nodes, use_flowlets=flowlets,
                               seed=seed)
    report = router.simulate(_random_events(num_nodes, packets, seed))
    assert report.delivered_packets + report.dropped_packets \
        == report.offered_packets
    total_egress = sum(s["egress"] for s in report.node_stats)
    assert total_egress == report.delivered_packets


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_paths_are_loop_free(seed):
    """No packet visits more than 3 servers in a full mesh (S, I, D)."""
    router = RouteBricksRouter(num_nodes=4, seed=seed)
    sim, nodes = router.build_simulation()
    paths = []
    for node in nodes:
        node.egress_callback = lambda p, now: paths.append(p.path)
    for time, ingress, egress, packet in _random_events(4, 100, seed):
        sim.schedule_timer_at(time,
                              lambda n=nodes[ingress], p=packet, e=egress:
                              n.ingress(p, e))
    sim.run()
    for path in paths:
        assert 1 <= len(path) <= 3
        assert len(set(path)) == len(path)  # no repeated nodes


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_single_path_traffic_never_reorders(seed):
    """A single low-rate flow (no balancing pressure) exits in order."""
    router = RouteBricksRouter(num_nodes=4, seed=seed)
    workload = FixedSizeWorkload(packet_bytes=300, num_flows=1, seed=seed)
    events = [(index * 1e-4, 0, 2, packet)
              for index, packet in enumerate(workload.packets(50))]
    report = router.simulate(events)
    assert report.reordered_fraction == 0.0
    assert report.delivered_packets == 50


# -- engine vs reference ------------------------------------------------------
#
# A program is a forest of filings.  Each filing names the front it goes
# through, offsets from the clock at filing time and the filings its
# callback makes when it runs (nested scheduling).  The same program
# drives the real engine and a reference that keeps one list sorted on
# (time, filing index) and runs its head.

FRONTS = ("schedule_timer", "schedule_timer_at", "timer_filer")
#: One filing through ``schedule_stream``: its offsets are a tuple of
#: chunks, handed over as lists of pairs or as ``zip`` iterables.
STREAM_FRONTS = ("stream_of_lists", "stream_of_zips")

#: Binary-exact and inexact steps, exact ties, a zero, and two offsets six
#: orders of magnitude either side of the rest (a far event beside a tiny
#: offset, and the other way round).
OFFSETS = (0.0, 0.0, 0.125, 0.125, 0.25, 0.375, 0.1, 0.3, 1.0, 1e-9, 3e-9,
           1e3)


def _chunked_offsets(front, offsets):
    """The offsets of one filing as chunks, in filing order (one chunk
    unless it is a stream).  A stream may not step back across a chunk
    boundary, so each chunk after the first counts its offsets from the
    previous chunk's last entry."""
    if front not in STREAM_FRONTS:
        return [list(offsets)]
    chunks, base = [], 0.0
    for chunk in offsets:
        chunks.append([base + offset for offset in chunk])
        base = chunks[-1][-1]
    return chunks


class ReferenceQueue:
    """What the engine must be indistinguishable from."""

    def __init__(self):
        self.now = 0.0
        self.events_run = 0
        self._filed = 0
        self._pending = []

    def file(self, front, offsets, callback):
        for chunk in _chunked_offsets(front, offsets):
            for offset in chunk:
                record = (self.now + offset, self._filed, callback)
                bisect.insort(self._pending, record, key=lambda r: (r[0], r[1]))
                self._filed += 1

    def peek_time(self):
        return self._pending[0][0] if self._pending else None

    def run(self, until=None):
        while self._pending:
            head = self._pending[0]
            if until is not None and head[0] > until:
                break
            self._pending.pop(0)
            self.now = head[0]
            head[2]()
            self.events_run += 1
        if until is not None and self.now < until:
            self.now = until


class EngineQueue:
    """The same three verbs over a real :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()

    now = property(lambda self: self.sim.now)
    events_run = property(lambda self: self.sim.events_run)

    def file(self, front, offsets, callback):
        sim = self.sim
        if front in STREAM_FRONTS:
            now = sim.now   # the later chunks are pulled at later clocks
            chunks = ([now + offset for offset in chunk]
                      for chunk in _chunked_offsets(front, offsets))
            if front == "stream_of_zips":
                sim.schedule_stream(
                    zip(times, repeat(callback)) for times in chunks)
            else:
                sim.schedule_stream(
                    [[(time, callback) for time in times] for times in chunks])
            return
        offset, = offsets
        if front == "timer_filer":
            sim.timer_filer()(sim.now + offset, callback)
            return
        if front.endswith("_at"):
            offset += sim.now
        getattr(sim, front)(offset, callback)

    def peek_time(self):
        return self.sim.peek_time()

    def run(self, until=None):
        self.sim.run(until=until)


def _filing(children):
    single = st.tuples(
        st.sampled_from(FRONTS),
        st.tuples(st.sampled_from(OFFSETS)), children)
    chunk = st.lists(st.sampled_from(OFFSETS), min_size=1,
                     max_size=4).map(tuple)
    stream = st.tuples(
        st.sampled_from(STREAM_FRONTS),
        st.lists(chunk, min_size=1, max_size=3).map(tuple),
        children)
    return st.one_of(single, stream)


FILINGS = st.recursive(_filing(st.just(())),
                       lambda inner: _filing(st.lists(inner, max_size=3)),
                       max_leaves=25)


def _play(queue, program, slices):
    """Run ``program`` on ``queue``; returns everything observable."""
    log = []
    labels = iter(range(10 ** 6))

    def file(filing):
        front, offsets, children = filing
        label = next(labels)

        def fire():
            log.append((queue.now, label))
            for child in children:
                file(child)

        queue.file(front, offsets, fire)

    for filing in program:
        file(filing)
    observed = [queue.peek_time()]
    horizon = 0.0
    for step in slices:
        horizon += step
        queue.run(until=horizon)
        observed.append((len(log), queue.now, queue.events_run,
                         queue.peek_time()))
    queue.run()
    observed.append((queue.now, queue.events_run, queue.peek_time()))
    return log, observed


@settings(max_examples=300, deadline=None)
@given(program=st.lists(FILINGS, min_size=1, max_size=6),
       slices=st.lists(st.sampled_from([0.0, 0.0625, 0.125, 0.3, 1.0, 500.0]),
                       max_size=5))
def test_engine_matches_sorted_reference(program, slices):
    """Whatever mix of fronts, nesting and ``run(until=)`` slices: events
    run in (time, filing index) order, and ``now`` / ``events_run`` /
    ``peek_time()`` agree with the reference after every slice."""
    expected = _play(ReferenceQueue(), program, slices)
    assert _play(EngineQueue(), program, slices) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       bin_sec=st.sampled_from([1e-6, 3e-6, 1e-5, 1.0]),
       slices=st.integers(min_value=1, max_value=6),
       late=st.integers(min_value=0, max_value=4))
def test_sim_events_bins_equal_one_record_per_event(seed, bin_sec, slices,
                                                    late):
    """``run`` counts ``sim_events`` per bin in locals and books a bin
    when the clock leaves it; across ``run(until)`` slices, late events
    (``run_as_of``) and bin crossings the timeline must hold exactly the
    cells one ``record(now)`` per executed event leaves."""
    from repro.obs.metrics import MetricsRegistry

    rng = random.Random(seed)
    registry = MetricsRegistry(enabled=True, timeline_bin_sec=bin_sec,
                               profile=True)
    reference = MetricsRegistry(enabled=True, timeline_bin_sec=bin_sec)
    sim = Simulator(metrics=registry)

    def fire():
        reference.timeline("sim_events").record(sim.now)
        if rng.random() < 0.6:
            # Same instant, same bin, or a few bins on.
            sim.schedule_timer(rng.choice((0.0, 1e-7, bin_sec / 2,
                                           3 * bin_sec)), fire)

    for _ in range(rng.randrange(1, 40)):
        sim.schedule_timer_at(rng.random() * 20 * bin_sec, fire)
    for _ in range(slices):
        pending = sim.peek_time()
        if pending is None:
            break
        sim.run(until=pending + rng.random() * 5 * bin_sec)
        for _ in range(rng.randrange(late + 1)):
            # A late event: booked at its own, earlier time.
            sim.run_as_of(rng.random() * sim.now, lambda: reference.timeline(
                "sim_events").record(sim.now))
    sim.run()

    def cells(reg):
        series = reg.timeline("sim_events")._series
        return {key: {index: (cell, [type(v) for v in cell])
                      for index, cell in value.bins.items()}
                for key, value in series.items()}

    assert cells(registry) == cells(reference)
    assert (registry.snapshot()["timelines"]
            == reference.snapshot()["timelines"])
    assert registry.timeline("sim_events").totals()["count"] == \
        sim.events_run
