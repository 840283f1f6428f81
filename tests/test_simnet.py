"""Tests for the discrete-event simulation engine."""

import gc
import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.net import Packet
from repro.net.packet import WIRE_FORMAT
from repro.obs.metrics import MetricsRegistry
from repro.simnet import FiniteQueue, Histogram, Link, Simulator
from repro.simnet.partition import CrossLink, Partition


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_timer(2.0, lambda: order.append("b"))
        sim.schedule_timer(1.0, lambda: order.append("a"))
        sim.schedule_timer(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_timer(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule_timer(0.5, lambda: seen.append(sim.now))

        sim.schedule_timer(1.0, first)
        sim.run()
        assert seen == [1.0, 1.5]

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(1.0, lambda: fired.append(1))
        sim.schedule_timer(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_timer(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_timer_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_timer(-1.0, lambda: None)

    def test_events_run_counts_executions(self):
        sim = Simulator()
        sim.schedule_timer(1.0, lambda: None)
        sim.schedule_timer_at(2.0, lambda: None)
        sim.schedule_timer(3.0, lambda: None)
        sim.run(until=2.5)
        assert sim.events_run == 2
        sim.run()
        assert sim.events_run == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_are_rejected_on_every_front(self, bad):
        sim = Simulator()
        for front in (sim.schedule_timer, sim.schedule_timer_at):
            with pytest.raises(SimulationError, match="cannot schedule"):
                front(bad, lambda: None)
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_stream([[(bad, lambda: None)]])
        assert sim.peek_time() is None
        sim.run()
        assert sim.now == 0.0 and sim.events_run == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5])
    def test_stream_checks_every_time_of_a_chunk(self, bad):
        """A bad time right behind valid ascending ones -- not a number,
        not finite, behind the clock -- is refused."""
        sim = Simulator()
        sim.schedule_timer(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_stream(
                [[(2.0, lambda: None), (2.0, lambda: None),
                  (bad, lambda: None)]])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8])
    def test_stream_entry_precedes_a_timer_at_the_same_instant(self, chunk):
        """A stream's sequence block is reserved when it is armed, so an
        arrival runs before a poll filed for the same (binary-exact)
        instant -- whether that arrival's chunk was already filed when
        the poll was, or came later."""
        sim = Simulator()
        order = []
        times = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
        arrivals = iter([(time, partial(order.append, ("arrival", time)))
                         for time in times])
        sim.schedule_stream(
            iter(lambda: list(itertools.islice(arrivals, chunk)), []))
        file_at = sim.timer_filer()

        def poll():
            order.append(("poll", sim.now))
            if sim.now < 1.25:
                file_at(sim.now + 0.25, poll)   # lands on the next arrival
                file_at(sim.now + 0.125, lambda: None)

        sim.schedule_timer_at(0.0, poll)
        sim.run()
        assert order == [(kind, time) for time in times
                         for kind in ("arrival", "poll")]

    def test_schedule_timer_interleaves_with_heap_events(self):
        sim = Simulator()
        order = []
        file_at = sim.timer_filer()
        sim.schedule_timer(1.0, lambda: order.append("w1"))
        file_at(1.0, lambda: order.append("h1"))
        sim.schedule_timer(1.0, lambda: order.append("w2"))
        file_at(2.0, lambda: order.append("h2"))
        sim.schedule_timer_at(2.0, lambda: order.append("w3"))
        sim.run()
        assert order == ["w1", "h1", "w2", "h2", "w3"]
        assert sim.now == 2.0

    def test_schedule_timer_rejects_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_timer(-0.5, lambda: None)
        sim.schedule_timer(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_timer_at(0.5, lambda: None)

    def test_peek_time_covers_every_front(self):
        sim = Simulator()
        sim.schedule_timer_at(1.0, lambda: None)
        sim.schedule_stream([[(0.75, lambda: None)]])
        assert sim.peek_time() == 0.75
        sim.timer_filer()(0.625, lambda: None)
        assert sim.peek_time() == 0.625
        sim.schedule_timer(0.5, lambda: None)
        assert sim.peek_time() == 0.5
        sim.run()
        assert sim.peek_time() is None


class TestQueueOrder:
    """Every front files into the one queue, and execution follows
    ``(time, seq)`` whatever mix of fronts and offsets filed it."""

    def test_zero_delay_events_at_time_zero_before_any_positive_offset(self):
        sim = Simulator()
        order = []
        sim.schedule_timer(0.0, lambda: order.append("timer"))
        sim.schedule_timer_at(0.0, lambda: order.append("timer_at"))
        sim.timer_filer()(0.0, lambda: order.append("filer"))
        sim.schedule_stream(
            [zip([0.0, 0.0], itertools.repeat(lambda: order.append("bulk")))])
        assert sim.peek_time() == 0.0
        sim.schedule_timer(1e-6, lambda: order.append("first positive"))
        sim.schedule_timer(0.0, lambda: order.append("after"))
        sim.run()
        assert order == ["timer", "timer_at", "filer", "bulk", "bulk",
                         "after", "first positive"]
        assert sim.now == 1e-6

    def test_events_filed_before_traffic_keep_their_place(self):
        """A cluster run files its faults and first observer tick before
        any packet; the arrivals and timers filed after them still run in
        time order around them."""
        sim = Simulator()
        order = []
        sim.schedule_timer_at(250e-6, lambda: order.append("fault"))
        sim.schedule_timer(100e-6, lambda: order.append("tick"))
        assert sim.peek_time() == 100e-6
        sim.schedule_timer_at(1e-6, lambda: order.append("arrival"))
        assert sim.peek_time() == 1e-6
        sim.schedule_timer(300e-6, lambda: order.append("late"))
        sim.run()
        assert order == ["arrival", "tick", "fault", "late"]

    def test_far_event_beside_a_nanosecond_timer(self):
        sim = Simulator()
        order = []
        sim.schedule_timer(1e-9, lambda: order.append("near"))
        sim.schedule_timer(1e3, lambda: order.append("far timer"))
        sim.schedule_timer_at(1e3, lambda: order.append("far timer_at"))
        sim.run(until=1.0)
        assert order == ["near"] and sim.peek_time() == 1e3
        sim.run()
        assert order == ["near", "far timer", "far timer_at"]
        assert sim.now == 1e3

    def test_nested_filing_across_a_run_until_slice(self):
        sim = Simulator()
        order = []
        for i in (3, 1, 2):
            sim.schedule_timer_at(float(i), lambda i=i: order.append(i))
        sim.schedule_timer(1.0, lambda: sim.schedule_timer(
            0.5, lambda: order.append(1.5)))
        sim.run(until=1.0)
        assert order == [1] and sim.peek_time() == 1.5
        sim.run()
        assert order == [1, 1.5, 2, 3]
        assert sim.events_run == 5 and sim.peek_time() is None


class TestCollectorPause:
    """``Simulator.run`` pauses the cyclic GC for its loop and leaves
    ``gc.isenabled()`` as it found it: enabled, disabled, or after a
    callback raised."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        sim = Simulator()
        seen = []
        sim.schedule_timer(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_state_is_restored_when_a_callback_raises(self):
        gc.enable()
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule_timer(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()


class TestRunAsOf:
    """``Simulator.run_as_of``: one event, executed late, booked on time."""

    def _sim_at(self, clock, metrics=None):
        sim = Simulator(metrics=metrics)
        sim.schedule_timer(clock, lambda: None)
        sim.run()
        return sim

    def test_counts_one_event_and_restores_the_clock(self):
        sim = self._sim_at(10.0)
        seen = []
        sim.run_as_of(4.0, lambda: seen.append(sim.now))
        assert seen == [4.0]
        assert sim.now == 10.0
        assert sim.events_run == 2

    def test_follow_on_lands_relative_to_the_past_time(self):
        sim = self._sim_at(10.0)
        fired = []
        sim.run_as_of(4.0, lambda: sim.schedule_timer(
            7.5, lambda: fired.append(sim.now)))
        assert sim.peek_time() == 11.5
        sim.run()
        assert fired == [11.5]

    def test_binned_at_its_time_with_a_registry_on(self):
        registry = MetricsRegistry(enabled=True, timeline_bin_sec=1.0)
        sim = self._sim_at(10.0, metrics=registry)
        sim.run_as_of(4.5, lambda: None)
        bins = registry.snapshot()["timelines"]["sim_events"][""]["bins"]
        assert [(start, count) for start, _, count, _ in bins] == [
            (4.0, 1), (10.0, 1)]

    def test_clock_restored_when_the_callback_raises(self):
        sim = self._sim_at(10.0)

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            sim.run_as_of(4.0, boom)
        assert sim.now == 10.0

    def test_rejects_a_time_ahead_of_the_clock(self):
        sim = self._sim_at(10.0)
        with pytest.raises(SimulationError, match="clock only at"):
            sim.run_as_of(10.5, lambda: None)

    def test_raises_when_the_callback_schedules_before_the_clock(self):
        sim = self._sim_at(10.0)
        with pytest.raises(SimulationError, match="window is too large"):
            sim.run_as_of(4.0, lambda: sim.schedule_timer(3.0, lambda: None))
        assert sim.now == 10.0


class TestObservedLoop:
    """One event loop serves observed and unobserved runs: the hooks
    change what is booked, never what runs."""

    @staticmethod
    def _drive(sim):
        rng = random.Random(5)
        order = []

        def fire(tag):
            order.append((tag, sim.now))
            if len(order) < 400 and rng.random() < 0.7:
                delay = rng.choice((0.0, 1e-6, 3.7e-6))
                if rng.random() < 0.5:
                    sim.schedule_timer(delay, partial(fire, len(order)))
                else:
                    sim.schedule_timer_at(sim.now + delay,
                                          partial(fire, len(order)))

        for index in range(40):
            sim.schedule_timer_at(index * 1e-6, partial(fire, -index))
        sim.run(until=2e-5)
        sim.run(until=sim.peek_time())
        sim.run()
        return order

    def test_observed_and_unobserved_run_the_same_events(self):
        registry = MetricsRegistry(enabled=True, profile=True)
        observed = Simulator(metrics=registry)
        unobserved = Simulator(metrics=MetricsRegistry(enabled=False))
        assert self._drive(observed) == self._drive(unobserved)
        assert observed.events_run == unobserved.events_run > 40
        assert observed.now == unobserved.now
        booked = registry.timeline("sim_events").totals()
        assert booked["count"] == observed.events_run

    def test_frame_leaked_by_a_raising_callback_is_gone_at_the_next_event(
            self):
        registry = MetricsRegistry(enabled=True, profile=True)
        sim = Simulator(metrics=registry)
        profiler = registry.profiler
        stacks = []

        def leak():
            profiler.push("leaked")
            raise RuntimeError("boom")

        sim.schedule_timer(1.0, leak)
        sim.schedule_timer(2.0, lambda: stacks.append(list(profiler._stack)))
        with pytest.raises(RuntimeError):
            sim.run()
        assert profiler._stack == ["leaked"]
        sim.run()
        assert stacks == [[]]
        assert sim.events_run == 1  # the raising callback is not counted


class TestFiniteQueue:
    def test_fifo_order(self):
        q = FiniteQueue(capacity=3)
        for i in range(3):
            assert q.offer(i)
        assert [q.poll(), q.poll(), q.poll()] == [0, 1, 2]

    def test_overflow_drops(self):
        q = FiniteQueue(capacity=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.dropped == 1

    def test_poll_empty(self):
        assert FiniteQueue(capacity=1).poll() is None

    def test_batch_poll(self):
        q = FiniteQueue(capacity=10)
        for i in range(5):
            q.offer(i)
        assert q.poll_batch(3) == [0, 1, 2]
        assert len(q) == 2

    def test_high_watermark(self):
        q = FiniteQueue(capacity=10)
        for i in range(4):
            q.offer(i)
        q.poll()
        assert q.high_watermark == 4

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            FiniteQueue(capacity=0)


class TestLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        got = []
        link = Link(sim, "l", rate_bps=8e6, deliver=lambda p: got.append(sim.now),
                    propagation_sec=1e-3)
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=1000)  # 8000 bits
        assert link.send(packet)
        sim.run()
        # 8000 bits at 8 Mbps = 1 ms serialization + 1 ms propagation.
        assert got == [pytest.approx(2e-3)]

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        times = []
        link = Link(sim, "l", rate_bps=8e6, deliver=lambda p: times.append(sim.now),
                    propagation_sec=0.0)
        for _ in range(3):
            link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=1000))
        sim.run()
        assert times == [pytest.approx(1e-3), pytest.approx(2e-3),
                         pytest.approx(3e-3)]

    def test_fifo_no_reordering_on_one_link(self):
        sim = Simulator()
        got = []
        link = Link(sim, "l", rate_bps=1e9, deliver=lambda p: got.append(p.flow_seq))
        for seq in range(20):
            packet = Packet.udp("1.1.1.1", "2.2.2.2", length=100)
            packet.flow_seq = seq
            link.send(packet)
        sim.run()
        assert got == list(range(20))

    def test_queue_overflow(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e3, deliver=lambda p: None,
                    queue_packets=2)
        results = [link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))
                   for _ in range(5)]
        # One in flight + 2 queued; the rest dropped.
        assert results.count(False) >= 1
        assert link.queue.dropped >= 1

    def test_queued_bits(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e3, deliver=lambda p: None)
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))  # in flight
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))  # queued
        assert link.queued_bits() == 800

    def test_queued_bits_tracks_the_queue_through_drain_stall_and_flush(self):
        # The running count must equal a walk of the queue at every step.
        def walked(link):
            return sum(p.length * 8 for p in link.queue._items)

        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e6, deliver=lambda p: None,
                    queue_packets=4)
        for length in (100, 200, 300, 400, 500, 600):  # last one overflows
            link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=length))
        assert link.queued_bits() == walked(link) == (200 + 300 + 400
                                                      + 500) * 8
        sim.run(until=1e-3)                     # 100 B done, 200 B started
        assert link.queued_bits() == walked(link) == (300 + 400 + 500) * 8
        link.stall(5e-3)
        sim.run(until=4e-3)                     # in-flight done, rest held
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=64))
        assert link.queued_bits() == walked(link) == (300 + 400 + 500
                                                      + 64) * 8
        assert link.flush() == 4
        assert link.queued_bits() == walked(link) == 0
        sim.run()
        assert link.queued_bits() == 0

    @pytest.mark.parametrize("first, second", [(100e-6, 10e-6),
                                               (10e-6, 95e-6)])
    def test_overlapping_stalls_hold_until_the_latest_ends(self, first,
                                                           second):
        """A stall filed during another ends when the later of the two
        does, whichever was filed first: the first ``resume`` to fire
        must not un-stall the link early."""
        sim = Simulator()
        got = []
        link = Link(sim, "l", rate_bps=8e9,
                    deliver=lambda p: got.append(sim.now))
        link.stall(first)
        sim.schedule_timer_at(5e-6, lambda: link.stall(second))
        sim.schedule_timer_at(25e-6, lambda: link.send(
            Packet.udp("1.1.1.1", "2.2.2.2", length=1000)))
        sim.run(until=50e-6)
        assert link.stalled and got == []
        sim.run()
        # Stalled to 100 us, then 1 us serialization + 1 us propagation.
        assert got == [pytest.approx(102e-6)]
        assert not link.stalled


class _QueuedLink(Link):
    """A link forced through ``offer``/``poll`` even when idle."""

    def send(self, packet):
        if not self.queue.offer(packet):
            return False
        self._queued_bits += packet.length * 8
        if not self.busy:
            self._start_next()
        return True


class _QueuedCrossLink(CrossLink):
    send = _QueuedLink.send


class _Boundary(Partition):
    packet_format = WIRE_FORMAT


def _link_state(link):
    queue = link.queue
    return (queue.enqueued, queue.dropped, queue.high_watermark,
            len(queue), link._queued_bits, link.bytes_sent, link.busy,
            link.stalled)


_LINK_OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(64, 1500)),
    st.tuples(st.just("wait"), st.floats(0.0, 3e-6)),
    st.tuples(st.just("stall"), st.floats(1e-7, 4e-6)),
    st.tuples(st.just("flush"))), max_size=40)


def _drive(link, sim, ops, sent):
    """Apply ``ops`` to ``link``; returns its state after each op."""
    states = []
    for op in ops:
        if op[0] == "send":
            sent.append(link.send(Packet.udp("1.1.1.1", "2.2.2.2",
                                             length=op[1], packet_id=0)))
        elif op[0] == "wait":
            sim.run(until=sim.now + op[1])
        elif op[0] == "stall":
            link.stall(op[1])
        else:
            link.flush()
        states.append(_link_state(link))
    sim.run()
    states.append(_link_state(link))
    return states


class TestIdleSendIsTheQueuedSend:
    """``Link.send`` puts a packet on an idle link's wire without the
    queue round trip; every counter and delivery must be what the
    round trip books."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_LINK_OPS, queue_packets=st.integers(1, 4))
    def test_link(self, ops, queue_packets):
        runs = []
        for cls in (Link, _QueuedLink):
            sim, got, sent = Simulator(), [], []
            link = cls(sim, "l", rate_bps=8e9,
                       deliver=lambda p, got=got, sim=sim: got.append(
                           (sim.now, p.length)),
                       propagation_sec=1e-6, queue_packets=queue_packets)
            runs.append((_drive(link, sim, ops, sent), sent, got))
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(ops=_LINK_OPS)
    def test_cross_link(self, ops):
        runs = []
        for cls in (CrossLink, _QueuedCrossLink):
            partition, sent = _Boundary(0, assignment=(0, 1)), []
            link = cls(partition, "x", 8e9, 0, 1, queue_packets=2)
            states = _drive(link, partition.sim, ops, sent)
            runs.append((states, sent, {dst: (bytes(box[0]), box[1:])
                                        for dst, box in
                                        partition.outbox.items()}))
        assert runs[0] == runs[1]


class TestStats:
    def test_histogram_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99
        assert h.min() == 1
        assert h.max() == 100
        assert h.mean() == pytest.approx(50.5)

    def test_histogram_unsorted_input(self):
        h = Histogram()
        for v in (5, 1, 3, 2, 4):
            h.observe(v)
        assert h.percentile(100) == 5

    def test_histogram_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().mean()
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_histogram_bad_percentile(self):
        h = Histogram()
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)
