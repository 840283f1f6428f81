"""Tests for RED and drop-from-front queue disciplines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.click.elements.queue_policies import DropFrontQueue, RedQueue
from repro.errors import ConfigurationError
from repro.net import Packet


def _packet(seq=0):
    packet = Packet.udp("1.0.0.1", "2.0.0.2")
    packet.flow_seq = seq
    return packet


class TestRedQueue:
    def test_below_min_thresh_no_drops(self):
        queue = RedQueue(capacity=100, min_thresh=25, max_thresh=50)
        for _ in range(20):
            queue.receive(_packet())
        assert queue.early_drops == 0
        assert len(queue) == 20

    def test_probability_curve_shape(self):
        queue = RedQueue(capacity=100, min_thresh=20, max_thresh=40,
                         max_p=0.1)
        queue.avg = 10
        assert queue.drop_probability() == 0.0
        queue.avg = 30
        assert queue.drop_probability() == pytest.approx(0.05)
        queue.avg = 40
        assert queue.drop_probability() == pytest.approx(0.1)
        queue.avg = 60  # gentle region
        assert 0.1 < queue.drop_probability() < 1.0
        queue.avg = 85
        assert queue.drop_probability() == 1.0

    def test_sustained_overload_drops_early(self):
        queue = RedQueue(capacity=200, min_thresh=20, max_thresh=60,
                         max_p=0.5, weight=0.2, seed=1)
        for _ in range(500):
            queue.receive(_packet())
            if len(queue) > 0 and queue.packets_in % 3 == 0:
                queue.fifo.poll()  # slow consumer
        assert queue.early_drops > 0
        # RED keeps the average occupancy near/below max_thresh.
        assert queue.avg < 2 * 60

    def test_ewma_tracks_occupancy(self):
        queue = RedQueue(capacity=100, weight=0.5)
        for _ in range(10):
            queue.receive(_packet())
        assert 0 < queue.avg <= 10

    def test_bad_configs(self):
        with pytest.raises(ConfigurationError):
            RedQueue(capacity=10, min_thresh=8, max_thresh=4)
        with pytest.raises(ConfigurationError):
            RedQueue(max_p=0)
        with pytest.raises(ConfigurationError):
            RedQueue(weight=2)

    @settings(max_examples=30, deadline=None)
    @given(avg=st.floats(min_value=0, max_value=500, allow_nan=False))
    def test_probability_always_valid_and_monotone(self, avg):
        queue = RedQueue(capacity=500, min_thresh=50, max_thresh=100)
        queue.avg = avg
        p1 = queue.drop_probability()
        assert 0.0 <= p1 <= 1.0
        queue.avg = avg + 10
        assert queue.drop_probability() >= p1


class TestDropFrontQueue:
    def test_overflow_evicts_oldest(self):
        queue = DropFrontQueue(capacity=3)
        for seq in range(1, 6):
            queue.receive(_packet(seq))
        held = []
        while True:
            packet = queue.fifo.poll()
            if packet is None:
                break
            held.append(packet.flow_seq)
        # Oldest two evicted; newest three retained.
        assert held == [3, 4, 5]
        assert queue.front_drops == 2

    def test_no_drops_under_capacity(self):
        queue = DropFrontQueue(capacity=10)
        for seq in range(5):
            queue.receive(_packet(seq))
        assert queue.front_drops == 0
        assert len(queue) == 5
