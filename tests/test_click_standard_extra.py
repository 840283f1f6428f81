"""Tests for the added standard elements: Paint, Meter, RandomSample,
SetTTL and SourceFilter."""

import pytest

from repro.click import CounterElement, Discard
from repro.click.elements.standard import Meter, Paint, RandomSample
from repro.errors import ConfigurationError
from repro.net import Packet


def _counted(element, n_outputs=None):
    sinks = []
    count = n_outputs or element.n_outputs
    for i in range(count):
        sink = CounterElement(name="%s-s%d" % (element.name, i))
        sink.connect_to(Discard(name="%s-dd%d" % (element.name, i)))
        element.connect_to(sink, output=i)
        sinks.append(sink)
    return sinks


class TestPaint:
    def test_paint_and_check(self):
        paint = Paint(color=7)
        (sink,) = _counted(paint)
        packet = Packet.udp("1.1.1.1", "2.2.2.2")
        assert "paint" not in packet.annotations
        paint.receive(packet)
        assert sink.count == 1
        assert packet.annotations["paint"] == 7


class TestMeter:
    def test_conforming_and_excess(self):
        meter = Meter(rate_pps=1000, burst=2)
        ok, excess = _counted(meter)
        for _ in range(5):
            meter.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert ok.count == 2     # burst tokens
        assert excess.count == 3

    def test_refill(self):
        meter = Meter(rate_pps=1000, burst=1)
        ok, excess = _counted(meter)
        meter.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        meter.now = 0.01
        meter.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert ok.count == 2
        assert excess.count == 0

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            Meter(rate_pps=0)


class TestRandomSample:
    def test_sampling_fraction(self):
        sample = RandomSample(p=0.25, seed=3)
        (sink,) = _counted(sample)
        for _ in range(2000):
            sample.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert 400 < sink.count < 600

    def test_p_zero_and_one(self):
        none = RandomSample(p=0.0)
        _counted(none)
        none.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert none.sampled == 0
        everything = RandomSample(p=1.0, name="all")
        _counted(everything)
        everything.receive(Packet.udp("1.1.1.1", "2.2.2.2"))
        assert everything.sampled == 1

    def test_bad_p(self):
        with pytest.raises(ConfigurationError):
            RandomSample(p=1.5)


class TestSetTTL:
    def test_rewrites_ttl_and_checksum(self):
        from repro.click.elements.standard import SetTTL
        from repro.net.checksum import verify_checksum
        element = SetTTL(ttl=5)
        (sink,) = _counted(element)
        packet = Packet.udp("1.1.1.1", "2.2.2.2", ttl=64)
        element.receive(packet)
        assert packet.ip.ttl == 5
        assert verify_checksum(packet.ip.pack(recompute_checksum=False))
        assert sink.count == 1

    def test_non_ip_dropped(self):
        from repro.click.elements.standard import SetTTL
        element = SetTTL(ttl=5)
        _counted(element)
        element.receive(Packet(length=64))
        assert element.packets_dropped == 1

    def test_bad_ttl(self):
        from repro.click.elements.standard import SetTTL
        with pytest.raises(ConfigurationError):
            SetTTL(ttl=0)


class TestSourceFilter:
    def test_filters_matching_sources(self):
        from repro.click.elements.standard import SourceFilter
        element = SourceFilter("10.0.0.0/8")
        passed, filtered = _counted(element)
        element.receive(Packet.udp("10.1.2.3", "8.8.8.8"))
        element.receive(Packet.udp("192.0.2.1", "8.8.8.8"))
        assert filtered.count == 1
        assert passed.count == 1
        assert element.filtered == 1

    def test_drop_when_filter_port_dangling(self):
        from repro.click.elements.standard import SourceFilter
        element = SourceFilter("10.0.0.0/8")
        sink = CounterElement()
        sink.connect_to(Discard())
        element.connect_to(sink, output=0)
        element.receive(Packet.udp("10.1.2.3", "8.8.8.8"))
        assert element.packets_dropped == 1

    def test_config_language_integration(self):
        from repro.click.config import parse_config
        graph = parse_config("""
            f :: SourceFilter("10.0.0.0/8");
            good :: Counter;
            f [0] -> good -> Discard;
            f [1] -> Discard;
        """)
        graph["f"].receive(Packet.udp("172.16.0.1", "8.8.8.8"))
        graph["f"].receive(Packet.udp("10.9.9.9", "8.8.8.8"))
        assert graph["good"].count == 1

    def test_setttl_config_language(self):
        from repro.click.config import parse_config
        graph = parse_config("t :: SetTTL(9); t -> Counter -> Discard;")
        packet = Packet.udp("1.1.1.1", "2.2.2.2", ttl=64)
        graph["t"].receive(packet)
        assert packet.ip.ttl == 9
