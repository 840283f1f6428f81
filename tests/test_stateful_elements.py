"""Click stateful elements: determinism, verdicts, config.

Every stateful element is a pure function of the packet stream: the
same stream gives the same pushes, drops (and drop causes) and
flow-table end state.
"""

import pytest

from repro.click.config import default_registry, parse_config
from repro.click.element import Element
from repro.click.elements.stateful import (
    LB_BACKEND_ANNOTATION,
    NAT_PORT_ANNOTATION,
    ConnTrackFirewall,
    L4LoadBalancer,
    NetworkAddressTranslator,
    TokenBucketPolicer,
)
from repro.net import Packet

SEED = 20090917


class _Sink(Element):
    n_outputs = 0

    def __init__(self, name="sink"):
        super().__init__(name)
        self.seen = []

    def process(self, packet, port):
        self.seen.append(packet.packet_id)


def _stream(count=60, flows=7, seed=SEED):
    """A deterministic multi-flow packet list with timestamps."""
    import random
    rng = random.Random(seed)
    packets = []
    now = 0.0
    for _ in range(count):
        flow = rng.randrange(flows)
        length = rng.choice((64, 576, 1500))
        packet = Packet.udp("10.0.0.%d" % flow, "10.1.0.1", length=length,
                            src_port=5000 + flow)
        now += rng.expovariate(1e5)
        packet.arrival_time = now
        packets.append(packet)
    return packets


def _element(kind):
    if kind == "nat":
        return NetworkAddressTranslator()
    if kind == "firewall":
        return ConnTrackFirewall(establish_after=2, max_packets=5)
    if kind == "policer":
        return TokenBucketPolicer(rate_bps=4e6, burst_bytes=2000.0)
    return L4LoadBalancer(n=3)


def _run(kind, packets):
    element = _element(kind)
    sinks = [element.connect_to(_Sink("sink%d" % i), output=i)
             for i in range(element.n_outputs)]
    for packet in packets:
        element.receive(packet)
    counters = (element.packets_in, element.bytes_in,
                element.packets_out, element.packets_dropped)
    # packet_ids are globally fresh per run; compare stream *positions*.
    position = {p.packet_id: i for i, p in enumerate(packets)}
    return (counters, [[position[pid] for pid in s.seen] for s in sinks],
            element.flow_table.snapshot())


@pytest.mark.parametrize("kind", ["nat", "firewall", "policer", "lb"])
def test_stream_outcome_is_reproducible(kind):
    """Same pushes, drops, and end state for the same stream -- including
    the packet *positions* each output saw."""
    first = _run(kind, _stream())
    assert first == _run(kind, _stream())
    counters, seen, _ = first
    assert counters[0] == 60           # everything arrived ...
    assert counters[2] + counters[3] == 60  # ... and was pushed or dropped
    assert sum(len(s) for s in seen) == counters[2]
    assert first[2]                    # and left state behind


class TestNat:
    def test_annotates_stable_external_port(self):
        element = NetworkAddressTranslator(pool_size=4096)
        sink = element.connect_to(_Sink())
        packets = _stream(count=20, flows=2)
        for packet in packets:
            element.receive(packet)
        assert len(sink.seen) == 20
        ports = {}
        for packet in packets:
            key = packet.five_tuple().as_ints()
            port = packet.annotations[NAT_PORT_ANNOTATION]
            assert 1024 <= port < 1024 + 4096
            ports.setdefault(key, port)
            assert ports[key] == port  # sticky per flow
        assert len(element.flow_table) == len(ports)

    def test_non_ip_bypasses_nat(self):
        element = NetworkAddressTranslator()
        sink = element.connect_to(_Sink())
        raw = Packet(length=64)
        element.receive(raw)
        assert sink.seen == [raw.packet_id]
        assert NAT_PORT_ANNOTATION not in raw.annotations
        assert len(element.flow_table) == 0


class TestFirewall:
    def test_closes_flows_after_budget(self):
        element = ConnTrackFirewall(establish_after=2, max_packets=5)
        sink = element.connect_to(_Sink())
        packets = _stream(count=20, flows=1)
        for packet in packets:
            element.receive(packet)
        # One flow, budget 5: packets 5..20 drop as conntrack_closed.
        assert len(sink.seen) == 4
        assert element.packets_dropped == 16

    def test_drop_cause_is_counted(self):
        from repro.obs.metrics import MetricsRegistry, use_registry
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            element = ConnTrackFirewall(establish_after=2, max_packets=3)
            element.connect_to(_Sink())
            for packet in _stream(count=10, flows=1):
                element.receive(packet)
        drops = registry.get("element_drops")
        assert drops.total() == element.packets_dropped > 0
        assert any("conntrack_closed" in key for key in drops.series())


class TestPolicer:
    def test_back_to_back_bursts_exceed(self):
        element = TokenBucketPolicer(rate_bps=8e3, burst_bytes=1600.0)
        sink = element.connect_to(_Sink())
        packets = _stream(count=10, flows=1)
        for packet in packets:
            packet.arrival_time = 0.0   # no refill between packets
            element.receive(packet)
        assert element.packets_dropped > 0
        assert len(sink.seen) == 10 - element.packets_dropped


class TestLoadBalancer:
    def test_flows_stick_to_backends(self):
        element = L4LoadBalancer(n=3)
        sinks = [element.connect_to(_Sink("s%d" % i), output=i)
                 for i in range(3)]
        packets = _stream(count=60, flows=12)
        for packet in packets:
            element.receive(packet)
        assert sum(len(s.seen) for s in sinks) == 60
        for packet in packets:
            backend = packet.annotations[LB_BACKEND_ANNOTATION]
            assert packet.packet_id in sinks[backend].seen
        probabilities = element.output_probabilities()
        assert len(probabilities) == 3
        assert sum(probabilities) == pytest.approx(1.0)

    def test_needs_at_least_one_backend(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            L4LoadBalancer(n=0)


class TestRegistry:
    def test_all_stateful_classes_parse(self):
        graph = parse_config(
            """
            fw :: ConnTrackFirewall(2, 100);
            nat :: NAT(4096);
            pol :: TokenBucketPolicer(8000000, 5000);
            lb :: L4LoadBalancer(2);
            fw -> nat -> pol -> lb;
            lb [0] -> Discard;
            lb [1] -> Discard;
            """, default_registry())
        names = {type(e).__name__ for e in graph.elements()}
        assert {"ConnTrackFirewall", "NetworkAddressTranslator",
                "TokenBucketPolicer", "L4LoadBalancer"} <= names

    def test_elements_declare_calibrated_costs(self):
        for kind in ("nat", "firewall", "policer", "lb"):
            element = _element(kind)
            cost = element.cost(1, 64)
            assert cost.cpu_cycles > 0
            assert cost.mem_bytes > 0
