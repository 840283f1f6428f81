"""Tests for the Click-like dataplane: elements, graph, scheduler."""

import pytest

from repro import calibration as cal
from repro.click import (
    CheckIPHeader,
    Classifier,
    CounterElement,
    DecIPTTL,
    Discard,
    EtherEncap,
    FlowHashSwitch,
    IPsecESPEncap,
    LookupIPRoute,
    PacketQueue,
    PollDevice,
    RouterGraph,
    RoundRobinSwitch,
    Scheduler,
    Tee,
    ToDevice,
)
from repro.crypto import EspContext
from repro.errors import ConfigurationError, SchedulingError
from repro.hw import nehalem_server
from repro.net import IPv4Address, MACAddress, Packet
from repro.routing import Route, RoutingTable


def _udp(dst="10.1.0.5", length=64, **kw):
    return Packet.udp("192.168.0.1", dst, length=length, **kw)


class TestElements:
    def test_counter_counts(self):
        counter = CounterElement()
        sink = Discard()
        counter.connect_to(sink)
        for _ in range(3):
            counter.receive(_udp(length=100))
        assert counter.count == 3
        assert counter.byte_count == 300
        assert sink.packets_dropped == 3

    def test_tee_duplicates(self):
        tee = Tee(3)
        sinks = [Discard(name="d%d" % i) for i in range(3)]
        for i, sink in enumerate(sinks):
            tee.connect_to(sink, output=i)
        tee.receive(_udp())
        assert all(s.packets_in == 1 for s in sinks)

    def test_classifier_routes_by_predicate(self):
        classifier = Classifier([lambda p: p.length < 100])
        small = CounterElement(name="small")
        rest = CounterElement(name="rest")
        classifier.connect_to(small, output=0).connect_to(Discard(name="d1"))
        classifier.connect_to(rest, output=1).connect_to(Discard(name="d2"))
        classifier.receive(_udp(length=64))
        classifier.receive(_udp(length=1024))
        assert small.count == 1
        assert rest.count == 1

    def test_classifier_no_catch_all_drops(self):
        classifier = Classifier([lambda p: False], catch_all=False)
        classifier.connect_to(Discard(), output=0)
        classifier.receive(_udp())
        assert classifier.packets_dropped == 1

    def test_packet_queue_push_pull(self):
        queue = PacketQueue(capacity=2)
        queue.receive(_udp())
        queue.receive(_udp())
        queue.receive(_udp())  # overflows
        assert queue.packets_dropped == 1
        assert queue.fifo.poll() is not None
        assert len(queue) == 1

    def test_round_robin_switch(self):
        switch = RoundRobinSwitch(2)
        sinks = [CounterElement(name="c%d" % i) for i in range(2)]
        for i, sink in enumerate(sinks):
            switch.connect_to(sink, output=i)
            sink.connect_to(Discard(name="dd%d" % i))
        for _ in range(4):
            switch.receive(_udp())
        assert [s.count for s in sinks] == [2, 2]

    def test_flow_hash_switch_pins_flows(self):
        switch = FlowHashSwitch(4)
        sinks = [CounterElement(name="c%d" % i) for i in range(4)]
        for i, sink in enumerate(sinks):
            switch.connect_to(sink, output=i)
            sink.connect_to(Discard(name="dd%d" % i))
        for _ in range(10):
            switch.receive(_udp(src_port=777))
        assert max(s.count for s in sinks) == 10  # all on one output

    def test_dangling_output_raises_on_push(self):
        counter = CounterElement()
        with pytest.raises(ConfigurationError):
            counter.receive(_udp())

    def test_double_connect_rejected(self):
        counter = CounterElement()
        counter.connect_to(Discard())
        with pytest.raises(ConfigurationError):
            counter.connect_to(Discard())


class TestIPElements:
    def test_check_ip_header_drops_non_ip(self):
        check = CheckIPHeader()
        sink = CounterElement()
        check.connect_to(sink)
        sink.connect_to(Discard())
        check.receive(Packet(length=64))  # no IP header
        check.receive(_udp())
        assert check.packets_dropped == 1
        assert sink.count == 1

    def test_dec_ttl_updates_checksum_incrementally(self):
        dec = DecIPTTL()
        sink = CounterElement()
        dec.connect_to(sink, output=0)
        sink.connect_to(Discard())
        packet = _udp()
        packet.ip.pack()  # stamp a valid checksum
        before = packet.ip.checksum
        dec.receive(packet)
        assert packet.ip.ttl == 63
        assert packet.ip.checksum != before
        # The updated checksum must match a full recompute.
        expected = packet.ip.checksum
        packet.ip.pack()
        assert packet.ip.checksum == expected

    def test_dec_ttl_expires(self):
        dec = DecIPTTL()
        forwarded = CounterElement()
        dec.connect_to(forwarded, output=0)
        forwarded.connect_to(Discard())
        dec.receive(_udp(ttl=1))
        assert dec.packets_dropped == 1
        assert forwarded.count == 0

    def test_dec_ttl_expiry_goes_to_output_1_when_connected(self):
        dec = DecIPTTL()
        forwarded, expired = CounterElement(), CounterElement()
        dec.connect_to(forwarded, output=0)
        dec.connect_to(expired, output=1)
        forwarded.connect_to(Discard())
        expired.connect_to(Discard())
        dec.receive(_udp(ttl=1))
        dec.receive(_udp())
        assert (forwarded.count, expired.count) == (1, 1)
        assert dec.packets_dropped == 0

    def test_lookup_route_selects_port(self):
        table = RoutingTable()
        table.add_route("10.1.0.0/16",
                        Route(port=1, next_hop=IPv4Address("10.1.0.1")))
        lookup = LookupIPRoute(table, n_ports=2)
        sinks = [CounterElement(name="p%d" % i) for i in range(2)]
        miss = CounterElement(name="miss")
        for i, sink in enumerate(sinks):
            lookup.connect_to(sink, output=i)
            sink.connect_to(Discard(name="pd%d" % i))
        lookup.connect_to(miss, output=2)
        miss.connect_to(Discard(name="missd"))
        lookup.receive(_udp(dst="10.1.2.3"))
        lookup.receive(_udp(dst="99.0.0.1"))
        assert sinks[1].count == 1
        assert miss.count == 1
        assert lookup.misses == 1

    def test_ether_encap_rewrites_macs(self):
        table = RoutingTable()
        mac = MACAddress("02:00:00:00:00:07")
        table.add_route("10.0.0.0/8",
                        Route(port=0, next_hop=IPv4Address("10.0.0.1"),
                              next_hop_mac=mac))
        lookup = LookupIPRoute(table, n_ports=1)
        encap = EtherEncap(src_mac=MACAddress("02:00:00:00:00:01"))
        sink = CounterElement()
        lookup.connect_to(encap, output=0)
        lookup.connect_to(Discard(name="m"), output=1)
        encap.connect_to(sink)
        sink.connect_to(Discard(name="s"))
        packet = _udp(dst="10.5.5.5")
        lookup.receive(packet)
        assert packet.eth.dst == mac
        assert packet.eth.src == MACAddress("02:00:00:00:00:01")

    def test_full_ip_path(self):
        """CheckIPHeader -> DecIPTTL -> LookupIPRoute -> EtherEncap chain."""
        table = RoutingTable()
        table.add_route("0.0.0.0/0",
                        Route(port=0, next_hop=IPv4Address("10.0.0.1")))
        check = CheckIPHeader()
        dec = DecIPTTL()
        lookup = LookupIPRoute(table, n_ports=1)
        encap = EtherEncap(src_mac=MACAddress(1))
        out = CounterElement()
        check.connect_to(dec)
        dec.connect_to(lookup, output=0)
        lookup.connect_to(encap, output=0)
        lookup.connect_to(Discard(name="m"), output=1)
        encap.connect_to(out)
        out.connect_to(Discard(name="s"))
        packet = _udp(dst="8.8.8.8")
        check.receive(packet)
        assert out.count == 1
        assert packet.ip.ttl == 63


class TestIPsecElement:
    def _context(self):
        return EspContext(spi=1, key=b"k" * 16,
                          tunnel_src=IPv4Address("172.16.0.1"),
                          tunnel_dst=IPv4Address("172.16.0.2"))

    def test_modeled_mode_grows_packet(self):
        element = IPsecESPEncap(self._context(), functional=False)
        sink = CounterElement()
        element.connect_to(sink)
        sink.connect_to(Discard())
        packet = _udp(length=64)
        element.receive(packet)
        assert sink.count == 1
        assert packet.length > 64
        assert packet.length % 16 == 0

    def test_functional_mode_encrypts(self):
        element = IPsecESPEncap(self._context(), functional=True)
        got = []

        class Sink(CounterElement):
            def process(self, packet, port):
                got.append(packet)

        element.connect_to(Sink())
        element.receive(_udp(length=128))
        assert len(got) == 1
        assert got[0].ip.proto == 50  # ESP

    def test_non_ip_dropped(self):
        element = IPsecESPEncap(self._context())
        element.connect_to(Discard())
        element.receive(Packet(length=64))
        assert element.failed == 1

    def test_cycle_cost_scales_with_size(self):
        element = IPsecESPEncap(self._context())
        small = element.cost(1, 64).cpu_cycles
        large = element.cost(1, 1500).cpu_cycles
        assert large > small + 1000


class TestGraph:
    def test_validate_catches_dangling(self):
        graph = RouterGraph()
        graph.add(CounterElement(name="c"))
        with pytest.raises(ConfigurationError):
            graph.validate()

    def test_validate_allows_optional_outputs(self):
        graph = RouterGraph()
        dec = graph.add(DecIPTTL(name="ttl"))
        sink = graph.add(Discard(name="d"))
        dec.connect_to(sink, output=0)
        graph.validate()  # output 1 is optional

    def test_duplicate_names_rejected(self):
        graph = RouterGraph()
        graph.add(Discard(name="x"))
        with pytest.raises(ConfigurationError):
            graph.add(Discard(name="x"))

    def test_lookup_and_stats(self):
        graph = RouterGraph()
        counter = graph.add(CounterElement(name="c"))
        sink = graph.add(Discard(name="d"))
        counter.connect_to(sink)
        counter.receive(_udp())
        assert graph["c"] is counter
        assert graph.stats()["c"]["in"] == 1
        with pytest.raises(ConfigurationError):
            graph["nope"]


class TestScheduler:
    def _forwarding_setup(self, queues_per_port=8, same_core=True):
        server = nehalem_server(num_ports=2, queues_per_port=queues_per_port)
        scheduler = Scheduler()
        thread = scheduler.spawn(server.cores[0])
        poll = PollDevice(server.port(0), queue_id=0)
        to_dev = ToDevice(server.port(1), queue_id=0)
        poll.connect_to(to_dev)
        thread.add_poll_task(poll)
        if same_core:
            thread.own(to_dev)
        else:
            other = scheduler.spawn(server.cores[1])
            other.own(to_dev)
        return server, scheduler, poll, to_dev

    def test_forwarding_moves_packets(self):
        server, scheduler, poll, to_dev = self._forwarding_setup()
        for _ in range(10):
            server.port(0).rx_queues[0].push(_udp())
        moved = scheduler.run_rounds(1)
        assert moved == 10
        assert len(to_dev.drain()) == 10

    def test_empty_poll_tracking(self):
        server, scheduler, poll, _ = self._forwarding_setup()
        scheduler.run_rounds(5)
        assert poll.empty_polls == 5

    def test_rules_clean_config(self):
        _, scheduler, _, _ = self._forwarding_setup(same_core=True)
        assert scheduler.validate_rules() == []

    def test_rule1_violation_shared_queue(self):
        server = nehalem_server(num_ports=1, queues_per_port=1)
        scheduler = Scheduler()
        t0 = scheduler.spawn(server.cores[0])
        t1 = scheduler.spawn(server.cores[1])
        poll_a = PollDevice(server.port(0), queue_id=0, name="pa")
        poll_b = PollDevice(server.port(0), queue_id=0, name="pb")
        poll_a.connect_to(Discard(name="da"))
        poll_b.connect_to(Discard(name="db"))
        t0.add_poll_task(poll_a)
        t1.add_poll_task(poll_b)
        violations = scheduler.validate_rules()
        assert violations  # same NIC queue from two cores

    def test_rule2_violation_pipeline(self):
        server = nehalem_server(num_ports=2, queues_per_port=8)
        scheduler = Scheduler()
        t0 = scheduler.spawn(server.cores[0])
        t1 = scheduler.spawn(server.cores[1])
        poll = PollDevice(server.port(0), queue_id=0)
        handoff = PacketQueue(name="handoff")
        to_dev = ToDevice(server.port(1), queue_id=0)
        poll.connect_to(handoff)
        t0.add_poll_task(poll)
        t1.add_pull_task(handoff, to_dev)
        violations = scheduler.validate_rules()
        assert any("handed off" in v for v in violations)

    def test_pipeline_still_forwards(self):
        server = nehalem_server(num_ports=2, queues_per_port=8)
        scheduler = Scheduler()
        t0 = scheduler.spawn(server.cores[0])
        t1 = scheduler.spawn(server.cores[1])
        poll = PollDevice(server.port(0), queue_id=0)
        handoff = PacketQueue(name="handoff")
        to_dev = ToDevice(server.port(1), queue_id=0)
        poll.connect_to(handoff)
        t0.add_poll_task(poll)
        t1.add_pull_task(handoff, to_dev)
        for _ in range(5):
            server.port(0).rx_queues[0].push(_udp())
        scheduler.run_rounds(2)
        assert len(to_dev.drain()) == 5

    def test_cycle_charging(self):
        server, scheduler, _, _ = self._forwarding_setup()
        for _ in range(100):
            server.port(0).rx_queues[0].push(_udp())
        scheduler.run_rounds(1)
        assert server.cores[0].cycles_used > 0

    def test_one_thread_per_core(self):
        server = nehalem_server()
        scheduler = Scheduler()
        scheduler.spawn(server.cores[0])
        with pytest.raises(SchedulingError):
            scheduler.spawn(server.cores[0])

    def test_device_bad_queue_ids(self):
        server = nehalem_server(num_ports=1, queues_per_port=2)
        with pytest.raises(ConfigurationError):
            PollDevice(server.port(0), queue_id=5)
        with pytest.raises(ConfigurationError):
            ToDevice(server.port(0), queue_id=5)
