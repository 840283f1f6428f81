"""Tests for the RoutingTable facade and synthetic RIB generation."""

import pytest

from repro.errors import RoutingError
from repro.net import IPv4Address, Prefix
from repro.routing import Route, RoutingTable, generate_rib
from repro.routing.rib_gen import PREFIX_LENGTH_MIX, random_destinations


class TestRoutingTable:
    def test_add_lookup(self):
        table = RoutingTable()
        route = Route(port=2, next_hop=IPv4Address("10.0.2.1"))
        table.add_route("192.168.0.0/16", route)
        assert table.lookup("192.168.5.5") == route
        assert table.lookup("8.8.8.8") is None

    def test_lookup_or_raise(self):
        table = RoutingTable()
        with pytest.raises(RoutingError):
            table.lookup_or_raise("1.1.1.1")

    def test_remove(self):
        table = RoutingTable()
        table.add_route("1.0.0.0/8", Route(port=0, next_hop=IPv4Address(1)))
        table.remove_route("1.0.0.0/8")
        assert table.lookup("1.2.3.4") is None
        with pytest.raises(RoutingError):
            table.remove_route("1.0.0.0/8")

    def test_default_route(self):
        table = RoutingTable()
        fallthrough = Route(port=9, next_hop=IPv4Address("10.9.9.1"))
        table.add_route("0.0.0.0/0", fallthrough)
        assert table.lookup("203.0.113.7") == fallthrough

    def test_trie_engine_agrees(self):
        fast = RoutingTable(engine="dir24_8")
        slow = RoutingTable(engine="trie")
        for prefix, port in [("10.0.0.0/8", 0), ("10.1.0.0/16", 1),
                             ("10.1.2.0/24", 2), ("10.1.2.128/25", 3)]:
            route = Route(port=port, next_hop=IPv4Address(port + 1))
            fast.add_route(prefix, route)
            slow.add_route(prefix, route)
        for probe in ("10.1.2.5", "10.1.2.200", "10.9.9.9", "11.0.0.1"):
            assert fast.lookup(probe) == slow.lookup(probe)

    def test_unknown_engine(self):
        with pytest.raises(RoutingError):
            RoutingTable(engine="cuckoo")

    def test_negative_port_rejected(self):
        with pytest.raises(RoutingError):
            Route(port=-1, next_hop=IPv4Address(0))

    def test_routes_iteration(self):
        table = RoutingTable()
        table.add_route("10.0.0.0/8", Route(port=0, next_hop=IPv4Address(1)))
        assert len(list(table.routes())) == 1


class TestRibGen:
    def test_mix_sums_to_one(self):
        total = sum(share for _, share in PREFIX_LENGTH_MIX)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_generate_small_rib(self):
        table = generate_rib(num_entries=500, num_ports=4, seed=7)
        assert len(table) == 500
        ports = {route.port for _, route in table.routes()}
        assert ports == {0, 1, 2, 3}

    def test_deterministic_for_seed(self):
        a = sorted(str(p) for p, _ in generate_rib(200, seed=3).routes())
        b = sorted(str(p) for p, _ in generate_rib(200, seed=3).routes())
        assert a == b

    def test_random_destinations_hit(self):
        table = generate_rib(num_entries=300, seed=5)
        dests = random_destinations(200, table, seed=9, hit_fraction=1.0)
        hits = sum(1 for d in dests if table.lookup(d) is not None)
        assert hits == 200

    def test_random_destinations_miss_fraction(self):
        table = generate_rib(num_entries=50, seed=5)
        dests = random_destinations(400, table, seed=9, hit_fraction=0.0)
        hits = sum(1 for d in dests if table.lookup(d) is not None)
        # Random addresses rarely hit a 50-entry table.
        assert hits < 40

    def test_prefix_lengths_follow_mix(self):
        table = generate_rib(num_entries=2000, seed=11)
        lengths = [p.length for p, _ in table.routes()]
        share_24 = lengths.count(24) / len(lengths)
        assert 0.40 < share_24 < 0.56

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_rib(num_entries=0)
        with pytest.raises(ValueError):
            generate_rib(num_entries=10, num_ports=0)
        table = generate_rib(num_entries=10)
        with pytest.raises(ValueError):
            random_destinations(5, table, hit_fraction=1.5)
