"""Tests for the binary trie LPM structure."""

import pytest

from repro.errors import RoutingError
from repro.net import IPv4Address, Prefix
from repro.routing import BinaryTrie


@pytest.fixture
def trie():
    t = BinaryTrie()
    t.insert(Prefix.parse("10.0.0.0/8"), "ten")
    t.insert(Prefix.parse("10.1.0.0/16"), "ten-one")
    t.insert(Prefix.parse("10.1.2.0/24"), "ten-one-two")
    t.insert(Prefix.parse("192.168.0.0/16"), "private")
    return t


class TestLookup:
    def test_longest_match_wins(self, trie):
        assert trie.lookup("10.1.2.3") == "ten-one-two"
        assert trie.lookup("10.1.9.9") == "ten-one"
        assert trie.lookup("10.200.0.1") == "ten"

    def test_miss(self, trie):
        assert trie.lookup("11.0.0.1") is None

    def test_default_route(self, trie):
        trie.insert(Prefix(0, 0), "default")
        assert trie.lookup("11.0.0.1") == "default"
        assert trie.lookup("10.1.2.3") == "ten-one-two"

    def test_slash32(self, trie):
        trie.insert(Prefix.parse("10.1.2.3/32"), "host")
        assert trie.lookup("10.1.2.3") == "host"
        assert trie.lookup("10.1.2.4") == "ten-one-two"

    def test_lookup_with_prefix(self, trie):
        prefix, value = trie.lookup_covering("10.1.2.3", 32)
        assert prefix == Prefix.parse("10.1.2.0/24")
        assert value == "ten-one-two"

    def test_lookup_covering_respects_max_length(self, trie):
        prefix, value = trie.lookup_covering("10.1.2.3", 23)
        assert prefix == Prefix.parse("10.1.0.0/16")
        assert value == "ten-one"
        prefix, value = trie.lookup_covering("10.1.2.3", 8)
        assert value == "ten"


class TestUpdates:
    def test_insert_replaces(self, trie):
        trie.insert(Prefix.parse("10.0.0.0/8"), "TEN")
        assert trie.lookup("10.200.0.1") == "TEN"
        assert len(trie) == 4

    def test_remove_restores_covering(self, trie):
        trie.remove(Prefix.parse("10.1.2.0/24"))
        assert trie.lookup("10.1.2.3") == "ten-one"
        assert len(trie) == 3

    def test_remove_missing_raises(self, trie):
        with pytest.raises(RoutingError):
            trie.remove(Prefix.parse("77.0.0.0/8"))

    def test_remove_leaf_then_miss(self):
        t = BinaryTrie()
        t.insert(Prefix.parse("1.0.0.0/8"), 1)
        t.remove(Prefix.parse("1.0.0.0/8"))
        assert t.lookup("1.2.3.4") is None
        assert len(t) == 0

    def test_exact_get_and_contains(self, trie):
        assert trie.get(Prefix.parse("10.1.0.0/16")) == "ten-one"
        assert trie.get(Prefix.parse("10.2.0.0/16")) is None
        assert trie.contains(Prefix.parse("10.0.0.0/8"))
        assert not trie.contains(Prefix.parse("10.0.0.0/9"))

    def test_items_round_trip(self, trie):
        entries = dict(trie.items())
        assert entries[Prefix.parse("10.1.2.0/24")] == "ten-one-two"
        assert len(entries) == len(trie)

    def test_items_includes_default(self):
        t = BinaryTrie()
        t.insert(Prefix(0, 0), "d")
        assert dict(t.items()) == {Prefix(0, 0): "d"}


class TestPruning:
    def test_remove_prunes_empty_branches(self):
        t = BinaryTrie()
        t.insert(Prefix.parse("10.1.2.0/24"), "x")
        t.remove(Prefix.parse("10.1.2.0/24"))
        # Root should have no children left.
        assert t._root.children == [None, None]

    def test_remove_keeps_shared_branches(self):
        t = BinaryTrie()
        t.insert(Prefix.parse("10.0.0.0/8"), "a")
        t.insert(Prefix.parse("10.1.0.0/16"), "b")
        t.remove(Prefix.parse("10.1.0.0/16"))
        assert t.lookup("10.1.0.1") == "a"
