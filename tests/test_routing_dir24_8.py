"""Tests for DIR-24-8, including property tests against the trie oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketError, RoutingError
from repro.net import IPv4Address, Prefix
from repro.routing import BinaryTrie, Dir24_8
from repro.routing.dir24_8 import _EMPTY, _LONG_BASE


@pytest.fixture
def table():
    d = Dir24_8()
    d.insert(Prefix.parse("10.0.0.0/8"), "ten")
    d.insert(Prefix.parse("10.1.0.0/16"), "ten-one")
    d.insert(Prefix.parse("10.1.2.0/24"), "ten-one-two")
    d.insert(Prefix.parse("10.1.2.128/25"), "long")
    return d


class TestBasics:
    def test_short_prefix_lookup(self, table):
        assert table.lookup("10.200.1.1") == "ten"
        assert table.lookup("10.1.50.1") == "ten-one"
        assert table.lookup("10.1.2.5") == "ten-one-two"

    def test_long_prefix_lookup(self, table):
        assert table.lookup("10.1.2.200") == "long"
        assert table.lookup("10.1.2.127") == "ten-one-two"

    def test_miss(self, table):
        assert table.lookup("99.0.0.1") is None

    def test_len(self, table):
        assert len(table) == 4

    def test_replace_does_not_grow(self, table):
        table.insert(Prefix.parse("10.0.0.0/8"), "TEN")
        assert len(table) == 4
        assert table.lookup("10.77.0.1") == "TEN"

    def test_default_route(self):
        d = Dir24_8()
        d.insert(Prefix(0, 0), "default")
        assert d.lookup("1.2.3.4") == "default"
        assert d.lookup("255.255.255.255") == "default"

    def test_none_value_rejected(self):
        d = Dir24_8()
        with pytest.raises(RoutingError):
            d.insert(Prefix.parse("1.0.0.0/8"), None)

    def test_fresh_table_is_int16_and_48_mib(self):
        d = Dir24_8()
        assert d._tbl24.dtype == np.int16
        assert d.memory_bytes() == 3 << 24  # int16 TBL24 + int8 depths

    def test_memory_accounting_grows_with_long_tables(self):
        d = Dir24_8()
        base = d.memory_bytes()
        d.insert(Prefix.parse("10.1.2.128/25"), "x")
        assert d.memory_bytes() > base


class TestLookupInput:
    def test_int_str_and_address_agree(self, table):
        addr = IPv4Address("10.1.2.200")
        assert table.lookup(addr.value) == "long"
        assert table.lookup(addr) == "long"
        assert table.lookup(str(addr)) == "long"
        assert table.lookup(0) is None
        assert table.lookup((1 << 32) - 1) is None

    @pytest.mark.parametrize("bad", [-1, 1 << 32, 1.5, "10.1.2"],
                             ids=["negative", "2**32", "float", "malformed"])
    def test_bad_address_raises_packet_error(self, table, bad):
        with pytest.raises(PacketError):
            table.lookup(bad)


class TestRemoval:
    def test_remove_long_restores_short(self, table):
        table.remove(Prefix.parse("10.1.2.128/25"))
        assert table.lookup("10.1.2.200") == "ten-one-two"

    def test_remove_short_under_long(self, table):
        table.remove(Prefix.parse("10.1.2.0/24"))
        assert table.lookup("10.1.2.5") == "ten-one"
        assert table.lookup("10.1.2.200") == "long"  # untouched

    def test_remove_missing_raises(self, table):
        with pytest.raises(RoutingError):
            table.remove(Prefix.parse("77.0.0.0/8"))

    def test_remove_all_leaves_empty(self, table):
        for text in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                     "10.1.2.128/25"):
            table.remove(Prefix.parse(text))
        assert table.lookup("10.1.2.200") is None
        assert len(table) == 0

    def test_unhashable_values_do_not_leak_slots(self):
        """Insert/remove churn with unhashable (list) next hops must not
        grow the value store: re-inserting the same object dedups by
        identity, and removal reclaims the slot."""
        d = Dir24_8()
        prefix = Prefix.parse("10.0.0.0/8")
        hop = ["nh", 1]
        for _ in range(100):
            d.insert(prefix, hop)  # same object: one slot, not 100
        assert sum(v is not None for v in d._values) == 1
        for _ in range(100):
            d.insert(prefix, ["nh", 2])  # distinct objects: slots recycle
        assert len(d._values) <= 2
        d.remove(prefix)
        assert all(v is None for v in d._values)
        assert len(d) == 0

    def test_remove_churn_bounds_value_store(self):
        """A long insert/remove churn of distinct hashable values keeps
        ``_values`` bounded (removed routes give their slots back)."""
        d = Dir24_8()
        prefix = Prefix.parse("192.168.0.0/16")
        for i in range(500):
            d.insert(prefix, "hop-%d" % i)
            d.remove(prefix)
        assert len(d._values) <= 2
        assert d.lookup("192.168.1.1") is None

    def test_replacement_releases_displaced_value(self, table):
        before = len(table._values)
        for i in range(50):
            table.insert(Prefix.parse("10.1.2.0/24"), "churn-%d" % i)
        assert len(table._values) <= before + 1
        assert table.lookup("10.1.2.5") == "churn-49"

    def test_shared_value_survives_partial_removal(self):
        """Two prefixes routing to one (deduped) value: removing one must
        not reclaim the slot out from under the other."""
        d = Dir24_8()
        d.insert(Prefix.parse("10.0.0.0/8"), "shared")
        d.insert(Prefix.parse("20.0.0.0/8"), "shared")
        d.remove(Prefix.parse("10.0.0.0/8"))
        assert d.lookup("20.1.1.1") == "shared"
        d.remove(Prefix.parse("20.0.0.0/8"))
        assert d.lookup("20.1.1.1") is None

    def test_remove_16_with_sibling_24_present(self):
        # The covering lookup must not pick the longer inner prefix.
        d = Dir24_8()
        d.insert(Prefix.parse("10.0.0.0/8"), "eight")
        d.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
        d.insert(Prefix.parse("10.1.0.0/24"), "twentyfour")
        d.remove(Prefix.parse("10.1.0.0/16"))
        assert d.lookup("10.1.0.1") == "twentyfour"
        assert d.lookup("10.1.99.1") == "eight"


# -- property tests against the trie oracle --------------------------------

_prefixes = st.tuples(st.integers(min_value=0, max_value=(1 << 32) - 1),
                      st.integers(min_value=0, max_value=32))
_ops = st.lists(st.tuples(st.sampled_from(["insert", "remove"]), _prefixes,
                          st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=40)
_probes = st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                   min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, probes=_probes)
def test_dir24_8_matches_trie_oracle(ops, probes):
    """After any insert/remove sequence, DIR-24-8 agrees with the trie."""
    fast = Dir24_8()
    oracle = BinaryTrie()
    for op, (addr, length), value in ops:
        prefix = Prefix.from_address(addr, length)
        if op == "insert":
            fast.insert(prefix, value)
            oracle.insert(prefix, value)
        else:
            if oracle.contains(prefix):
                fast.remove(prefix)
                oracle.remove(prefix)
    for probe in probes:
        assert fast.lookup(probe) == oracle.lookup(probe), hex(probe)
    # Also probe the boundaries of every touched prefix.
    for _, (addr, length), _ in ops:
        prefix = Prefix.from_address(addr, length)
        lo = prefix.network.value
        hi = lo + (1 << (32 - length)) - 1 if length else (1 << 32) - 1
        for probe in (lo, hi):
            assert fast.lookup(probe) == oracle.lookup(probe), hex(probe)


class TestUpdatePathRegressions:
    """Update-path regressions found while building live FIB churn."""

    def test_default_route_insert_remove_reinsert_under_traffic(self):
        """Removing /0 asks the trie what covers it (length <= -1):
        nothing does, so its entries must reset to empty -- including
        level-2 backgrounds -- and a reinsert must take again."""
        d = Dir24_8()
        d.insert(Prefix.parse("0.0.0.0/0"), "default")
        d.insert(Prefix.parse("10.1.0.0/16"), "specific")
        d.insert(Prefix.parse("10.1.2.128/25"), "long")
        assert d.lookup("99.0.0.1") == "default"
        assert d.lookup("10.1.2.1") == "specific"

        d.remove(Prefix.parse("0.0.0.0/0"))
        # Uncovered addresses miss; installed prefixes are undisturbed.
        assert d.lookup("99.0.0.1") is None
        assert d.lookup("10.1.2.1") == "specific"
        assert d.lookup("10.1.2.200") == "long"
        # TBL24 slots the default owned are genuinely empty again, not
        # stale: depth 0, value empty.
        assert int(d._tbl24[(99 << 16)]) == _EMPTY
        assert int(d._depth24[(99 << 16)]) == 0
        assert len(d) == 2

        # Reinsert mid-churn: covers everything the specifics do not.
        d.insert(Prefix.parse("0.0.0.0/0"), "default2")
        assert d.lookup("99.0.0.1") == "default2"
        assert d.lookup("10.1.2.200") == "long"
        assert len(d) == 3

    def test_default_route_resets_level2_background(self):
        """/0 removal must clear the *background* entries of a diverted
        slot while leaving the >24-bit owner alone."""
        d = Dir24_8()
        d.insert(Prefix.parse("0.0.0.0/0"), "default")
        d.insert(Prefix.parse("20.0.0.128/26"), "long")
        slot = 20 << 16
        assert int(d._tbl24[slot]) <= _LONG_BASE  # diverted
        d.remove(Prefix.parse("0.0.0.0/0"))
        assert d.lookup("20.0.0.1") is None     # background cleared
        assert d.lookup("20.0.0.129") == "long"  # owner intact
        assert d.lookup("21.0.0.1") is None

    def test_interleaved_short_long_churn_matches_trie(self):
        """Interleaved /20 + /28 insert/remove under one TBL24 range,
        checked against the shadow trie at every step."""
        d = Dir24_8()
        oracle = BinaryTrie()
        p20 = Prefix.parse("30.0.0.0/20")
        p28 = Prefix.parse("30.0.0.16/28")
        probes = [(30 << 24) | x for x in (0, 15, 16, 31, 200, 0xFFF)] \
            + [(31 << 24)]

        def check():
            for probe in probes:
                assert d.lookup(probe) == oracle.lookup(probe), hex(probe)

        script = [("i", p20, "short"), ("i", p28, "long"),
                  ("r", p20, None), ("i", p20, "short2"),
                  ("r", p28, None), ("i", p28, "long2"),
                  ("r", p20, None), ("r", p28, None)]
        for op, prefix, value in script:
            if op == "i":
                d.insert(prefix, value)
                oracle.insert(prefix, value)
            else:
                d.remove(prefix)
                oracle.remove(prefix)
            check()
        assert len(d) == 0

    def test_long_prefix_churn_reclaims_level2_tables(self):
        """Removing the last >24-bit prefix under a slot must un-divert
        it and recycle the 256-entry table; before the fix the pool only
        ever grew, leaking one table per insert/remove cycle."""
        d = Dir24_8()
        d.insert(Prefix.parse("40.0.0.0/16"), "cover")
        p28 = Prefix.parse("40.0.1.16/28")
        d.insert(p28, "long")
        d.remove(p28)
        baseline = d.memory_bytes()
        assert d._free_long, "level-2 table was not recycled"
        assert int(d._tbl24[(40 << 16) | 1]) > _LONG_BASE  # un-diverted
        assert d.lookup("40.0.1.17") == "cover"
        for _ in range(50):
            d.insert(p28, "long")
            d.remove(p28)
        # Bounded: churn reuses the one recycled table, no leak.
        assert d.memory_bytes() == baseline
        assert len(d._long_values) == 1

    def test_differential_churn_fuzz(self):
        """Seeded insert/remove/replace storms vs a fresh rebuild and
        the trie oracle: lookups, size, memory and refcounts all agree."""
        import random as _random

        lengths = (8, 12, 16, 20, 22, 24, 25, 26, 28, 30, 32)
        for seed in range(5):
            rng = _random.Random(0xC0FFEE + seed)
            d = Dir24_8()
            oracle = BinaryTrie()
            live = {}
            # Confined address space so prefixes collide and nest.
            for step in range(300):
                length = rng.choice(lengths)
                addr = (50 << 24) | (rng.getrandbits(10) << 14) \
                    | rng.getrandbits(14)
                prefix = Prefix.from_address(addr, length)
                if prefix in live and rng.random() < 0.5:
                    d.remove(prefix)
                    oracle.remove(prefix)
                    del live[prefix]
                else:
                    value = "v%d" % rng.randrange(8)  # forces sharing
                    d.insert(prefix, value)
                    oracle.insert(prefix, value)
                    live[prefix] = value
            assert len(d) == len(live)
            # Fresh rebuild from the surviving routes.
            fresh = Dir24_8()
            for prefix, value in live.items():
                fresh.insert(prefix, value)
            probes = [(50 << 24) | rng.getrandbits(24)
                      for _ in range(400)]
            probes += [p.network.value for p in live]
            for probe in probes:
                expect = oracle.lookup(probe)
                assert d.lookup(probe) == expect, hex(probe)
                assert fresh.lookup(probe) == expect, hex(probe)
            # Churned table's memory stays within the fresh build plus
            # the recycled-table pool (no unbounded growth).
            slack = sum(d._long_values[tid].nbytes
                        + d._long_depths[tid].nbytes
                        for tid in d._free_long)
            assert d.memory_bytes() <= fresh.memory_bytes() + slack
            # Value-slot refcounts: live slots sum to the route count,
            # freed slots are exactly the None entries.
            refs = sum(r for r in d._value_refs if r > 0)
            assert refs == len(live)
            freed = {i for i, v in enumerate(d._values) if v is None}
            assert freed == set(d._free_values)


class TestWideningBoundary:
    """The 32,768th value slot or level-2 table is the first whose entry
    int16 cannot hold: TBL24 and every level-2 table widen to int32
    before it is written, once, and lookups do not change."""

    @staticmethod
    def _check(d, oracle, probes):
        for probe in probes:
            assert d.lookup(probe) == oracle.lookup(probe), hex(probe)

    @pytest.mark.parametrize("length, distinct", [(24, True), (25, False)],
                             ids=["value-slots", "level2-tables"])
    def test_the_32768th_widens_to_int32(self, length, distinct):
        # /24s with distinct values fill value slots; /25s in distinct
        # /24s sharing one value each divert a slot to a level-2 table.
        # A /25 under the first /24 gives the /24 run a level-2 table.
        routes = [(Prefix.from_address(i << 8, length), i if distinct else 0)
                  for i in range(1 << 15)]
        routes.insert(1, (Prefix.parse("0.0.0.128/25"), 0))
        d, oracle = Dir24_8(), BinaryTrie()
        for prefix, value in routes[:-1]:
            d.insert(prefix, value)
            oracle.insert(prefix, value)
        last, last_value = routes[-1]
        probes = [p.network.value + off for p, _ in routes[::61] + [routes[-1]]
                  for off in (0, 130, 255)]
        assert d._tbl24.dtype == np.int16
        self._check(d, oracle, probes)

        d.insert(last, last_value)
        oracle.insert(last, last_value)
        assert d._tbl24.dtype == np.int32
        assert {t.dtype for t in d._long_values} == {np.dtype(np.int32)}
        self._check(d, oracle, probes)

        # Insert/remove after widening: still a fresh rebuild's answers.
        for table in (d, oracle):
            table.remove(routes[0][0])
            table.insert(Prefix.parse("0.0.0.0/23"), "new")
            table.insert(Prefix.parse("0.0.1.64/26"), "newer")
            table.remove(last)
        assert d._tbl24.dtype == np.int32   # never narrows back
        fresh = Dir24_8()
        for prefix, value in oracle.items():
            fresh.insert(prefix, value)
        probes += [1 << 8, (1 << 8) + 70]
        self._check(d, oracle, probes)
        self._check(fresh, oracle, probes)
