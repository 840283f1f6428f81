"""A churn stream applied to a FIB: the mix, and consistency under it.

The stream is :class:`repro.control.ChurnSchedule` -- the one update
generator (``tests/test_control_churn.py`` pins its timing, determinism
and argument checks); here its updates are applied to a
:class:`~repro.routing.RoutingTable` the way a BGP feed would.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ChurnSchedule
from repro.net.addresses import IPv4Address
from repro.routing import BinaryTrie, Route, generate_rib


@pytest.fixture
def table():
    return generate_rib(num_entries=300, num_ports=4, seed=1)


def _installed(table):
    return [prefix for prefix, _ in table.routes()]


def _apply(table, schedule):
    """Apply every update (a withdrawal of an absent prefix raises);
    returns operation counts."""
    stats = {"announced": 0, "reannounced": 0, "withdrawn": 0}
    for update in schedule:
        if update.is_withdrawal:
            table.remove_route(update.prefix)
            stats["withdrawn"] += 1
        else:
            existed = table.has_route(update.prefix)
            table.add_route(update.prefix, Route(
                port=update.port,
                next_hop=IPv4Address((10 << 24) | (update.port << 8) | 1)))
            stats["reannounced" if existed else "announced"] += 1
    return stats


class TestChurnGenerator:
    def test_update_mix(self, table):
        schedule = ChurnSchedule.measured_rate(
            _installed(table), rate_per_sec=1e4, duration_sec=0.05,
            withdraw_fraction=0.3, reannounce_fraction=0.4, seed=2)
        stats = _apply(table, schedule)
        # ~500 updates: ~30 % withdraw, ~40 % move an installed prefix.
        assert 400 < len(schedule) < 600
        assert 0.2 * len(schedule) < stats["withdrawn"] < 0.4 * len(schedule)
        assert (0.3 * len(schedule) < stats["reannounced"]
                < 0.5 * len(schedule))

    def test_apply_keeps_table_consistent(self, table):
        size_before = len(table)
        stats = _apply(table, ChurnSchedule.bursts(
            _installed(table), burst_updates=400, interval_sec=1.0,
            bursts=1, seed=3))
        assert sum(stats.values()) == 400
        assert len(table) == (size_before + stats["announced"]
                              - stats["withdrawn"])

    def test_withdrawn_prefixes_stop_matching_exactly(self, table):
        schedule = ChurnSchedule.bursts(
            _installed(table), burst_updates=50, interval_sec=1.0, bursts=1,
            withdraw_fraction=1.0, reannounce_fraction=0.0, seed=4)
        assert all(update.is_withdrawal for update in schedule)
        _apply(table, schedule)
        for update in schedule:
            assert not table.has_route(update.prefix)


class TestChurnedFibAgreesWithOracle:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=99))
    def test_dir24_8_matches_trie_after_churn(self, seed):
        """Property: after an arbitrary churn episode (the RIB's length
        mix, /8 to /30, so short prefixes rewriting first-level slots are
        in it), the DIR-24-8 FIB agrees with a trie replaying the same
        final route set."""
        table = generate_rib(num_entries=60, num_ports=3, seed=seed)
        schedule = ChurnSchedule.measured_rate(
            _installed(table), rate_per_sec=1.2e5, duration_sec=1e-3,
            num_ports=3, seed=seed + 1)
        assert len(schedule) > 60
        _apply(table, schedule)
        oracle = BinaryTrie()
        for prefix, route in table.routes():
            oracle.insert(prefix, route)
        rng = random.Random(seed + 2)
        for _ in range(200):
            probe = rng.getrandbits(32)
            assert table.lookup(probe) == oracle.lookup(probe), hex(probe)
