"""Tests for the cluster control plane (membership + FIB distribution)."""

import pytest

from repro.core.control import ClusterManager
from repro.errors import ConfigurationError, TopologyError
from repro.net import IPv4Address


@pytest.fixture
def cluster():
    manager = ClusterManager()
    for port in range(4):
        manager.add_node(external_port=port)
    manager.announce("10.0.0.0/16", 0)
    manager.announce("10.1.0.0/16", 1)
    manager.announce("10.2.0.0/16", 2)
    manager.announce("10.3.0.0/16", 3)
    manager.push_fibs()
    return manager


class TestMembership:
    def test_add_nodes(self, cluster):
        assert cluster.num_nodes == 4
        assert cluster.nodes() == [0, 1, 2, 3]

    def test_duplicate_port_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.add_node(external_port=2)

    def test_mesh_links_complete(self, cluster):
        links = cluster.mesh_links()
        assert len(links) == 12
        assert (0, 0) not in links

    def test_internal_link_rate_falls_with_growth(self, cluster):
        before = cluster.internal_link_rate_bps()
        cluster.add_node(external_port=9)
        assert cluster.internal_link_rate_bps() < before

    def test_capacity_grows_linearly(self, cluster):
        assert cluster.capacity_bps() == 40e9
        cluster.add_node(external_port=9)
        assert cluster.capacity_bps() == 50e9

    def test_remove_node(self, cluster):
        cluster.remove_node(3)
        assert cluster.num_nodes == 3
        with pytest.raises(ConfigurationError):
            cluster.remove_node(3)

    def test_tiny_mesh_link_rate_rejected(self):
        manager = ClusterManager()
        manager.add_node(0)
        with pytest.raises(TopologyError):
            manager.internal_link_rate_bps()


class TestFibDistribution:
    def test_all_nodes_get_identical_answers(self, cluster):
        probes = [IPv4Address("10.%d.9.9" % i) for i in range(4)]
        assert cluster.check_consistency(probes)
        for node in cluster.nodes():
            fib = cluster.fib_of(node)
            assert fib.lookup("10.2.5.5").port == 2

    def test_fib_routes_point_at_node_ids(self, cluster):
        fib = cluster.fib_of(0)
        # Port 3's owner is node 3 in this setup.
        assert fib.lookup("10.3.1.1").port == 3

    def test_announce_bumps_version_and_marks_stale(self, cluster):
        assert cluster.stale_nodes() == []
        cluster.announce("172.16.0.0/16", 2)
        assert cluster.stale_nodes() == [0, 1, 2, 3]
        assert not cluster.check_consistency([IPv4Address("172.16.1.1")])
        cluster.push_fibs()
        assert cluster.stale_nodes() == []
        assert cluster.check_consistency([IPv4Address("172.16.1.1")])

    def test_withdraw(self, cluster):
        cluster.withdraw("10.3.0.0/16")
        cluster.push_fibs()
        assert cluster.fib_of(0).lookup("10.3.1.1") is None
        with pytest.raises(ConfigurationError):
            cluster.withdraw("10.3.0.0/16")

    def test_orphaned_routes_excluded(self, cluster):
        cluster.remove_node(3)
        cluster.push_fibs()
        # Port 3's prefix has no owner: not in the FIB.
        assert cluster.fib_of(0).lookup("10.3.1.1") is None

    def test_announce_unowned_port_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.announce("192.168.0.0/16", 77)

    def test_fib_before_push_rejected(self):
        manager = ClusterManager()
        manager.add_node(0)
        with pytest.raises(ConfigurationError):
            manager.fib_of(0)


class TestHealthReaction:
    def test_mark_failed_pulls_routes_and_marks_stale(self, cluster):
        cluster.mark_failed(3)
        assert cluster.failed_nodes() == [3]
        assert cluster.live_nodes() == [0, 1, 2]
        # The bump makes every live FIB stale; node 3 is dead, not stale.
        assert cluster.stale_nodes() == [0, 1, 2]
        cluster.push_fibs()
        assert cluster.stale_nodes() == []
        # The dead node's prefix is withheld from the compiled FIB.
        assert cluster.fib_of(0).lookup("10.3.1.1") is None
        assert cluster.fib_of(0).lookup("10.2.1.1").port == 2

    def test_mark_failed_idempotent(self, cluster):
        cluster.mark_failed(3)
        version = cluster.rib_version
        cluster.mark_failed(3)
        assert cluster.rib_version == version

    def test_unknown_node_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.mark_failed(9)
        with pytest.raises(ConfigurationError):
            cluster.mark_recovered(9)

    def test_recovery_restores_routes_after_push(self, cluster):
        cluster.handle_node_failure(3)
        assert cluster.fib_of(0).lookup("10.3.1.1") is None
        update = cluster.handle_node_recovery(3)
        assert update.live_nodes == 4
        assert cluster.fib_of(0).lookup("10.3.1.1").port == 3
        # The rebooted node got a fresh table too.
        assert cluster.fib_of(3).lookup("10.0.1.1").port == 0
        assert cluster.stale_nodes() == []

    def test_failure_shrinks_capacity_and_raises_link_requirement(
            self, cluster):
        before = cluster.reprovision()
        after = cluster.handle_node_failure(3, push=False)
        assert after.capacity_bps == before.capacity_bps - 10e9
        assert after.internal_link_rate_bps > before.internal_link_rate_bps
        assert after.failed_nodes == 1

    def test_consistency_ignores_dead_nodes(self, cluster):
        cluster.handle_node_failure(3)
        probes = [IPv4Address("10.%d.9.9" % i) for i in range(3)]
        assert cluster.check_consistency(probes)

    def test_capacity_counts_live_only(self, cluster):
        assert cluster.capacity_bps() == 40e9
        cluster.mark_failed(1)
        assert cluster.capacity_bps() == 30e9
        cluster.mark_recovered(1)
        assert cluster.capacity_bps() == 40e9

    def test_reprovision_single_survivor_has_no_mesh(self):
        manager = ClusterManager()
        manager.add_node(0)
        manager.add_node(1)
        manager.mark_failed(1)
        update = manager.reprovision()
        assert update.live_nodes == 1
        assert update.internal_link_rate_bps != update.internal_link_rate_bps  # NaN


class TestRemoveStalePushInterplay:
    def test_remove_node_then_rehome_prefix(self, cluster):
        cluster.remove_node(2)
        # Port 2's prefix is orphaned; re-home it to node 0's port and
        # push -- every survivor then routes it to node 0.
        cluster.announce("10.2.0.0/16", 0)
        cluster.push_fibs()
        assert cluster.stale_nodes() == []
        for node in cluster.nodes():
            route = cluster.fib_of(node).lookup("10.2.5.5")
            assert route is not None and route.port == 0

    def test_push_returns_current_version(self, cluster):
        version = cluster.push_fibs()
        assert version == cluster.rib_version
        cluster.announce("172.16.0.0/16", 1)
        assert cluster.push_fibs() == version + 1

    def test_dead_node_rejoins_stale_then_syncs(self, cluster):
        cluster.mark_failed(2)
        cluster.push_fibs()
        cluster.announce("172.16.0.0/16", 1)   # changes while node 2 is out
        cluster.push_fibs()
        cluster.mark_recovered(2)
        # Rebooted with no FIB: stale until the next push.
        assert 2 in cluster.stale_nodes()
        with pytest.raises(ConfigurationError):
            cluster.fib_of(2)
        cluster.push_fibs()
        assert cluster.stale_nodes() == []
        assert cluster.fib_of(2).lookup("172.16.1.1").port == 1


class TestGrowWhileRouting:
    def test_add_server_add_port_story(self, cluster):
        """The Sec. 2 extensibility claim as a scenario: add a server,
        announce its port's prefixes, push, and the whole cluster routes
        to it."""
        new_node = cluster.add_node(external_port=4)
        cluster.announce("10.4.0.0/16", 4)
        cluster.push_fibs()
        probes = [IPv4Address("10.4.2.2")]
        assert cluster.check_consistency(probes)
        for node in cluster.nodes():
            assert cluster.fib_of(node).lookup("10.4.2.2").port == new_node
        assert cluster.capacity_bps() == 50e9


class TestRemoveNodeStaleness:
    def test_remove_node_marks_peers_stale(self, cluster):
        """Removing a node changes the compiled FIB (its routes drop
        out), so previously-pushed peers must read as stale; before the
        fix the version never moved and check_consistency stayed True
        while every peer kept routing to the ghost."""
        assert cluster.stale_nodes() == []
        version = cluster.rib_version
        cluster.remove_node(3)
        assert cluster.rib_version > version
        assert cluster.stale_nodes() == [0, 1, 2]
        # Peers still hold the ghost route until the next push.
        assert cluster.fib_of(0).lookup("10.3.1.1").port == 3
        assert not cluster.check_consistency([IPv4Address("10.3.1.1")])
        cluster.push_fibs()
        assert cluster.stale_nodes() == []
        assert cluster.fib_of(0).lookup("10.3.1.1") is None
        assert cluster.check_consistency([IPv4Address("10.3.1.1")])


class TestDeltaJournal:
    def test_sync_is_incremental_after_first_push(self, cluster):
        cluster.announce("172.16.0.0/16", 1)
        result = cluster.sync_node(0)
        assert not result.rebuilt
        assert result.ops_applied == 1
        assert cluster.fib_of(0).lookup("172.16.1.1").port == 1

    def test_first_sync_is_a_rebuild(self, cluster):
        node = cluster.add_node(external_port=4)
        result = cluster.sync_node(node)
        assert result.rebuilt
        assert result.ops_applied == len(cluster.fib_of(node))

    def test_withdraw_streams_a_delete(self, cluster):
        cluster.withdraw("10.2.0.0/16")
        result = cluster.sync_node(1)
        assert not result.rebuilt and result.ops_applied == 1
        assert cluster.fib_of(1).lookup("10.2.1.1") is None

    def test_dataplane_sees_updates_live(self, cluster):
        """The synced table is mutated in place: a holder of the FIB
        reference observes the new routes without re-fetching."""
        fib = cluster.fib_of(2)
        cluster.announce("172.16.0.0/16", 0)
        cluster.sync_node(2)
        assert fib.lookup("172.16.1.1").port == 0

    def test_fail_recover_streams_deltas(self, cluster):
        cluster.mark_failed(3)
        for node in (0, 1, 2):
            result = cluster.sync_node(node)
            assert not result.rebuilt
            assert cluster.fib_of(node).lookup("10.3.1.1") is None
        cluster.mark_recovered(3)
        result = cluster.sync_node(0)
        assert not result.rebuilt
        assert cluster.fib_of(0).lookup("10.3.1.1").port == 3

    def test_journal_window_forces_rebuild(self, cluster, monkeypatch):
        """A node whose FIB predates the trimmed journal window gets a
        full rebuild, and the journal never splits one version."""
        from repro.core import control as control_mod

        monkeypatch.setattr(control_mod, "MAX_JOURNAL_ENTRIES", 8)
        for i in range(12):
            cluster.announce("172.16.%d.0/24" % i, i % 4)
        assert cluster.fib_deltas(cluster.rib_version) == []
        # Node 0's pushed version fell behind the floor.
        assert cluster.fib_deltas(0) is None
        result = cluster.sync_node(0)
        assert result.rebuilt
        assert cluster.fib_of(0).lookup("172.16.11.1").port == 3
        # The surviving journal still replays cleanly for a mid-gap
        # version at or above the floor.
        floor = cluster._journal_floor
        deltas = cluster.fib_deltas(floor)
        assert deltas is not None
        assert all(d.version > floor for d in deltas)

    def test_incremental_matches_rebuild(self, cluster):
        """After mixed churn, an incrementally synced node answers
        exactly like a freshly rebuilt one."""
        cluster.announce("172.16.0.0/16", 0)
        cluster.withdraw("10.1.0.0/16")
        cluster.announce("10.0.0.0/16", 2)      # moved
        cluster.mark_failed(3)
        cluster.sync_node(0)
        reference = cluster.build_fib()
        probes = ["10.0.1.1", "10.1.1.1", "10.2.1.1", "10.3.1.1",
                  "172.16.1.1", "9.9.9.9"]
        for probe in probes:
            mine = cluster.fib_of(0).lookup(probe)
            theirs = reference.lookup(probe)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.port == theirs.port


class TestFibDeltasWindow:
    """``fib_deltas`` bisects the journal for its tail; it must return
    exactly what a filter over every entry returns."""

    @staticmethod
    def _linear(manager, since):
        if since < manager._journal_floor:
            return None
        return [d for d in manager._journal if d.version > since]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cap", [None, 16])
    def test_matches_the_linear_filter(self, seed, cap, monkeypatch):
        import random

        from repro.core import control as control_mod

        if cap is not None:
            # Small enough that the journal is trimmed several times.
            monkeypatch.setattr(control_mod, "MAX_JOURNAL_ENTRIES", cap)
        rng = random.Random(seed)
        manager = ClusterManager()
        for port in range(4):
            manager.add_node(external_port=port)
        announced = []
        for step in range(120):
            roll = rng.random()
            if roll < 0.5 or not announced:
                prefix = "172.%d.%d.0/24" % (rng.randrange(4),
                                             rng.randrange(64))
                manager.announce(prefix, rng.randrange(4))
                if prefix not in announced:
                    announced.append(prefix)
            elif roll < 0.7:
                manager.withdraw(announced.pop(rng.randrange(len(announced))))
            elif roll < 0.85:
                manager.mark_failed(rng.randrange(4))
            else:
                manager.mark_recovered(rng.randrange(4))
            for since in {0, manager._journal_floor, manager.rib_version,
                          rng.randrange(manager.rib_version + 2)}:
                assert manager.fib_deltas(since) == self._linear(
                    manager, since)
        if cap is not None:
            assert manager._journal_floor > 0
