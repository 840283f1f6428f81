"""Tests for the explicit fabric graphs (mesh, k-ary n-fly)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.fabric import (
    FabricNetwork,
    fly_graph,
    mesh_graph,
    sec33_latency_estimate,
)
from repro.errors import TopologyError


class TestMeshGraph:
    def test_every_pair_two_hops(self):
        fabric = FabricNetwork(mesh_graph(6))
        for s in range(6):
            for d in range(6):
                if s != d:
                    assert fabric.hops(s, d) == 2

    def test_transit_load_uniform(self):
        fabric = FabricNetwork(mesh_graph(4))
        loads = fabric.transit_load(10e9)
        # Each node sources 10G and sinks 10G; no transit in a mesh.
        values = set(round(v / 1e9, 3) for v in loads.values())
        assert values == {20.0}

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            mesh_graph(1)


class TestFlyGraph:
    def test_terminal_count(self):
        fabric = FabricNetwork(fly_graph(4, 3))
        assert len(fabric.io_nodes) == 64
        # 64 terminals + 3 stages x 16 switches.
        assert len(fabric.graph) == 64 + 48

    def test_all_pairs_reachable_in_n_plus_2(self):
        stages = 3
        fabric = FabricNetwork(fly_graph(2, stages))
        for s in range(8):
            for d in range(8):
                if s == d:
                    continue
                # terminal -> stage0..stage(n-1) -> terminal.
                assert fabric.hops(s, d) == stages + 2

    def test_partial_terminals(self):
        fabric = FabricNetwork(fly_graph(4, 2, num_terminals=10))
        assert len(fabric.io_nodes) == 10
        assert fabric.hops(0, 9) >= 2

    def test_too_many_terminals(self):
        with pytest.raises(TopologyError):
            fly_graph(2, 2, num_terminals=5)

    def test_fly_latency_grows_with_stages(self):
        small = FabricNetwork(fly_graph(4, 2))
        large = FabricNetwork(fly_graph(4, 3))
        assert large.hops(0, 1) > small.hops(0, 1)


class TestFlyProperties:
    """Hypothesis property tests on butterfly structure."""

    def test_all_pairs_reachable_any_k_n(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=15, deadline=None)
        @given(k=st.integers(min_value=2, max_value=4),
               stages=st.integers(min_value=1, max_value=3))
        def check(k, stages):
            fabric = FabricNetwork(fly_graph(k, stages))
            terminals = len(fabric.io_nodes)
            sample = range(0, terminals, max(1, terminals // 6))
            for s in sample:
                for d in sample:
                    if s == d:
                        continue
                    # Uniform path length: stages + 2 servers.
                    assert fabric.hops(s, d) == stages + 2

        check()

    def test_stage_degree_is_k(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=10, deadline=None)
        @given(k=st.integers(min_value=2, max_value=5))
        def check(k):
            graph = fly_graph(k, 2)
            for node in graph:
                if node[0] == "fly" and node[1] == 0:
                    # Interior stage nodes fan out k ways.
                    assert len(graph[node]) == k

        check()


class TestLatencyEstimates:
    def test_sec33_1024_port_estimate(self):
        """Sec. 3.3: 1024 ports on current servers -> 2 intermediates per
        port -> 4 servers on a path -> 96 us."""
        estimate = sec33_latency_estimate(1024)
        assert estimate["intermediates_per_port"] == pytest.approx(2.0,
                                                                   rel=0.01)
        assert estimate["servers_on_path"] == 4
        assert estimate["latency_usec"] == pytest.approx(96.0)


def test_importing_the_cluster_does_not_import_networkx():
    """The fabric graphs are plain adjacency dicts; the packages every
    CLI command and every worker process loads must not pull in
    networkx."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = ("import sys, repro.core, repro.parallel; "
             "sys.exit('networkx' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
