"""Tests for topologies and provisioning (Fig. 3, Sec. 3.3)."""

import pytest

from repro.core import (
    ClosReference,
    FullMesh,
    KAryNFly,
    Torus,
    provision,
    switched_cluster_equivalent_servers,
)
from repro.core.provision import (
    SERVER_MODELS,
    max_mesh_ports,
    servers_required,
)
from repro.errors import TopologyError


class TestFullMesh:
    def test_feasible_mesh_server_count(self):
        mesh = FullMesh(num_ports=8, ports_per_server=1, fanout=32)
        assert mesh.feasible()
        assert mesh.total_servers() == 8

    def test_infeasible_when_fanout_exceeded(self):
        mesh = FullMesh(num_ports=64, ports_per_server=1, fanout=32)
        assert not mesh.feasible()
        with pytest.raises(TopologyError):
            mesh.total_servers()

    def test_two_ports_per_server_halves_cluster(self):
        mesh = FullMesh(num_ports=16, ports_per_server=2, fanout=32)
        assert mesh.total_servers() == 8

    def test_internal_link_rate(self):
        # 2sR/M per link (Sec. 3.3).
        mesh = FullMesh(num_ports=8, ports_per_server=1, fanout=32)
        assert mesh.internal_link_rate_bps(10e9) == pytest.approx(2.5e9)

    def test_links_complete(self):
        mesh = FullMesh(num_ports=4, ports_per_server=1, fanout=8)
        links = mesh.links()
        assert len(links) == 4 * 3
        assert (0, 0) not in links

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            FullMesh(num_ports=1, ports_per_server=1, fanout=4)


class TestKAryNFly:
    def test_paper_1024_port_data_point(self):
        """Sec. 3.3: current servers need ~2 intermediate servers per port
        at N = 1024."""
        fly = KAryNFly(num_ports=1024, ports_per_server=1, fanout=32)
        per_port = fly.intermediate_servers() / 1024
        assert per_port == pytest.approx(2.0, rel=0.01)
        assert fly.total_servers() == 1024 + fly.intermediate_servers()
        assert fly.total_servers() == pytest.approx(3072, abs=2)

    def test_stage_count_grows_logarithmically(self):
        small = KAryNFly(num_ports=64, ports_per_server=1, fanout=32)
        large = KAryNFly(num_ports=1024, ports_per_server=1, fanout=32)
        assert small.stages < large.stages

    def test_faster_servers_cheaper(self):
        slow = KAryNFly(num_ports=512, ports_per_server=1, fanout=32)
        fast = KAryNFly(num_ports=512, ports_per_server=2, fanout=144)
        assert fast.total_servers() < slow.total_servers()

    def test_rejects_tiny_fanout(self):
        with pytest.raises(TopologyError):
            KAryNFly(num_ports=64, ports_per_server=1, fanout=2)


class TestTorus:
    def test_torus_larger_than_fly(self):
        """The paper rejected the torus because the fly yields smaller
        clusters for the practical parameter range."""
        n = 512
        fly = KAryNFly(num_ports=n, ports_per_server=1, fanout=32)
        torus = Torus(num_ports=n, ports_per_server=1)
        assert torus.total_servers() > fly.total_servers()

    def test_average_hops_grow_with_radix(self):
        small = Torus(num_ports=64, ports_per_server=1)
        large = Torus(num_ports=4096, ports_per_server=1)
        assert large.average_hops() > small.average_hops()


class TestClosReference:
    def test_single_switch_for_small_clusters(self):
        clos = ClosReference(num_ports=32)
        assert clos.switch_count_ports() == 48

    def test_small_cluster_equivalent_cost(self):
        # 32 ports: 32 servers + one 48-port switch (= 12 server equiv).
        assert switched_cluster_equivalent_servers(32) == 32 + 12

    def test_grows_superlinearly(self):
        per_port_small = switched_cluster_equivalent_servers(64) / 64
        per_port_large = switched_cluster_equivalent_servers(1024) / 1024
        assert per_port_large > per_port_small

    def test_switched_always_costs_more_than_server_cluster(self):
        """Fig. 3's conclusion: the Arista-based switched cluster costs
        more than the server-based cluster at every port count."""
        for n in (8, 32, 64, 128, 512, 1024, 2048):
            switched = switched_cluster_equivalent_servers(n)
            ours = servers_required(n, "current")
            assert switched > ours, n


class TestProvisioning:
    def test_mesh_limits_per_configuration(self):
        """Fig. 3: mesh-to-fly transitions at 32 / 128 / 256+ ports."""
        assert max_mesh_ports("current") == 32
        assert max_mesh_ports("more-nics") == 128
        assert max_mesh_ports("faster") >= 256

    def test_provision_picks_mesh_when_feasible(self):
        assert isinstance(provision(16, "current"), FullMesh)
        assert isinstance(provision(64, "current"), KAryNFly)

    def test_server_counts_monotone_in_ports(self):
        for model in SERVER_MODELS:
            counts = [servers_required(n, model)
                      for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024)]
            assert counts == sorted(counts), model

    def test_faster_config_cheapest_everywhere(self):
        for n in (8, 64, 512, 2048):
            assert servers_required(n, "faster") <= servers_required(
                n, "more-nics") <= servers_required(n, "current")

    def test_unknown_model(self):
        with pytest.raises(TopologyError):
            provision(16, "hyperscale")

    def test_cost_scales_linearly_with_ports_in_mesh(self):
        """Sec. 2: adding n ports costs O(n) while the mesh holds."""
        c8 = servers_required(8, "current")
        c16 = servers_required(16, "current")
        c32 = servers_required(32, "current")
        assert c16 - c8 == 8
        assert c32 - c16 == 16
