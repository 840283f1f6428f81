"""The unified WorkloadSpec accepted by every throughput API."""

import math

import pytest

from repro import calibration as cal
from repro.core import RouteBricksRouter
from repro.errors import ConfigurationError
from repro.perfmodel import max_loss_free_rate
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix


class TestSpecConstruction:
    def test_fixed(self):
        spec = WorkloadSpec.fixed(64)
        assert spec.mean_packet_bytes == 64
        assert spec.app is cal.IP_ROUTING

    def test_imix_and_abilene_means(self):
        assert WorkloadSpec.imix().mean_packet_bytes == pytest.approx(
            353.83, rel=0.01)
        assert WorkloadSpec.abilene().mean_packet_bytes == pytest.approx(
            740, rel=0.01)

    def test_app_by_name_or_object(self):
        assert WorkloadSpec.fixed(64, app="ipsec").app is cal.IPSEC
        assert WorkloadSpec.fixed(64, app=cal.IPSEC).app is cal.IPSEC
        with pytest.raises(ConfigurationError):
            WorkloadSpec.fixed(64, app="quantum")

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", mix=((32, 1.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", mix=((64, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, value):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.fixed(value)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", mix=((64, 1.0), (value, 1.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="z", mix=((64, value),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec.imix([(64, 1.0), (1518, value)])

    def test_with_matrix(self):
        matrix = uniform_matrix(4, 1e9)
        spec = WorkloadSpec.fixed(740).with_matrix(matrix)
        assert spec.matrix is matrix
        assert spec.name == "fixed-740B"


class TestUniformAcceptance:
    def test_perfmodel_accepts_spec(self):
        result = max_loss_free_rate(
            WorkloadSpec.fixed(64, app="forwarding"))
        assert result.rate_gbps > 0

    def test_router_accepts_spec(self):
        result = RouteBricksRouter().max_throughput(WorkloadSpec.fixed(64))
        assert result.aggregate_gbps == pytest.approx(12.0, rel=0.05)

    def test_spec_app_drives_the_model(self):
        routing = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(64, app="routing"))
        ipsec = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(64, app="ipsec"))
        assert ipsec.aggregate_bps < routing.aggregate_bps

    def test_simulate_accepts_spec_with_matrix(self):
        spec = WorkloadSpec.fixed(740, seed=3).with_matrix(
            uniform_matrix(4, 2e9))
        report = RouteBricksRouter(seed=3).simulate(spec, until=0.5e-3)
        assert report.offered_packets > 0
        # Nothing lost; the shortfall is packets in flight at the horizon.
        assert report.dropped_packets == 0
        assert report.delivery_ratio > 0.85

    def test_simulate_spec_needs_matrix_and_horizon(self):
        router = RouteBricksRouter()
        with pytest.raises(ConfigurationError):
            router.simulate(WorkloadSpec.fixed(740), until=1e-3)
        spec = WorkloadSpec.fixed(740).with_matrix(uniform_matrix(4, 1e9))
        with pytest.raises(ConfigurationError):
            router.simulate(spec)

    def test_simulate_spec_matrix_size_must_match(self):
        spec = WorkloadSpec.fixed(740).with_matrix(uniform_matrix(8, 1e9))
        with pytest.raises(ConfigurationError):
            RouteBricksRouter(num_nodes=4).simulate(spec, until=1e-3)


class TestRemovedLegacyForms:
    """The pre-WorkloadSpec positional signatures are gone for good:
    passing a bare app/packet-size now raises TypeError instead of a
    DeprecationWarning."""

    def test_old_positional_forms_raise(self):
        with pytest.raises(TypeError):
            max_loss_free_rate(cal.MINIMAL_FORWARDING, 64)
        with pytest.raises(TypeError):
            RouteBricksRouter().max_throughput(64)

    def test_spec_forms_work(self):
        new = max_loss_free_rate(
            WorkloadSpec.fixed(64, app="forwarding"))
        new_cluster = RouteBricksRouter().max_throughput(
            WorkloadSpec.fixed(64))
        assert new.rate_bps > 0
        assert new_cluster.aggregate_bps > 0
