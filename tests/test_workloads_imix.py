"""Tests for the IMIX size mixes and their loss-free rates."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.imix import (
    MIXES,
    imix_rate_gbps,
    mix_mean_bytes,
)


class TestMixes:
    def test_simple_imix_mean(self):
        # (7x64 + 4x570 + 1x1518) / 12 packets = 353.83 B.
        assert mix_mean_bytes(MIXES["simple"]) == pytest.approx(353.83,
                                                                abs=0.5)

    def test_minimum_mix(self):
        assert mix_mean_bytes(MIXES["minimum"]) == 64

    def test_bad_mix(self):
        with pytest.raises(ConfigurationError):
            mix_mean_bytes([(100, 0)])


class TestImixRates:
    def test_rate_between_64b_and_large(self):
        imix = imix_rate_gbps("forwarding", "simple")
        from repro import calibration as cal
        from repro.perfmodel import max_loss_free_rate
        from repro.workloads import WorkloadSpec
        small = max_loss_free_rate(WorkloadSpec.fixed(
            64, app=cal.MINIMAL_FORWARDING)).rate_gbps
        large = max_loss_free_rate(WorkloadSpec.fixed(
            1500, app=cal.MINIMAL_FORWARDING)).rate_gbps
        assert small < imix < large

    def test_minimum_mix_equals_64b(self):
        imix = imix_rate_gbps("forwarding", "minimum")
        assert imix == pytest.approx(9.77, rel=0.01)
