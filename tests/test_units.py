"""Tests for unit conversions."""

import pytest

from repro import units


def test_64b_line_rate_packet_rate():
    # 10 Gbps of 64 B packets is 19.53 Mpps -- the classic line-rate figure.
    bps = units.rate_pps_to_bps(units.mpps(19.53125), 64)
    assert bps == pytest.approx(units.gbps(10))


def test_usec_round_trip():
    assert units.usec(24.0) * 1e6 == pytest.approx(24.0)


@pytest.mark.parametrize("bad", [0, -1, -64])
def test_rate_conversion_rejects_nonpositive_size(bad):
    with pytest.raises(ValueError):
        units.rate_pps_to_bps(1e6, bad)
