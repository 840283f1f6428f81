"""Flow-skewed workload generator: determinism, skew shape, and churn."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.workloads import SkewedFlowWorkload

SEED = 20090917


def _workload(**kwargs):
    defaults = dict(num_flows=128, skew=1.1, churn_packets=None,
                    rate_pps=1e6, seed=SEED)
    defaults.update(kwargs)
    return SkewedFlowWorkload(**defaults)


class TestDeterminism:
    def test_same_seed_same_records(self):
        first = list(_workload().records(600))
        second = list(_workload().records(600))
        assert first == second

    def test_same_seed_same_flow_id_stream(self):
        first, second = (
            [(r.flow_slot, r.flow_generation)
             for r in _workload(churn_packets=50).records(600)]
            for _ in range(2))
        assert first == second

    def test_different_seeds_differ(self):
        first = list(_workload(seed=1).records(200))
        second = list(_workload(seed=2).records(200))
        assert first != second

    def test_sequence_and_time_are_monotone(self):
        records = list(_workload().records(300))
        assert [r.seq for r in records] == list(range(300))
        times = [r.time for r in records]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestSkewShape:
    def test_top_share_grows_with_skew(self):
        shares = []
        for skew in (0.0, 0.8, 1.4):
            records = list(_workload(skew=skew).records(4000))
            shares.append(SkewedFlowWorkload.top_share(records))
        assert shares[0] < shares[1] < shares[2]

    def test_zero_skew_is_roughly_uniform(self):
        records = list(_workload(skew=0.0).records(8000))
        top = SkewedFlowWorkload.top_share(records)
        # Uniform over 128 slots: expected share 1/128 ~ 0.0078; the
        # maximum of 128 binomials stays well under 4x that.
        assert top < 4.0 / 128

    def test_high_skew_concentrates(self):
        records = list(_workload(skew=1.4).records(8000))
        assert SkewedFlowWorkload.top_share(records) > 0.15

    def test_empirical_shares_sum_to_one(self):
        records = list(_workload().records(2000))
        shares = SkewedFlowWorkload.empirical_shares(records)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_sizes_follow_abilene_mix(self):
        records = list(_workload().records(4000))
        sizes = {r.length for r in records}
        assert sizes <= {64, 576, 1500}
        assert len(sizes) > 1


class TestChurn:
    def test_no_churn_keeps_generation_zero(self):
        records = list(_workload(skew=0.0).records(2000))
        assert all(r.flow_generation == 0 for r in records)
        distinct = {r.key for r in records}
        assert len(distinct) <= 128

    def test_churn_turns_flow_identities_over(self):
        records = list(_workload(skew=0.0, churn_packets=20).records(4000))
        assert max(r.flow_generation for r in records) > 0
        distinct = {r.key for r in records}
        assert len(distinct) > 128

    def test_generation_changes_key_but_not_slot_structure(self):
        records = list(_workload(skew=1.1, churn_packets=30).records(3000))
        by_slot_gen = {}
        for record in records:
            by_slot_gen.setdefault(
                (record.flow_slot, record.flow_generation),
                set()).add(record.key)
        # One (slot, generation) is exactly one five-tuple.
        assert all(len(keys) == 1 for keys in by_slot_gen.values())


class TestValidation:
    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            _workload(num_flows=0)
        with pytest.raises(ConfigurationError):
            _workload(skew=-0.1)
        with pytest.raises(ConfigurationError):
            _workload(churn_packets=0.5)
        with pytest.raises(ConfigurationError):
            _workload(rate_pps=0.0)

    @pytest.mark.parametrize("name", ["skew", "churn_packets", "rate_pps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_raise(self, name, value):
        with pytest.raises(ConfigurationError):
            _workload(**{name: value})

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            list(_workload().records(-1))
