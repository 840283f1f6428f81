"""Tests for VLB analysis and the switching guarantees (Sec. 3.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClassicVlb, DirectVlb, analyze, check_throughput
from repro.core.switching import check_fairness, jain_index
from repro.core.vlb import (
    direct_first_hop,
    processing_rate_bound,
    required_internal_link_rate,
)
from repro.errors import ConfigurationError
from repro.workloads import (
    TrafficMatrix,
    permutation_matrix,
    uniform_matrix,
)

R = 10e9


def _busy(node):
    return False


def _idle(node):
    return 0


class TestClassicVlb:
    def test_uniform_matrix_link_load_bound(self):
        # Sec. 3.2: each internal link carries at most 2R/N.
        n = 8
        matrix = uniform_matrix(n, R)
        analysis = analyze(matrix, R, ClassicVlb())
        assert analysis.max_link_load <= 2 * R / n * 1.001

    def test_worst_case_matrix_link_load_bound(self):
        n = 8
        matrix = permutation_matrix(n, R)
        analysis = analyze(matrix, R, ClassicVlb())
        assert analysis.max_link_load <= 2 * R / n * 1.001

    def test_processing_rate_approaches_3r(self):
        n = 16
        matrix = permutation_matrix(n, R)
        analysis = analyze(matrix, R, ClassicVlb())
        c = analysis.c_factor(R)
        # 2R own traffic + (1 - 2/N)R intermediate.
        assert 2.7 < c <= 3.0

    def test_direct_fraction_is_zero(self):
        analysis = analyze(uniform_matrix(4, R), R, ClassicVlb())
        assert analysis.direct_fraction == 0.0


class TestDirectVlb:
    def test_uniform_matrix_processing_near_2r(self):
        # The headline claim: close-to-uniform -> per-node rate ~2R.
        n = 8
        analysis = analyze(uniform_matrix(n, R), R, DirectVlb())
        c = analysis.c_factor(R)
        assert 2.0 <= c < 2.2

    def test_worst_case_processing_near_3r(self):
        n = 8
        analysis = analyze(permutation_matrix(n, R), R, DirectVlb())
        c = analysis.c_factor(R)
        assert 2.8 < c <= 3.0

    def test_direct_fraction_uniform_vs_permutation(self):
        n = 8
        uniform = analyze(uniform_matrix(n, R), R, DirectVlb())
        perm = analyze(permutation_matrix(n, R), R, DirectVlb())
        # Uniform demand R/7 vs direct allowance R/8: most goes direct.
        assert uniform.direct_fraction > 0.8
        # Permutation: only R/8 of R per pair goes direct.
        assert perm.direct_fraction == pytest.approx(1 / 8, rel=0.01)

    # The adaptive first hop both nodes run (direct_first_hop), with the
    # direct link busy so every pick is an intermediate.

    def test_intermediate_never_src_or_dst(self):
        rng = random.Random(1)
        for _ in range(500):
            pick = direct_first_hop(2, 5, 8, _busy, (), _idle, rng)
            assert pick not in (2, 5)
            assert 0 <= pick < 8

    def test_intermediate_covers_all_candidates(self):
        rng = random.Random(2)
        picks = {direct_first_hop(0, 7, 8, _busy, (), _idle, rng)
                 for _ in range(200)}
        assert picks == set(range(1, 7))

    def test_least_loaded_intermediate_wins(self):
        rng = random.Random(3)
        loads = {1: 5, 2: 1, 3: 9, 4: 1, 5: 7, 6: 2}
        picks = {direct_first_hop(0, 7, 8, _busy, {4}, loads.get, rng)
                 for _ in range(50)}
        assert picks == {2}  # 4 ties it but has failed
        ties = {direct_first_hop(0, 7, 8, _busy, (), loads.get, rng)
                for _ in range(50)}
        assert ties == {2, 4}  # the shuffle breaks ties
        assert direct_first_hop(0, 7, 8, lambda i: True, (), loads.get,
                                rng) == 7  # direct while available


class TestBounds:
    def test_required_internal_link_rate(self):
        assert required_internal_link_rate(8, R) == pytest.approx(2 * R / 8)
        with pytest.raises(ConfigurationError):
            required_internal_link_rate(1, R)

    def test_processing_rate_bound(self):
        assert processing_rate_bound(R, uniform=True) == 2 * R
        assert processing_rate_bound(R, uniform=False) == 3 * R


class TestThroughputGuarantee:
    def test_admissible_uniform_passes(self):
        n = 8
        check = check_throughput(uniform_matrix(n, R), R,
                                 internal_link_bps=2 * R / n * 1.05,
                                 node_processing_bps=2.2 * R)
        assert check.ok

    def test_worst_case_needs_3r(self):
        # The 2R/N link bound is the classic-VLB guarantee; Direct VLB
        # spreads remainders over n-2 intermediates and needs a bit more.
        n = 8
        matrix = permutation_matrix(n, R)
        too_small = check_throughput(matrix, R,
                                     internal_link_bps=2 * R / n * 1.05,
                                     node_processing_bps=2.2 * R,
                                     policy=ClassicVlb())
        assert not too_small.ok
        enough = check_throughput(matrix, R,
                                  internal_link_bps=2 * R / n * 1.05,
                                  node_processing_bps=3.0 * R,
                                  policy=ClassicVlb())
        assert enough.ok

    def test_inadmissible_matrix_rejected(self):
        overloaded = TrafficMatrix([[0, 2 * R], [R, 0]])
        check = check_throughput(overloaded, R, R, 3 * R)
        assert not check.ok
        assert "admissible" in check.detail

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=3, max_value=10),
           seed=st.integers(min_value=0, max_value=999))
    def test_vlb_bounds_hold_for_random_admissible_matrices(self, n, seed):
        """Property: for any admissible matrix, classic VLB keeps links
        within 2R/N and nodes within 3R."""
        rng = random.Random(seed)
        raw = [[0.0 if i == j else rng.random() for j in range(n)]
               for i in range(n)]
        # Scale rows/columns into admissibility.
        matrix = TrafficMatrix(raw)
        scale = R / max(max(matrix.row_sum(i) for i in range(n)),
                        max(matrix.col_sum(i) for i in range(n)))
        matrix = matrix.scaled(scale)
        assert matrix.is_admissible(R)
        analysis = analyze(matrix, R, ClassicVlb())
        assert analysis.max_link_load <= 2 * R / n * 1.0001
        assert analysis.max_node_processing <= 3 * R * 1.0001


class TestFairness:
    def test_fair_counts_pass(self):
        assert check_fairness({0: 100, 1: 105, 2: 95})

    def test_unfair_counts_fail(self):
        assert not check_fairness({0: 100, 1: 10, 2: 100})

    def test_jain_index(self):
        assert jain_index({0: 50, 1: 50}) == pytest.approx(1.0)
        assert jain_index({0: 100, 1: 0}) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            check_fairness({})
