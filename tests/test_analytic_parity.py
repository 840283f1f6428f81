"""The plain-Python traffic matrix and VLB analysis against numpy.

The reference below is the numpy form these modules used to have: an
``ndarray`` of demands, ``ndarray.sum`` for the line sums, and the same
analysis loop over array cells.  Every value must match it exactly, except
the sums: ``math.fsum`` rounds once, numpy's pairwise sum once per add, so
a sum (and what is computed from one) may differ in its last bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.vlb import ClassicVlb, DirectVlb, analyze
from repro.workloads.cluster_traffic import offered_packets
from repro.workloads.matrices import (TrafficMatrix, permutation_matrix,
                                      uniform_matrix)

R = 10e9
#: A few ulps of a sum of at most 16 terms.
SUM_REL = 1e-14


def _np_uniform(n, port_rate_bps):
    matrix = np.full((n, n), port_rate_bps / (n - 1))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _np_permutation(n, port_rate_bps, shift):
    matrix = np.zeros((n, n))
    for i in range(n):
        matrix[i][(i + shift) % n] = port_rate_bps
    return matrix


def _np_row_sum(demands, node):
    return float(demands[node].sum())


def _np_col_sum(demands, node):
    return float(demands[:, node].sum())


def _np_is_admissible(demands, port_rate_bps, tol=1e-9):
    return all(_np_row_sum(demands, node) <= port_rate_bps * (1 + tol)
               and _np_col_sum(demands, node) <= port_rate_bps * (1 + tol)
               for node in range(len(demands)))


def _np_analyze(demands, port_rate_bps, policy):
    """``core.vlb.analyze`` as it was, over an ``ndarray``."""
    n = len(demands)
    links = np.zeros((n, n))
    intermediate = np.zeros(n)
    total_demand = total_direct = 0.0
    for s in range(n):
        for d in range(n):
            if s == d or demands[s][d] == 0:
                continue
            demand = demands[s][d]
            total_demand += demand
            direct = min(policy.direct_share(demand, port_rate_bps, n),
                         demand)
            balanced = demand - direct
            total_direct += direct
            links[s][d] += direct
            if balanced > 0:
                if isinstance(policy, ClassicVlb):
                    share = balanced / n
                    for i in range(n):
                        if i != s:
                            links[s][i] += share
                        if i != d:
                            links[i][d] += share
                        if i not in (s, d):
                            intermediate[i] += share
                else:
                    candidates = [i for i in range(n) if i not in (s, d)]
                    share = balanced / len(candidates)
                    for i in candidates:
                        links[s][i] += share
                        links[i][d] += share
                        intermediate[i] += share
    processing = np.array([_np_row_sum(demands, i) + _np_col_sum(demands, i)
                           + intermediate[i] for i in range(n)])
    direct_fraction = total_direct / total_demand if total_demand else 1.0
    return links, processing, direct_fraction


def _assert_parity(matrix, reference, port_rate_bps):
    n = len(reference)
    assert matrix.n == n
    assert type(matrix.demands) is tuple
    assert matrix.demands == tuple(map(tuple, reference.tolist()))
    assert {type(d) for row in matrix.demands for d in row} == {float}
    for node in range(n):
        assert matrix.row_sum(node) == pytest.approx(
            _np_row_sum(reference, node), rel=SUM_REL, abs=0)
        assert matrix.col_sum(node) == pytest.approx(
            _np_col_sum(reference, node), rel=SUM_REL, abs=0)
    for rate in (port_rate_bps, port_rate_bps / 2):
        assert matrix.is_admissible(rate) == _np_is_admissible(reference,
                                                               rate)
    for factor in (0.5, 0.3, 3.0):
        assert matrix.scaled(factor).demands == tuple(
            map(tuple, (reference * factor).tolist()))
    assert offered_packets(matrix, 1e-3, 64) == pytest.approx(
        float(reference.sum()) * 1e-3 / (64 * 8), rel=SUM_REL, abs=0)
    for policy in (DirectVlb(), ClassicVlb()):
        got = analyze(matrix, port_rate_bps, policy)
        links, processing, direct_fraction = _np_analyze(
            reference, port_rate_bps, policy)
        assert got.link_loads == links.tolist()
        assert got.max_link_load == float(links.max())
        assert got.node_processing == pytest.approx(
            processing.tolist(), rel=SUM_REL, abs=0)
        assert got.max_node_processing == pytest.approx(
            float(processing.max()), rel=SUM_REL, abs=0)
        assert got.c_factor(port_rate_bps) == pytest.approx(
            float(processing.max()) / port_rate_bps, rel=SUM_REL, abs=0)
        assert got.direct_fraction == direct_fraction


@pytest.mark.parametrize("n", range(2, 17))
def test_uniform_matrix(n):
    _assert_parity(uniform_matrix(n, R), _np_uniform(n, R), R)


@pytest.mark.parametrize("n, shift", sorted(
    {(n, shift % n) for n in range(2, 17) for shift in (1, 2, -1)} - {(2, 0)}))
def test_permutation_matrix(n, shift):
    _assert_parity(permutation_matrix(n, R, shift),
                   _np_permutation(n, R, shift), R)


@st.composite
def _admissible(draw):
    """An n x n matrix (n = 2..16) whose busiest line carries R or less."""
    n = draw(st.integers(2, 16))
    weights = [[0.0 if s == d else draw(st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))) for d in range(n)]
        for s in range(n)]
    busiest = max([math.fsum(row) for row in weights]
                  + [math.fsum(col) for col in zip(*weights)])
    load = draw(st.floats(0.05, 1.0))
    scale = R * load / busiest if busiest else 0.0
    return [[w * scale for w in row] for row in weights]


@settings(max_examples=80, deadline=None)
@given(demands=_admissible())
def test_random_admissible_matrix(demands):
    _assert_parity(TrafficMatrix(demands), np.asarray(demands, dtype=float),
                   R)
