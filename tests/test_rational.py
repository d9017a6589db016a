from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment.errors import DimensionMismatch
from polymoment.permgroup import Permutation, full_cycle
from polymoment.rational import (
    apply_permutation,
    contains,
    full_space,
    intersect,
    invariant_closure,
    orth_complement,
    span,
    vec,
    vector_from_json,
    vector_to_json,
    zero_subspace,
)


def test_span_examples():
    u = span([(1, 1), (2, 2)])
    assert u.dim == 1 and u.basis == ((Fraction(1), Fraction(1)),)
    assert span([], n=3).dim == 0
    assert span([(1, 0), (0, 1)]) == full_space(2)


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span([(1, 0), (1, 0, 0)])


def periodic_space(n, d):
    """d-periodic vectors in Q^n."""
    rows = []
    for r in range(d):
        v = [Fraction(0)] * n
        for i in range(r, n, d):
            v[i] = Fraction(1)
        rows.append(v)
    return span(rows, n)


def test_intersect_periodic():
    # 2-periodic cap 3-periodic in Q^6 is the constants
    v2 = periodic_space(6, 2)
    v3 = periodic_space(6, 3)
    got = intersect(v2, v3)
    assert got == span([[1] * 6], 6)


def test_intersect_edges():
    u = span([(1, 2, 0), (0, 1, 1)])
    assert intersect(u, u) == u
    assert intersect(u, zero_subspace(3)).dim == 0


def test_orth_complement_examples():
    assert orth_complement(span([(1, 1)])) == span([(1, -1)])
    assert orth_complement(zero_subspace(4)) == full_space(4)
    v1 = span([[1, 1, 1, 1]])
    got = orth_complement(v1)
    assert got.dim == 3
    assert all(sum(row) == 0 for row in got.basis)


def test_contains_examples():
    v2 = span([(1, 0, 1, 0), (0, 1, 0, 1)])
    assert contains(v2, (1, 1, 1, 1))
    assert contains(zero_subspace(3), (0, 0, 0))
    assert not contains(span([(1, 1)]), (1, -1))


def test_invariant_closure_cyclic_orbit():
    c3 = full_cycle(3)
    assert invariant_closure([(1, 0, 0)], [c3]) == full_space(3)
    assert invariant_closure([(1, 1, 1)], [c3]).dim == 1


def test_invariant_closure_sum_zero():
    # brute-force oracle: orbit of (1,-1,0,0) under powers of the 4-cycle
    c4 = full_cycle(4)
    seed = vec((1, -1, 0, 0))
    orbit = []
    v = seed
    for _ in range(4):
        orbit.append(v)
        v = apply_permutation(c4.images, v)
    expected = span(orbit, 4)
    got = invariant_closure([seed], [c4])
    assert got == expected
    assert got.dim == 3
    assert all(sum(row) == 0 for row in got.basis)


def test_invariant_closure_fixed_point():
    gens = [full_cycle(5), Permutation((2, 1, 3, 4, 5))]
    cl = invariant_closure([(3, 0, 1, 0, 0)], gens)
    for g in gens:
        for row in cl.basis:
            assert contains(cl, apply_permutation(g.images, row))


def test_json_vectors():
    v = vec(("1/3", 2, "-5/7"))
    assert vector_to_json(v) == ["1/3", "2/1", "-5/7"]
    assert vector_from_json(vector_to_json(v)) == v


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def vectors(n):
    return st.lists(small_rationals, min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(vectors(n), min_size=0, max_size=4)))
def test_double_complement_involutive(rows):
    if not rows:
        return
    u = span(rows, len(rows[0]))
    assert orth_complement(orth_complement(u)) == u


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=4)))
def test_complement_dimension(rows):
    n = len(rows[0])
    u = span(rows, n)
    assert u.dim + orth_complement(u).dim == n


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(vectors(n), min_size=1, max_size=3),
            st.lists(vectors(n), min_size=1, max_size=3),
        )
    )
)
def test_intersection_is_lower_bound(pair):
    rows_u, rows_v = pair
    n = len(rows_u[0])
    u, v = span(rows_u, n), span(rows_v, n)
    w = intersect(u, v)
    assert contains(u, w) and contains(v, w)
    # intersection is the largest common subspace: every common vector of the
    # two row lists reduces to zero against both, hence lies in w
    for row in rows_u:
        if contains(v, row):
            assert contains(w, row)


def test_matrix_rank():
    # the rank of a matrix is the dimension of the span of its rows
    assert span([[1, 2], [2, 4], [0, 1]]).dim == 2
    assert span([[0, 0], [0, 0]]).dim == 0
