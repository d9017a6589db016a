import numpy as np
import pytest

from polymoment.errors import DegreeTooLow, InvalidDegree
from polymoment.poly import (
    ComplexPoly,
    affine_equivalent,
    chebyshev,
    compose,
    decompose_outer,
    decompose_right,
    derivative,
    eval_poly,
    poly_div,
    poly_from_json,
    poly_to_json,
    roots,
)

T2 = chebyshev(2)
T3 = chebyshev(3)
T6 = chebyshev(6)


def from_roots(rs, lc=1.0):
    """lc * prod (z - r)."""
    acc = ComplexPoly([lc])
    for r in rs:
        acc = acc * ComplexPoly([-r, 1])
    return acc


def coeff_err(p, q):
    a = list(p.coeffs) + [0] * max(0, len(q.coeffs) - len(p.coeffs))
    b = list(q.coeffs) + [0] * max(0, len(p.coeffs) - len(q.coeffs))
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def test_eval_examples():
    assert eval_poly(ComplexPoly([1, 0, 1]), 1j) == 0
    assert abs(eval_poly(T3, np.sqrt(3) / 2)) < 1e-15
    assert eval_poly(ComplexPoly(), 7 + 2j) == 0


def test_derivative_examples():
    assert derivative(ComplexPoly([0, 0, 0, 1])).coeffs == (0, 0, 3)
    assert derivative(ComplexPoly([5])).is_zero()
    assert derivative(ComplexPoly([-1, 0, 2])).coeffs == (0, 4)


def test_compose_examples():
    sq = ComplexPoly([0, 0, 1])
    shift = ComplexPoly([1, 1])
    assert compose(sq, shift).coeffs == (1, 2, 1)
    # Chebyshev recurrence is the independent oracle for the nesting law
    assert coeff_err(compose(T3, T2), T6) == 0
    p = ComplexPoly([2, -1, 3j])
    assert compose(ComplexPoly([0, 1]), p).coeffs == p.coeffs


def test_compose_associative():
    rng = np.random.RandomState(7)
    for _ in range(5):
        ps = [
            ComplexPoly((rng.standard_normal(d) + 1j * rng.standard_normal(d)).tolist())
            for d in rng.randint(2, 5, size=3)
        ]
        lhs = compose(compose(ps[0], ps[1]), ps[2])
        rhs = compose(ps[0], compose(ps[1], ps[2]))
        assert coeff_err(lhs, rhs) <= 1e-9 * max(lhs.coeff_scale(), 1.0)


def test_chebyshev_small():
    assert chebyshev(0).coeffs == (1,)
    assert chebyshev(1).coeffs == (0, 1)
    assert T2.coeffs == (-1, 0, 2)
    assert T3.coeffs == (0, -3, 0, 4)
    assert T6.coeffs == (-1, 0, 18, 0, -48, 0, 32)


def test_roots_examples():
    got = roots(ComplexPoly([1, 0, 1]))
    assert sorted(round(z.imag) for z in got) == [-1, 1]
    assert all(abs(z.real) < 1e-10 for z in got)

    tri = roots(ComplexPoly([-1, 3, -3, 1]))
    assert len(tri) == 3
    assert all(abs(z - 1) < 1e-10 for z in tri)

    pair = roots(ComplexPoly([-3, 0, 3]))
    assert sorted(round(z.real) for z in pair) == [-1, 1]


def test_roots_errors():
    with pytest.raises(DegreeTooLow):
        roots(ComplexPoly([3]))


def test_roots_product_reproduces():
    rng = np.random.RandomState(11)
    for _ in range(8):
        deg = rng.randint(2, 11)
        p = ComplexPoly(
            (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)).tolist()
        )
        rs = roots(p)
        rebuilt = from_roots(rs, p.leading)
        pts = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        scale = p.coeff_scale()
        for z in pts:
            assert abs(rebuilt(z) - p(z)) <= 1e-10 * scale * (1 + abs(z)) ** deg


def test_roots_multiplicity_mixed():
    p = from_roots([2, 2, -1j, -1j, -1j, 0.5])
    rs = sorted(roots(p), key=lambda z: (z.real, z.imag))
    counted = {}
    for z in rs:
        key = (round(z.real, 6), round(z.imag, 6))
        counted[key] = counted.get(key, 0) + 1
    assert counted == {(2.0, 0.0): 2, (0.0, -1.0): 3, (0.5, 0.0): 1}


def test_poly_div_roundtrip():
    rng = np.random.RandomState(5)
    p = ComplexPoly((rng.standard_normal(7) + 1j * rng.standard_normal(7)).tolist())
    d = ComplexPoly((rng.standard_normal(3) + 1j * rng.standard_normal(3)).tolist())
    q, r = poly_div(p, d)
    assert coeff_err(q * d + r, p) < 1e-12 * p.coeff_scale()
    assert r.degree < d.degree


def test_decompose_right_trivial_split():
    A, B = decompose_right(ComplexPoly([0, 0, 0, 0, 1]), 2)
    assert B.coeffs == (0, 0, 1)
    assert A.coeffs == (0, 0, 1)


def test_decompose_right_t6():
    A, B = decompose_right(T6, 2)
    assert coeff_err(compose(A, B), T6) <= 1e-9 * T6.coeff_scale()
    assert B.coeffs[-1] == 1 and B.coeffs[0] == 0
    assert affine_equivalent(T2, B) is not None


def test_decompose_right_obstructed():
    # triangular system forces B = z^2 + z/2 whose adic digits are not
    # constant, so z^4 + z^3 has no quadratic right factor
    assert decompose_right(ComplexPoly([0, 0, 0, 1, 1]), 2) is None


def test_decompose_right_edges():
    p = ComplexPoly([3, 1j, 2, 5])
    n = p.degree
    A, B = decompose_right(p, 1)
    assert B.coeffs == (0, 1)
    assert coeff_err(A, p) == 0
    A, B = decompose_right(p, n)
    assert A.degree == 1
    assert B.coeffs[-1] == 1 and B.coeffs[0] == 0
    assert coeff_err(compose(A, B), p) <= 1e-9 * p.coeff_scale()
    with pytest.raises(InvalidDegree):
        decompose_right(p, 2)


def test_decompose_right_random_roundtrip():
    rng = np.random.RandomState(23)
    for _ in range(6):
        da, db = rng.randint(2, 5), rng.randint(2, 5)
        A = ComplexPoly((rng.standard_normal(da + 1) + 1j * rng.standard_normal(da + 1)).tolist())
        B = ComplexPoly((rng.standard_normal(db + 1) + 1j * rng.standard_normal(db + 1)).tolist())
        p = compose(A, B)
        got = decompose_right(p, db)
        assert got is not None
        A2, B2 = got
        assert B2.coeffs[-1] == 1 and (not B2.coeffs or B2.coeffs[0] == 0)
        assert coeff_err(compose(A2, B2), p) <= 1e-9 * p.coeff_scale()


def test_decompose_outer_known_inner():
    R = ComplexPoly([1j, 2, -0.5])
    got = decompose_outer(compose(R, T3), T3)
    assert got is not None
    assert coeff_err(got, R) < 1e-10
    assert decompose_outer(ComplexPoly([0, 1, 1]), T2) is None


def test_affine_equivalent_examples():
    sq = ComplexPoly([0, 0, 1])
    got = affine_equivalent(sq, ComplexPoly([1, 0, 3]))
    assert got == (3, 1)
    assert affine_equivalent(sq, ComplexPoly([0, 1, 1])) is None
    got = affine_equivalent(T2, 2 * T2 - 5)
    assert got == (2, -5)


def test_json_roundtrip():
    p = ComplexPoly([1 + 2j, 0, -3.5j])
    assert poly_from_json(poly_to_json(p)).coeffs == p.coeffs
    assert poly_to_json(p) == {"coeffs": [[1.0, 2.0], [0.0, 0.0], [-0.0, -3.5]]}


def test_zero_polynomial_algebra():
    z = ComplexPoly()
    assert z.degree == -1
    assert z.is_zero()
    assert derivative(z).is_zero()
    assert (z + ComplexPoly([1])).coeffs == (1,)
    assert (z * ComplexPoly([1, 2])).is_zero()
