import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment.errors import DegreeTooLow, InvalidDegree
from polymoment.poly import (
    ComplexPoly,
    affine_equivalent,
    chebyshev,
    compose,
    decompose_outer,
    decompose_right,
    derivative,
    eval_many,
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


# ---------------------------------------------------------------------------
# bit-exact guards for the Horner kernel and the root finder
# ---------------------------------------------------------------------------


def _old_eval_with_scale(coeffs, z):
    """The root finder's value-and-magnitude loop before eval_many took it over."""
    acc = np.zeros_like(z)
    scale = np.zeros(z.shape, dtype=float)
    az = np.abs(z)
    for c in reversed(coeffs):
        acc = acc * z + c
        scale = scale * az + abs(c)
    return acc, scale


def _old_derivative_loop(coeffs, z):
    """The root finder's inline P' loop before eval_many took it over."""
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    dv = np.zeros_like(z)
    for c in reversed(dcoeffs):
        dv = dv * z + c
    return dv


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=2, max_size=49
    ),
    points=st.lists(
        st.tuples(st.floats(1e-3, 1e3), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=8
    ),
)
def test_eval_many_matches_old_loops_bitwise(coeffs, points):
    P = ComplexPoly(coeffs)
    arr = np.array(P.coeffs)
    z = np.array([r * np.exp(1j * t) for r, t in points])
    pv, mag = eval_many(P, z, magnitude=True)
    old_pv, old_mag = _old_eval_with_scale(arr, z)
    assert np.array_equal(pv, old_pv) and np.array_equal(mag, old_mag)
    assert np.array_equal(eval_many(P, z), old_pv)
    assert np.array_equal(eval_many(derivative(P), z), _old_derivative_loop(arr, z))


# float.hex of (re, im) of every root, recorded before eval_many took over the
# root finder's loops: any bit that moves can relabel the monodromy generators
ROOTS_GOLDEN = {
    "T24_prime": [
        "-0x1.fb9ea92ec1b22p-1 0x1.28ab052600000p-77",
        "-0x1.ee8dd4b28a491p-1 -0x1.b8a9f2c8b0000p-30",
        "-0x1.d906bb3f4e303p-1 0x1.aa73e34644000p-22",
        "-0x1.bb67b56c130f2p-1 0x1.1d5823cd5b000p-21",
        "-0x1.9632655f93890p-1 0x1.16340634bb000p-24",
        "-0x1.6a09e00c50ae7p-1 0x1.8ced558998000p-26",
        "-0x1.37afa1549f859p-1 0x1.61397165ab000p-22",
        "-0x1.00000530b067ap-1 -0x1.92093510f1000p-22",
        "-0x1.87de1039a1a53p-2 0x1.e1ada7a930000p-22",
        "-0x1.0907a288f3f3dp-2 0x1.d8ae817781000p-21",
        "-0x1.0b51b70503f09p-3 0x1.a897f191c0000p-24",
        "0x1.a12baac0cd000p-21 -0x1.51bc4eb1c9000p-21",
        "0x1.0b50e7d0b08ebp-3 0x1.8fb4f541da000p-22",
        "0x1.0907f9fbf8a91p-2 0x1.565197206a000p-21",
        "0x1.87de6ece2212bp-2 0x1.e84f6ffe3e000p-22",
        "0x1.000005563c410p-1 -0x1.f32e77e30e800p-23",
        "0x1.37af911a12effp-1 0x1.983b2c55bd000p-23",
        "0x1.6a09e63883e7bp-1 0x1.5f43306e40000p-28",
        "0x1.963269749fa78p-1 -0x1.1e401397a8000p-26",
        "0x1.bb67afb8bcb8dp-1 0x1.791b08a980000p-27",
        "0x1.d906bca53b106p-1 0x1.7869a81f40000p-29",
        "0x1.ee8dd4747eca1p-1 -0x1.940efc8000000p-47",
        "0x1.fb9ea92ec9511p-1 -0x1.2e6903f600000p-42",
    ],
    "T48_shifted": [
        "-0x1.089d34c3d948fp+0 -0x1.f69448a6a22bep-10",
        "-0x1.069a7ae760d4fp+0 0x1.092b5a7bc2c47p-5",
        "-0x1.06193c5bd04f2p+0 -0x1.285642335f850p-5",
        "-0x1.00195176d436dp+0 0x1.0ec72534f2e85p-4",
        "-0x1.fe3280e947a14p-1 -0x1.1df15b44fd868p-4",
        "-0x1.ea6ca7169fe36p-1 0x1.944f8e5616475p-4",
        "-0x1.e7779ba6b874dp-1 -0x1.a2d1982941c5ep-4",
        "-0x1.cc42917fb99bap-1 0x1.0976c012b402ep-3",
        "-0x1.c865675200ce5p-1 -0x1.10437f08536d4p-3",
        "-0x1.a6385b113bbe3p-1 0x1.443b11c785c15p-3",
        "-0x1.a184057569150p-1 -0x1.4a75bbdf6e750p-3",
        "-0x1.78f4b0b0fc392p-1 0x1.79733f2a5cac7p-3",
        "-0x1.737dcaca053c8p-1 -0x1.7f008c35e1a5ap-3",
        "-0x1.453dda8a2aed0p-1 0x1.a8362c5e86062p-3",
        "-0x1.3f1c542768e0ep-1 -0x1.acfdccbf8da44p-3",
        "-0x1.0bf65fa942ea8p-1 0x1.cfb703d79c031p-3",
        "-0x1.054513d515a1cp-1 -0x1.d3a407858e4ffp-3",
        "-0x1.9c324d0054cccp-2 0x1.ef48bab11e5edp-3",
        "-0x1.8deacbe791692p-2 -0x1.f249ef49496f0p-3",
        "-0x1.196a54bd9b6b4p-2 0x1.033083c038c30p-2",
        "-0x1.0a7c764503263p-2 -0x1.0434a1ca231cfp-2",
        "-0x1.23a362b2d19ffp-3 0x1.0a4d5ff9644d9p-2",
        "-0x1.04fdb47fcdd9ep-3 -0x1.0ad08e56967f8p-2",
        "-0x1.ee9532921d264p-8 0x1.0cdbc9e99f9a5p-2",
        "0x1.ee96fba7c6f39p-8 -0x1.0cdbc9fa4e988p-2",
        "0x1.04fdc2a172530p-3 0x1.0ad08ef66742bp-2",
        "0x1.23a370c70eb6cp-3 -0x1.0a4d60ba1139cp-2",
        "0x1.0a7c7d15e3fbcp-2 0x1.0434a30ede202p-2",
        "0x1.196a5b81aeadcp-2 -0x1.033085245bccep-2",
        "0x1.8dead2506f171p-2 0x1.f249f2ee960cdp-3",
        "0x1.9c325357a9067p-2 -0x1.ef48be90ea097p-3",
        "0x1.054516c4f78dbp-1 0x1.d3a40c0468a1ep-3",
        "0x1.0bf6628f4e1fdp-1 -0x1.cfb7088c70a13p-3",
        "0x1.3f1c56c66a620p-1 0x1.acfdd1c490b46p-3",
        "0x1.453ddd2109dd2p-1 -0x1.a83631977c7fdp-3",
        "0x1.737dcd0c8a65cp-1 0x1.7f0091682cdeep-3",
        "0x1.78f4b2f1d6e99p-1 -0x1.7973449082e6dp-3",
        "0x1.a184075dc1a7bp-1 0x1.4a75bea18964cp-3",
        "0x1.a6385d0e2e29cp-1 -0x1.443b17496240fp-3",
        "0x1.c86568840f09bp-1 0x1.104385097d980p-3",
        "0x1.cc42921ca3e68p-1 -0x1.0976c71c6d0e2p-3",
        "0x1.e7779dbc6c2c7p-1 0x1.a2d19739b4ee0p-4",
        "0x1.ea6caec3b0ebcp-1 -0x1.944f8fe8132aep-4",
        "0x1.fe328bd7a85dcp-1 0x1.1df1af4db603fp-4",
        "0x1.001939442c66ep+0 -0x1.0ec66af322c8ep-4",
        "0x1.06194475e1ea1p+0 0x1.2851922a8fe64p-5",
        "0x1.069a65b1b90a1p+0 -0x1.092fff0e94e4ep-5",
        "0x1.089d526f92a7fp+0 0x1.f675f980aaf2cp-10",
    ],
    "z12_prime": [
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0",
    ],
    "mult_1_2_3": [
        "-0x1.3333333333335p-2 0x1.99999999999a0p-3",
        "-0x1.3333333333335p-2 0x1.99999999999a0p-3",
        "-0x1.4729fde56da8fp-51 0x1.0000000000009p+0",
        "-0x1.4729fde56da8fp-51 0x1.0000000000009p+0",
        "-0x1.4729fde56da8fp-51 0x1.0000000000009p+0",
        "0x1.0000000000000p-1 0x1.07eee5ebf9316p-56",
    ],
}


def _golden_cases():
    z = ComplexPoly([0, 1])
    w = z - (-0.3 + 0.2j)
    v = z - 1j
    return {
        "T24_prime": derivative(chebyshev(24)),
        "T48_shifted": chebyshev(48) - (0.3 + 0.2j),
        "z12_prime": derivative(ComplexPoly([0] * 12 + [1])),
        "mult_1_2_3": (z - 0.5) * w * w * v * v * v,
    }


@pytest.mark.parametrize("name", sorted(ROOTS_GOLDEN))
def test_roots_golden(name):
    got = [f"{r.real.hex()} {r.imag.hex()}" for r in roots(_golden_cases()[name])]
    assert got == ROOTS_GOLDEN[name]
