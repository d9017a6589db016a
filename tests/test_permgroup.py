import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment.errors import InvalidDivisor, NotClosed, NotFullCycle, NotTransitive
from polymoment.permgroup import (
    DivisorLattice,
    Permutation,
    SchurBasis,
    circulant_from_row,
    cyclic_convolve,
    cyclotomic_polys,
    divisor_lattice,
    divisors_of,
    from_cycles,
    full_cycle,
    full_divisor_lattice,
    identity,
    invariant_pieces,
    inverse_set_index,
    make_lattice,
    minimal_projector_rows,
    minimal_projectors,
    rational_closure,
    schur_structure_constants,
    sigma_projector,
    stabilizer_orbits,
    u_dimension,
)
from polymoment.rational import span

# stars of the degree-6 Chebyshev tree: two involutions whose product with
# the 6-cycle closes; the group is dihedral of order 12
T6_GENS = [
    from_cycles(6, [(1, 2), (3, 6), (4, 5)]),
    from_cycles(6, [(2, 6), (3, 5)]),
    full_cycle(6),
]


def enumerate_group(gens):
    seen = set()
    queue = [identity(gens[0].n)]
    while queue:
        g = queue.pop()
        if g.images in seen:
            continue
        seen.add(g.images)
        for h in gens:
            queue.append(g * h)
    return seen


def blocks_mod_d(n, d, images_set):
    """Brute-force oracle: are residue classes mod d preserved by the group?"""
    for images in images_set:
        g = Permutation(images)
        for r in range(d):
            cls = {g(i) % d for i in range(1, n + 1) if i % d == r}
            if len(cls) != 1:
                return False
    return True


def test_permutation_basics():
    g = from_cycles(4, [(1, 2, 3)])
    assert g(1) == 2 and g(4) == 4
    assert (g * g.inverse()).is_identity()
    h = full_cycle(4)
    # right action: first g then h
    assert (g * h)(1) == h(g(1))
    assert g.order() == 3
    assert full_cycle(5).cycles() == [(1, 2, 3, 4, 5)]


def test_permutation_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_stabilizer_orbits_regular():
    basis = stabilizer_orbits([full_cycle(4)], 1)
    assert basis.basic_sets == tuple(frozenset({e}) for e in range(4))


def test_stabilizer_orbits_s3():
    gens = [from_cycles(3, [(1, 2, 3)]), from_cycles(3, [(1, 2)])]
    basis = stabilizer_orbits(gens, 1)
    assert basis.basic_sets == (frozenset({0}), frozenset({1, 2}))


def test_stabilizer_orbits_t6_against_enumeration():
    basis = stabilizer_orbits(T6_GENS, 1)
    group = enumerate_group(T6_GENS)
    assert len(group) == 12
    stab = [Permutation(im) for im in group if im[0] == 1]
    orbits = set()
    for i in range(1, 7):
        orbit = frozenset(g(i) - 1 for g in stab)
        orbits.add(orbit)
    assert set(basis.basic_sets) == orbits
    assert set(map(tuple, map(sorted, basis.basic_sets))) == {
        (0,),
        (1, 5),
        (2, 4),
        (3,),
    }


def test_stabilizer_orbits_not_transitive():
    with pytest.raises(NotTransitive):
        stabilizer_orbits([from_cycles(4, [(1, 2)])], 1)


def test_divisor_lattice_cyclic():
    lat = divisor_lattice([full_cycle(6)], 6)
    assert lat.divisors == (1, 2, 3, 6)
    assert lat.covers[6] == (2, 3)
    assert lat.covers[2] == (1,)
    assert lat.covers[3] == (1,)


def test_divisor_lattice_symmetric():
    gens = [full_cycle(4), from_cycles(4, [(1, 2)])]
    lat = divisor_lattice(gens, 4)
    assert lat.divisors == (1, 4)


def test_divisor_lattice_t6_vs_bruteforce():
    lat = divisor_lattice(T6_GENS, 6)
    assert lat.divisors == (1, 2, 3, 6)
    group = enumerate_group(T6_GENS)
    for d in (1, 2, 3, 6):
        assert blocks_mod_d(6, d, group)
    # no other divisors of 6 exist, but verify the oracle agrees pointwise
    for d in (1, 2, 3, 6):
        assert (d in lat.divisors) == blocks_mod_d(6, d, group)


def test_divisor_lattice_requires_cycle():
    with pytest.raises(NotFullCycle):
        divisor_lattice([from_cycles(4, [(1, 2)])], 4)


def test_lattice_validation():
    with pytest.raises(InvalidDivisor):
        DivisorLattice(6, (1, 2, 3), {})  # missing n
    with pytest.raises(InvalidDivisor):
        make_lattice(12, [1, 4, 6, 12])  # gcd(4,6)=2 missing


def test_sigma_projector_small():
    assert sigma_projector(2, 1) == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    eye = sigma_projector(4, 4)
    assert all(eye[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))
    half = sigma_projector(4, 2)
    assert all(
        half[i][j] == (Fraction(1, 2) if (i - j) % 2 == 0 else 0)
        for i in range(4)
        for j in range(4)
    )
    with pytest.raises(InvalidDivisor):
        sigma_projector(4, 3)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def test_minimal_projectors_n4_direct():
    lat = full_divisor_lattice(4)
    pis = minimal_projectors(lat)
    s1, s2 = sigma_projector(4, 1), sigma_projector(4, 2)
    eye = sigma_projector(4, 4)
    assert pis[1] == s1
    assert pis[2] == tuple(
        tuple(s2[i][j] - s1[i][j] for j in range(4)) for i in range(4)
    )
    assert pis[4] == tuple(
        tuple(eye[i][j] - s2[i][j] for j in range(4)) for i in range(4)
    )
    total = tuple(
        tuple(sum(pis[d][i][j] for d in (1, 2, 4)) for j in range(4)) for i in range(4)
    )
    assert total == eye


def test_minimal_projectors_primitive_case():
    lat = make_lattice(5, [1, 5])
    pis = minimal_projectors(lat)
    assert all(x == Fraction(1, 5) for row in pis[1] for x in row)
    assert all(
        pis[5][i][j] == (1 if i == j else 0) - Fraction(1, 5)
        for i in range(5)
        for j in range(5)
    )


def test_minimal_projector_ranks_n6():
    lat = full_divisor_lattice(6)
    rows = minimal_projector_rows(lat)
    ranks = {d: 6 * rows[d][0] for d in lat.divisors}  # trace of a circulant
    assert ranks == {1: 1, 2: 1, 3: 2, 6: 2}
    assert sum(ranks.values()) == 6


@pytest.mark.parametrize("n", [4, 6, 12, 30])
def test_projector_algebra_exact(n):
    lat = full_divisor_lattice(n)
    rows = minimal_projector_rows(lat)
    eye = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    total = [Fraction(0)] * n
    for d, r in rows.items():
        assert cyclic_convolve(r, r) == r
        assert n * r[0] == u_dimension(lat, d)
        total = [x + y for x, y in zip(total, r)]
    assert tuple(total) == eye
    ds = lat.divisors
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            assert all(x == 0 for x in cyclic_convolve(rows[ds[i]], rows[ds[j]]))


def test_projectors_commute_with_generators():
    lat = divisor_lattice(T6_GENS, 6)
    pis = minimal_projectors(lat)
    for g in T6_GENS:
        # permutation matrix P with P[i][j] = 1 iff i = j^g (1-based)
        P = tuple(
            tuple(1 if i + 1 == g(j + 1) else 0 for j in range(6)) for i in range(6)
        )
        for d in lat.divisors:
            assert mat_mul(P, pis[d]) == mat_mul(pis[d], P)


def test_structure_constants_cyclic():
    basis = stabilizer_orbits([full_cycle(4)], 1)
    table = schur_structure_constants(basis)
    # regular representation: T_i T_j = T_{i+j mod 4}
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert table[i][j][k] == (1 if (i + j) % 4 == k else 0)


def test_structure_constants_hand_case():
    basis = SchurBasis(3, (frozenset({0}), frozenset({1, 2})))
    table = schur_structure_constants(basis)
    # {1,2}*{1,2} = 2e + {1,2} by hand convolution mod 3
    assert table[1][1][0] == 2
    assert table[1][1][1] == 1
    for j in range(2):
        assert table[0][j] == [1 if k == j else 0 for k in range(2)]


def test_structure_constants_not_closed():
    bad = SchurBasis(4, (frozenset({0}), frozenset({1}), frozenset({2, 3})))
    with pytest.raises(NotClosed):
        schur_structure_constants(bad)


def test_structure_constants_group_cases_nonnegative_integers():
    for gens in ([full_cycle(8)], T6_GENS, [full_cycle(4), from_cycles(4, [(1, 2)])]):
        basis = stabilizer_orbits(gens, 1)
        table = schur_structure_constants(basis)
        assert all(
            isinstance(x, int) and x >= 0 for bi in table for bj in bi for x in bj
        )
        for i in range(len(basis.basic_sets)):
            assert inverse_set_index(basis, i) is not None


def test_rational_closure_examples():
    # cyclic: everything is rational
    basis = stabilizer_orbits([full_cycle(6)], 1)
    assert rational_closure(basis).divisors == (1, 2, 3, 6)
    # symmetric on 4 points: dual of {1, 4}
    basis = stabilizer_orbits([full_cycle(4), from_cycles(4, [(1, 2)])], 1)
    assert rational_closure(basis).divisors == (1, 4)
    # dihedral basis {0},{1,5},{2,4},{3}: brute-check which subgroup sums split
    basis = stabilizer_orbits(T6_GENS, 1)
    got = rational_closure(basis)
    sets = [set(t) for t in basis.basic_sets]
    for d in (1, 2, 3, 6):
        members = set(range(0, 6, 6 // d))
        is_union = all(
            (s <= members) or not (s & members) for s in sets
        )
        assert (d in got.divisors) == is_union
    assert got.divisors == (1, 2, 3, 6)


def test_duality_on_corpus():
    corpus = [
        ([full_cycle(6)], 6),
        ([full_cycle(12)], 12),
        (T6_GENS, 6),
        ([full_cycle(4), from_cycles(4, [(1, 2)])], 4),
        ([full_cycle(4), from_cycles(4, [(1, 3)])], 4),
    ]
    for gens, n in corpus:
        D_G = divisor_lattice(gens, n, assume_full_cycle=True)
        D_A = rational_closure(stabilizer_orbits(gens, 1))
        assert tuple(sorted(n // d for d in D_A.divisors)) == D_G.divisors


def test_projector_images_inside_periodic_spaces():
    from polymoment.rational import contains, span

    def periodic(n, d):
        rows = []
        for r in range(d):
            v = [0] * n
            for i in range(r, n, d):
                v[i] = 1
            rows.append(v)
        return span(rows, n)

    for lat in (full_divisor_lattice(12), divisor_lattice(T6_GENS, 6)):
        n = lat.n
        pis = minimal_projectors(lat)
        for d in lat.divisors:
            img = span([row for row in pis[d] if any(row)], n)
            assert contains(periodic(n, d), img)
            for f in lat.covers[d]:
                vf = periodic(n, f)
                for u in img.basis:
                    for v in vf.basis:
                        assert sum(a * b for a, b in zip(u, v)) == 0


def test_stabilizer_orbits_nonstandard_point():
    # centering at another point of the dihedral action gives the same
    # exponent partition (conjugate by a power of the cycle)
    b1 = stabilizer_orbits(T6_GENS, 1)
    b3 = stabilizer_orbits(T6_GENS, 3)
    assert b1.basic_sets == b3.basic_sets


def test_schur_basis_rejects_overlap():
    with pytest.raises(NotClosed):
        SchurBasis(3, (frozenset({0}), frozenset({1, 2}), frozenset({2})))


# ---------------------------------------------------------------------------
# S and M from the cyclotomic factors of x^n - 1
# ---------------------------------------------------------------------------


@st.composite
def lattices_and_sign_vectors(draw):
    """A random gcd/lcm-closed divisor set of n <= 48 holding 1 and n, and up
    to four vectors in {-1, 0, 1}^n."""
    n = draw(st.integers(1, 48))
    ds = {1, n} | set(draw(st.lists(st.sampled_from(divisors_of(n)), max_size=6)))
    while True:
        closed = ds | {f(a, b) for a in ds for b in ds for f in (math.gcd, math.lcm)}
        if closed == ds:
            break
        ds = closed
    vectors = draw(st.lists(st.tuples(*[st.sampled_from((-1, 0, 1))] * n), max_size=4))
    return make_lattice(n, ds), vectors


@settings(max_examples=60, deadline=None)
@given(lattices_and_sign_vectors())
def test_cyclotomic_pieces_match_projectors(case):
    # oracle: S by projecting each vector on every U_d, and M as the RREF
    # span of the shifts of the summed projector row
    lat, vectors = case
    n = lat.n
    rows = minimal_projector_rows(lat)
    S = frozenset(
        d for d in lat.divisors if any(any(cyclic_convolve(rows[d], v)) for v in vectors)
    )
    rho = [sum(col, Fraction(0)) for col in zip(*(rows[d] for d in S))] or [Fraction(0)] * n
    assert invariant_pieces(lat, vectors) == (S, span(circulant_from_row(rho), n).basis)


def test_cyclotomic_polys_multiply_to_x_m_minus_1():
    for m in range(1, 97):
        prod = [1]
        for phi in cyclotomic_polys(m).values():
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        assert prod == [-1] + [0] * (m - 1) + [1], m
