"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines
and timings.  Shared fixtures: the randomized composite corpus (criteria 6
and 9) and the end-to-end Chebyshev decomposition (criteria 7 and 10).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from polymoment.errors import NotASolution
from polymoment.monodromy import (
    cactus_from_generators,
    circular_separation,
    continue_branches,
    f_vectors,
    monodromy,
    tree_path,
)
from polymoment.permgroup import (
    Permutation,
    circulant_from_row,
    cyclic_convolve,
    divisor_lattice,
    divisors_of,
    from_cycles,
    full_cycle,
    full_divisor_lattice,
    identity,
    make_lattice,
    minimal_projector_rows,
    piece_of,
    rational_closure,
    schur_structure_constants,
    stabilizer_orbits,
    u_dimension,
)
from polymoment.poly import ComplexPoly, affine_equivalent, chebyshev, compose, decompose_right
from polymoment.rational import contains, invariant_closure, span
from polymoment.series import brc_elements, puiseux_inverse, q_of_inverse, quadrature_moments
from polymoment.solver import (
    build_instance,
    decompose_solution,
    exists_nonzero_solution,
    random_reducible_problem,
    reducible_generators,
)

SQ3 = math.sqrt(3)
T2, T3, T6 = chebyshev(2), chebyshev(3), chebyshev(6)


@contextmanager
def criterion(num, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL - {label}")
        raise
    print(f"CRITERION {num}: PASS - {label} ({time.monotonic() - start:.2f}s)")


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """>= 20 randomized instances P = A(B(z)) with B(a) = B(b)."""
    out = []
    for seed in range(20):
        prob = random_reducible_problem(seed)
        inst = build_instance(prob.P, prob.a, prob.b)
        out.append((prob, inst))
    return out


@pytest.fixture(scope="module")
def t6_solution():
    rng = np.random.RandomState(77)
    c1 = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    c2 = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    inst = build_instance(T6, -SQ3 / 2, SQ3 / 2)
    Q = c1 * T2 + c2 * T3
    return inst, Q


def group_elements(gens, cap=200000):
    seen = set()
    queue = [identity(gens[0].n)]
    while queue:
        g = queue.pop()
        if g.images in seen:
            continue
        seen.add(g.images)
        if len(seen) > cap:
            raise RuntimeError("group too large for brute force")
        for h in gens:
            queue.append(g * h)
    return seen


def blocks_oracle(n, d, elements):
    for images in elements:
        g = Permutation(images)
        for r in range(d):
            if len({g(i) % d for i in range(1, n + 1) if i % d == r}) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_fig1_reproduction():
    with criterion(1, "reference tree: 25 vertices, 24 edges, exact sign vectors"):
        start = time.monotonic()
        gens = [
            from_cycles(8, [(3, 7)]),
            from_cycles(8, [(4, 7), (5, 6)]),
            from_cycles(8, [(1, 2, 3, 8), (5, 7)]),
        ]
        cac = cactus_from_generators(8, gens, (1, 2), (3, 4))
        assert cac.vertex_count() == 25
        assert cac.edge_count() == 24
        fv = f_vectors(cac, tree_path(cac))
        assert fv == (
            (0, -1, 1, 0, 0, 0, -1, 0),
            (0, 0, 0, -1, 0, 0, 1, 0),
            (0, 1, -1, 1, 0, 0, 0, 0),
        )
        assert time.monotonic() - start < 1.0


def test_criterion_2_monodromy_engine():
    with criterion(2, "monodromy of z^n (n<=12) and the degree-6 Chebyshev"):
        start = time.monotonic()
        for n in range(2, 13):
            zn = ComplexPoly([0] * n + [1])
            md = monodromy(zn, 0.37, 0.81)
            assert md.g_inf.images == full_cycle(n).images
            s0 = min(range(md.k), key=lambda i: abs(md.critical_values[i]))
            assert md.generators[s0].images == md.g_inf.inverse().images
            cyclic = group_elements([md.g_inf])
            lat = divisor_lattice(list(md.generators) + [md.g_inf], n)
            for d in divisors_of(n):
                assert (d in lat.divisors) == blocks_oracle(n, d, cyclic)

        md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
        assert all(g.order() == 2 for g in md.generators)
        elements = group_elements(list(md.generators) + [md.g_inf])
        assert len(elements) == 12
        lat = divisor_lattice(list(md.generators) + [md.g_inf], 6)
        assert lat.divisors == (1, 2, 3, 6)
        for d in divisors_of(6):
            assert (d in lat.divisors) == blocks_oracle(6, d, elements)
        assert time.monotonic() - start < 10.0


def _verify_projector_lattice(lat):
    n = lat.n
    rows = minimal_projector_rows(lat)
    eye = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    total = [Fraction(0)] * n
    for d, r in rows.items():
        assert cyclic_convolve(r, r) == r  # exactly idempotent
        assert n * r[0] == u_dimension(lat, d)  # rank (= trace) matches
        total = [x + y for x, y in zip(total, r)]
    assert tuple(total) == eye  # partition of the identity
    ds = list(lat.divisors)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            prod = cyclic_convolve(rows[ds[i]], rows[ds[j]])
            assert all(x == 0 for x in prod)  # pairwise orthogonal


def test_criterion_3_projector_suite(corpus):
    with criterion(3, "exact projector algebra for every n <= 60 and test lattice"):
        start = time.monotonic()
        for n in range(1, 61):
            _verify_projector_lattice(full_divisor_lattice(n))
        # computed groups
        lats = [divisor_lattice(
            [full_cycle(4), from_cycles(4, [(1, 2)])], 4
        )]
        md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
        lats.append(divisor_lattice(list(md.generators) + [md.g_inf], 6))
        for _, inst in corpus:
            lats.append(inst.D)
        # synthetic sublattices
        lats.append(make_lattice(12, [1, 2, 12]))
        lats.append(make_lattice(30, [1, 5, 30]))
        lats.append(make_lattice(60, [1, 2, 6, 60]))
        for lat in lats:
            _verify_projector_lattice(lat)
        # spot-check the materialized matrices against the circulant rows
        from polymoment.permgroup import minimal_projectors

        for lat in [full_divisor_lattice(12), lats[1]]:
            pis = minimal_projectors(lat)
            for d, mat in pis.items():
                m2 = tuple(
                    tuple(
                        sum(mat[i][k] * mat[k][j] for k in range(lat.n))
                        for j in range(lat.n)
                    )
                    for i in range(lat.n)
                )
                assert m2 == mat
        assert time.monotonic() - start < 60.0


def _group_corpus(corpus):
    groups = [
        ([full_cycle(6)], 6),
        ([full_cycle(12)], 12),
        ([full_cycle(4), from_cycles(4, [(1, 2)])], 4),
    ]
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    groups.append((list(md.generators) + [md.g_inf], 6))
    for _, inst in corpus:
        groups.append((inst.all_generators(), inst.n))
    return groups


def test_criterion_4_duality(corpus):
    with criterion(4, "divisor lattice equals the dual of the rational closure"):
        for gens, n in _group_corpus(corpus):
            D_G = divisor_lattice(gens, n, assume_full_cycle=True)
            D_A = rational_closure(stabilizer_orbits(gens, 1))
            assert tuple(sorted(n // d for d in D_A.divisors)) == D_G.divisors


def test_criterion_5_structure_constants(corpus):
    with criterion(5, "stabilizer-orbit structure constants are nonnegative integers"):
        for gens, n in _group_corpus(corpus):
            basis = stabilizer_orbits(gens, 1)
            table = schur_structure_constants(basis)
            assert all(
                isinstance(x, int) and x >= 0
                for bi in table
                for bj in bi
                for x in bj
            )


def test_criterion_6_geometry_corpus(corpus):
    with criterion(6, "subspace geometry over >= 20 randomized instances"):
        start = time.monotonic()
        assert len(corpus) >= 20
        from polymoment.series import branch_samples, sample_ray
        from polymoment.poly import eval_many

        for prob, inst in corpus:
            n = inst.n
            u_n = span(circulant_from_row(minimal_projector_rows(inst.D)[n]), n)
            assert contains(inst.M, u_n)  # exact
            # M from the divisor set equals the closure of the sign vectors
            assert inst.M == invariant_closure(inst.fv, inst.all_generators(), n)
            # the exact view-(iii) rule agrees with twist-vector orthogonality
            basis = [np.array([float(x) for x in row]) for row in inst.M.basis]
            eps = np.exp(2j * np.pi / n)
            for k in range(-2 * n, 3 * n + 5):
                wk = eps ** (np.arange(n) * k)
                twisted = any(
                    abs(np.sum(v * wk)) > 1e-9 * np.max(np.abs(v)) * n for v in basis
                )
                assert (piece_of(inst.D, k) in inst.S) == twisted
            # built with B(a) = B(b), so P(a) = P(b): a and b share a color
            assert abs(prob.P(prob.a) - prob.P(prob.b)) <= 1e-9 * (1 + prob.P.coeff_scale())
            assert inst.cactus.identifies(1)
            brc = brc_elements(inst.cactus)
            for v in brc:
                assert contains(inst.M, v)  # exact membership
            rep = inst.verify(prob.Q)
            assert rep.relation_residual <= 1e-9
            # the endpoint vectors must themselves kill the branch relation
            Qn = prob.Q - prob.Q(prob.a)
            fibers = branch_samples(prob.P, inst.md, sample_ray(inst.md))
            for v in brc:
                vf = np.array([float(x) for x in v])
                for fib in fibers:
                    qv = eval_many(Qn, fib)
                    sc = max(1.0, float(np.max(np.abs(qv))))
                    assert abs(np.sum(vf * qv)) / sc <= 1e-9
            assert circular_separation(inst.cactus.V_a, inst.cactus.V_b, n) == "disjointed"
        assert time.monotonic() - start < 120.0


def test_criterion_7_end_to_end(t6_solution):
    with criterion(7, "end-to-end decomposition of c1*T2 + c2*T3 over T6"):
        start = time.monotonic()
        inst, Q = t6_solution
        ms = quadrature_moments(inst.P, Q, inst.a, inst.b, 25)
        assert max(abs(m) for m in ms) <= 1e-9
        summands = decompose_solution(inst, Q)
        assert len(summands) == 2
        assert affine_equivalent(T2, summands[0].W) is not None
        assert affine_equivalent(T3, summands[1].W) is not None
        total = ComplexPoly()
        for s in summands:
            total = total + s.Q
        Qn = Q - Q(inst.a)
        resid = max(abs(x - y) for x, y in zip(total.coeffs, Qn.coeffs))
        assert resid <= 1e-8
        for s in summands:
            assert inst.verify(s.Q).verdict
        assert time.monotonic() - start < 30.0


def test_criterion_8_negative_controls():
    with criterion(8, "non-solutions rejected; no factors when P(a) != P(b)"):
        sq = ComplexPoly([0, 0, 1])
        inst = build_instance(sq, -1, 1)
        ms = quadrature_moments(sq, ComplexPoly([0, 1]), -1, 1, 3)
        assert abs(ms[0] - 2) <= 1e-12
        with pytest.raises(NotASolution):
            decompose_solution(inst, ComplexPoly([0, 1]))

        inst2 = build_instance(sq, 0, 1)
        assert not exists_nonzero_solution(inst2)
        assert reducible_generators(inst2) == []


def test_criterion_9_algebra_analysis_crosscheck(corpus):
    with criterion(9, "right factors exist exactly for admissible divisors"):
        from polymoment.solver import right_factor_for

        for prob, inst in corpus:
            n = inst.n
            for d in divisors_of(n):
                got = decompose_right(prob.P, n // d)
                assert (got is not None) == (d in inst.D.divisors)
            for d in inst.D.divisors:
                right_factor_for(inst, d)  # block check at 1e-8 inside


def _independent_reversion_residual(P, w):
    """Coefficients of P(w(u))/u^n - 1 recomputed with plain convolutions.

    Writing w = u*g(x), x = 1/u, the residual is sum_j p_j x^(n-j) g^j - 1;
    g^j is accumulated by explicit convolution loops, independent of the
    package's series machinery.
    """
    n = P.degree
    m = len(w.vals)
    ref = [0j] * m
    acc = [0j] * m
    acc[0] = 1.0
    for j in range(0, n + 1):
        pj = P.coeffs[j] if j < len(P.coeffs) else 0.0
        shift = n - j
        for t in range(m - shift):
            ref[t + shift] += pj * acc[t]
        if j < n:
            nxt = [0j] * m
            for s in range(m):
                if w.vals[s] == 0:
                    continue
                for t in range(m - s):
                    nxt[s + t] += w.vals[s] * acc[t]
            acc = nxt
    ref[0] -= 1.0
    return max(abs(v) for v in ref)


def test_criterion_10_puiseux_engine(t6_solution):
    with criterion(10, "series engine: residuals, far-field match, index classes"):
        rng = np.random.RandomState(4)
        for _ in range(5):
            deg = int(rng.randint(2, 13))
            cs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * 0.6
            cs[deg] = 1.0
            P = ComplexPoly(cs.tolist())
            w = puiseux_inverse(P, 60)
            resid = _independent_reversion_residual(P, w)
            gscale = float(np.max(np.abs(w.vals))) ** P.degree
            assert resid < 1e-10 * max(1.0, gscale) * (1 + P.coeff_scale())

        # far-field branch agreement for a tame cubic and the Chebyshev case
        for P, a, b in [
            (ComplexPoly([0.2 + 0.1j, -0.4, 0.3j, 1]), 0.1, 0.9),
            (T6, -SQ3 / 2, SQ3 / 2),
        ]:
            n = P.degree
            md = monodromy(P, a, b)
            scale = max(1.0, P.coeff_scale())
            ctr = sum(md.critical_values) / len(md.critical_values)
            u_dir = (md.base_point - ctr) / abs(md.base_point - ctr)
            z0 = ctr + (10.0 * scale) ** n * u_dir
            end = continue_branches(P, [md.base_point, z0], np.array(md.fiber))[-1]
            w = puiseux_inverse(P, max(60, 3 * n))
            eps = np.exp(2j * np.pi / n)
            cands = [
                abs(z0) ** (1.0 / n)
                * np.exp(1j * (np.angle(z0) + 2 * np.pi * j) / n)
                for j in range(n)
            ]
            u0 = min(cands, key=lambda u: abs(w.eval(u) - end[0]))
            for i in range(1, n + 1):
                got = w.eval_branch(i, u0)
                assert abs(got - end[i - 1]) <= 1e-6 * (1 + abs(end[i - 1]))

        # every live index of the verified solution sits in an admissible class
        inst, Q = t6_solution
        Qn = Q - Q(inst.a)
        w = puiseux_inverse(T6, 60)
        series = q_of_inverse(Qn, w)
        live = series.support()
        assert live
        proper = [f for f in inst.D.divisors if f != inst.n]
        for k in live:
            assert any(k % (inst.n // f) == 0 for f in proper)
