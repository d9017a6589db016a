import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment import series
from polymoment.errors import (
    DegenerateInput,
    InvalidDivisor,
    MalformedInput,
    NotNormalizable,
    RecoveryFailure,
    TruncationTooShort,
)
from polymoment.monodromy import continue_branches, monodromy
from polymoment.poly import ComplexPoly, chebyshev, segment_chebyshev
from polymoment.series import (
    brc_elements,
    default_truncation,
    extract_psi,
    h_series,
    puiseux_inverse,
    q_of_inverse,
    quadrature_moments,
    recover_polynomial,
    verify_vanishing,
)
from polymoment.solver import build_instance

SQ3 = math.sqrt(3)
T2, T3, T6 = chebyshev(2), chebyshev(3), chebyshev(6)


def test_inverse_of_power_is_exact():
    for n in (2, 5, 9):
        w = puiseux_inverse(ComplexPoly([0] * n + [1]), 30)
        assert abs(w.coeff(-1) - 1) < 1e-14
        assert all(abs(w.coeff(k)) < 1e-14 for k in range(0, 30))


def test_inverse_of_shifted_square_binomial_oracle():
    # P = z^2 + c: w = u * sqrt(1 - c/u^2) with binomial coefficients
    c = 0.3 - 0.2j
    w = puiseux_inverse(ComplexPoly([c, 0, 1]), 16)
    # sqrt(1 + t) = sum binom(1/2, j) t^j; compare a few orders
    half_binom = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
    for j, hb in enumerate(half_binom):
        assert abs(w.coeff(2 * j - 1) - hb * (-c) ** j) < 1e-12
        if j > 0:
            assert abs(w.coeff(2 * j - 2)) < 1e-13


def test_inverse_residual_contract_random():
    rng = np.random.RandomState(2)
    for _ in range(6):
        deg = rng.randint(2, 13)
        cs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * 0.7
        cs[deg] = 1.0
        P = ComplexPoly(cs.tolist())
        w = puiseux_inverse(P, 60)  # residual enforced at 1e-10 internally
        assert w.trunc == 60


def test_truncation_guard():
    with pytest.raises(TruncationTooShort):
        puiseux_inverse(ComplexPoly([0, 0, 0, 1]), 2)
    w = puiseux_inverse(ComplexPoly([0, 0, 0, 1]), 3)
    with pytest.raises(TruncationTooShort):
        q_of_inverse(ComplexPoly([0, 1, 1]), w)


def test_q_of_inverse_identity_cases():
    P = ComplexPoly([0.3, -1, 0, 1])
    w = puiseux_inverse(P, 40)
    s = q_of_inverse(ComplexPoly([0, 1]), w)
    assert abs(s.coeff(-1) - w.coeff(-1)) < 1e-14

    # Q = P gives back z: the series has s_{-n} = 1 and nothing else
    s = q_of_inverse(P, w)
    assert abs(s.coeff(-3) - 1) < 1e-11
    assert all(abs(v) < 1e-10 for k, v in s.coeffs.items() if k != -3)


def test_q_of_inverse_block_support():
    w = puiseux_inverse(T6, default_truncation(6, 2))
    s = q_of_inverse(T2, w)
    live = s.support()
    assert live and all(k % 2 == 0 for k in live)
    s3 = q_of_inverse(T3, w)
    live3 = s3.support()
    assert live3 and all(k % 3 == 0 for k in live3)


def test_extract_psi_rules():
    w = puiseux_inverse(T6, 36)
    s = q_of_inverse(T2 + T3, w)
    psi = extract_psi(s, 3)
    assert all(k % 2 == 0 for k in psi.support())
    again = extract_psi(psi, 3)
    assert np.allclose(again.vals, psi.vals)
    s2 = q_of_inverse(T2, w)
    empty = extract_psi(s2, 2)
    # T2 lives on indices = +-2 mod 6; the f=2 class keeps multiples of 3,
    # so nothing survives at the scale of the original series
    assert empty.support(ref_scale=s2.scale()) == []
    with pytest.raises(InvalidDivisor):
        extract_psi(s, 6)
    with pytest.raises(InvalidDivisor):
        extract_psi(s, 4)


def test_recover_polynomial_fixed_point():
    P = ComplexPoly([0.1j, -0.5, 0.2, 1])
    w = puiseux_inverse(P, 40)
    s = q_of_inverse(P, w)
    got = recover_polynomial(s, w)
    err = max(abs(x - y) for x, y in zip(got.coeffs, P.coeffs))
    assert err < 1e-9
    zero = type(s)(n=s.n, kmin=s.kmin, vals=s.vals * 0, trunc=s.trunc)
    assert recover_polynomial(zero, w).is_zero()


def test_recover_t2_part_of_t6_solution():
    w = puiseux_inverse(T6, default_truncation(6, 3))
    s = q_of_inverse(T2 + T3, w)
    psi = extract_psi(s, 3)
    got = recover_polynomial(psi, w)
    err = max(abs(x - y) for x, y in zip(got.coeffs, T2.coeffs))
    assert err < 1e-8


def test_recover_failure_on_wrong_class():
    # a full generic series does not descend through any proper class
    P = ComplexPoly([0.4, 1.2, -0.3, 0, 1])
    w = puiseux_inverse(P, 50)
    s = q_of_inverse(ComplexPoly([0, 0.7, 1]), w)
    psi = extract_psi(s, 2)
    if psi.support():
        with pytest.raises(RecoveryFailure):
            recover_polynomial(psi, w)


def test_quadrature_symmetry_zero():
    sq = ComplexPoly([0, 0, 1])
    ms = quadrature_moments(sq, ComplexPoly([0, 0, 0.5]), -1, 1, 10)
    assert max(abs(m) for m in ms) < 1e-12


def test_quadrature_nonzero_control():
    sq = ComplexPoly([0, 0, 1])
    ms = quadrature_moments(sq, ComplexPoly([0, 1]), -1, 1, 5)
    assert abs(ms[0] - 2) < 1e-12


def test_quadrature_t6_solution():
    Q = T2 + T3
    ms = quadrature_moments(T6, Q, -SQ3 / 2, SQ3 / 2, 25)
    assert max(abs(m) for m in ms) <= 1e-10


# Fraction reference for the segment conversion: Gaussian rationals as
# (re, im) pairs, the substitution z = m + h x by Horner in monomials, then
# x^k = 2^(1-k) sum_j binom(k, j) T_(k-2j), with the T_0 term halved


def _fmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _fadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _fraction_segment_chebyshev(p, a, b):
    A, B = (Fraction(a.real), Fraction(a.imag)), (Fraction(b.real), Fraction(b.imag))
    m = ((A[0] + B[0]) / 2, (A[1] + B[1]) / 2)
    h = ((B[0] - A[0]) / 2, (B[1] - A[1]) / 2)
    zero = (Fraction(0), Fraction(0))
    cs = [(Fraction(c.real), Fraction(c.imag)) for c in p.coeffs]
    mono = [cs[-1]]
    for c in reversed(cs[:-1]):
        out = [zero] * (len(mono) + 1)
        for k, v in enumerate(mono):
            out[k] = _fadd(out[k], _fmul(v, m))
            out[k + 1] = _fadd(out[k + 1], _fmul(v, h))
        out[0] = _fadd(out[0], c)
        mono = out
    cheb = [zero] * len(mono)
    for k, v in enumerate(mono):
        for j in range(k // 2 + 1):
            f = Fraction(2 * math.comb(k, j), 2**k) / (2 if k == 2 * j else 1)
            cheb[k - 2 * j] = _fadd(cheb[k - 2 * j], (v[0] * f, v[1] * f))
    return [complex(float(re), float(im)) for re, im in cheb]


# every float is m * 2^e; these cover the exponents of typical inputs, with
# endpoints of modulus below 12 so that p stays in range on the segment
_mantissa = st.integers(-(2**53), 2**53)
_cplx = st.builds(complex, *[st.builds(math.ldexp, _mantissa, st.integers(-80, 4))] * 2)
_end = st.builds(complex, *[st.builds(math.ldexp, _mantissa, st.integers(-90, -50))] * 2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 48).flatmap(lambda n: st.lists(_cplx, min_size=n + 1, max_size=n + 1)),
    _end,
    _end,
)
def test_segment_chebyshev_matches_fraction_reference(coeffs, a, b):
    p = ComplexPoly(coeffs)
    got = [complex(c) for c in segment_chebyshev(p, a, b)]
    want = _fraction_segment_chebyshev(p, a, b) if not p.is_zero() else [0j]
    assert got == want


def test_segment_chebyshev_out_of_range():
    # z^37 on [0, 2.2e8 i] is h^37 (1 + x)^37 with h = 1.1e8 i, whose value at
    # x = 1 is about 1e309: a typed error, not an OverflowError from rounding
    with pytest.raises(NotNormalizable):
        segment_chebyshev(ComplexPoly([0] * 37 + [1j]), 0, 224561568j)
    with pytest.raises(DegenerateInput):
        segment_chebyshev(ComplexPoly([1, math.inf]), -1, 1)


def _fraction_moment(P, Q, a, b, i):
    """integral over [a, b] of P^i Q' dz, exactly, from the antiderivative."""

    def mul(x, y):
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for j, u in enumerate(x):
            for k, v in enumerate(y):
                out[j + k] += u * v
        return out

    f = [k * c for k, c in enumerate(Q)][1:] or [Fraction(0)]
    for _ in range(i):
        f = mul(f, P)
    return sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k, c in enumerate(f))


@pytest.mark.parametrize(
    "P, Q, I",
    [
        (
            [Fraction(1, 8), Fraction(-1, 4), 0, Fraction(3, 2)],
            [0, Fraction(-1, 2), Fraction(5, 4)],
            8,
        ),
        ([0, 1, Fraction(-3, 4)], [Fraction(7, 16), 0, Fraction(1, 2), Fraction(-9, 8)], 9),
    ],
)
def test_quadrature_exact_rule_matches_fraction_moments(monkeypatch, P, Q, I):
    a, b = Fraction(-3, 4), Fraction(5, 8)
    counts = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(count):
        counts.append(count)
        return leggauss(count)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    series._gauss_rule.cache_clear()
    Pc, Qc = ComplexPoly([float(c) for c in P]), ComplexPoly([float(c) for c in Q])
    ms, scales = quadrature_moments(Pc, Qc, float(a), float(b), I, with_scales=True)
    n, dq = len(P) - 1, len(Q) - 1
    assert counts == [math.ceil((I * n + dq) / 2)]
    for i, (m, s) in enumerate(zip(ms, scales)):
        assert abs(m - float(_fraction_moment(P, Q, a, b, i))) <= 1e-14 * s
    # the rule is computed once per node count, and handed out read-only
    quadrature_moments(Pc, Qc, float(a), float(b), I)
    assert len(counts) == 1
    x, wt = series._gauss_rule(counts[0])
    assert not x.flags.writeable and not wt.flags.writeable


def test_gauss_rule_above_node_bound_refused(monkeypatch):
    # moments: 2000 on T_24 asks for a 24001-node rule, whose eigen-solve
    # would hold a dense matrix of several GB; it is refused before any
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", pytest.fail)
    series._gauss_rule.cache_clear()
    P, Q = chebyshev(24), chebyshev(2)
    with pytest.raises(MalformedInput, match="24001-node"):
        quadrature_moments(P, Q, -SQ3 / 2, SQ3 / 2, 2000)
    # the H coefficients integrate through the same loop and the same bound
    with pytest.raises(MalformedInput, match=f"above {series.MAX_GAUSS_NODES}"):
        h_series(P, Q, -SQ3 / 2, SQ3 / 2, 2000)


@pytest.mark.parametrize("n", [24, 36, 48])
def test_moment_residual_at_rounding_level(n):
    # evaluated in monomials, where sum |c_j||z|^j reaches 1.1e16 for T_48
    # while |T_48| <= 1, the residuals were 1.1e-10, 5.6e-7 and 2.4e-2
    P, Q = chebyshev(n), chebyshev(n // 2)
    ms, scales = quadrature_moments(P, Q, -SQ3 / 2, SQ3 / 2, 25, with_scales=True)
    assert max(abs(m) / (s + 1.0) for m, s in zip(ms, scales)) <= 1e-14


def test_t24_solutions_moment_residual():
    inst = build_instance(chebyshev(24), -SQ3 / 2, SQ3 / 2)
    rng = np.random.RandomState(24)
    for _ in range(20):
        c2, c3 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rep = inst.verify(c2 * T2 + c3 * T3)
        assert rep.verdict
        assert rep.moment_residual <= 1e-12


def test_h_series_examples_and_identity():
    sq = ComplexPoly([0, 0, 1])
    Q = ComplexPoly([0, 0, 0.5])
    hs = h_series(sq, Q, -1, 1, 8)
    assert max(abs(h) for h in hs) < 1e-12

    # integration by parts: m_i = P^i(b) Qn(b) - i * h_{i-1} when Qn(a) = 0
    P = ComplexPoly([0.2, 1, 0.5])
    Q = ComplexPoly([1, 2, 3])
    a, b = -0.3, 0.8
    Qn = Q - Q(a)
    ms = quadrature_moments(P, Q, a, b, 6)
    hs = h_series(P, Q, a, b, 6)
    for i in range(1, 7):
        lhs = ms[i]
        rhs = P(b) ** i * Qn(b) - i * hs[i - 1]
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))

    # non-solution control: h_0 = integral of Qn dz is generally nonzero
    hs = h_series(ComplexPoly([0, 0, 1]), ComplexPoly([0, 0, 1, 1]), 0, 1, 2)
    assert abs(hs[0]) > 1e-3


def test_verify_vanishing_t6_true():
    inst = build_instance(T6, -SQ3 / 2, SQ3 / 2)
    rep = inst.verify(T2 + T3)
    assert rep.verdict
    assert rep.moment_residual <= 1e-9
    assert rep.relation_residual <= 1e-9
    assert not rep.puiseux_violations
    assert all(r <= 1e-9 for r in rep.phi_residuals.values())


def test_verify_vanishing_false_flags_first_moment():
    sq = ComplexPoly([0, 0, 1])
    inst = build_instance(sq, -1, 1)
    rep = inst.verify(ComplexPoly([0, 1]))
    assert not rep.verdict
    assert abs(rep.moments[0] - 2) < 1e-12
    assert rep.puiseux_violations


def test_verify_vanishing_zero_trivial():
    sq = ComplexPoly([0, 0, 1])
    inst = build_instance(sq, -1, 1)
    rep = inst.verify(ComplexPoly())
    assert rep.verdict


def test_brc_elements_shapes():
    sq = ComplexPoly([0, 0, 1])
    inst = build_instance(sq, -1, 1)
    vecs = brc_elements(inst.cactus)
    assert len(vecs) == 1
    assert sorted(vecs[0]) == [-1, 1]

    inst2 = build_instance(sq, 0, 1)
    vecs2 = brc_elements(inst2.cactus)
    assert len(vecs2) == 2
    from fractions import Fraction

    assert sorted(vecs2[0]) == [Fraction(1, 2), Fraction(1, 2)]
    assert sorted(vecs2[1]) == [0, 1]

    inst6 = build_instance(T6, -SQ3 / 2, SQ3 / 2)
    v = brc_elements(inst6.cactus)[0]
    assert sorted(v) == [
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 2),
    ]


def branch_consistency_error(P, a, b):
    """Max mismatch between continued branches and twisted partial sums."""
    md = monodromy(P, a, b)
    n = P.degree
    scale = max(1.0, P.coeff_scale())
    z0_mag = (10.0 * scale) ** n
    ctr = sum(md.critical_values) / len(md.critical_values)
    u_dir = (md.base_point - ctr) / abs(md.base_point - ctr)
    z0 = ctr + z0_mag * u_dir
    end = continue_branches(P, [md.base_point, z0], np.array(md.fiber))[-1]
    w = puiseux_inverse(P, max(60, 3 * n))
    eps = np.exp(2j * np.pi / n)
    cands = [
        abs(z0) ** (1.0 / n) * np.exp(1j * (np.angle(z0) + 2 * np.pi * j) / n)
        for j in range(n)
    ]
    u0 = min(cands, key=lambda u: abs(w.eval(u) - end[0]))
    return max(
        abs(w.eval(u0 * eps ** (-(i - 1))) - end[i - 1]) / (1 + abs(end[i - 1]))
        for i in range(1, n + 1)
    )


def test_branch_consistency_far_field():
    assert branch_consistency_error(T6, -SQ3 / 2, SQ3 / 2) < 1e-6
    assert branch_consistency_error(ComplexPoly([0.2 + 0.1j, -0.4, 0.3j, 1]), 0.1, 0.9) < 1e-6


def _support_loop(s, tol, ref_scale):
    """PuiseuxSeries.support as a loop over the entries: the reference."""
    cut = tol * (ref_scale if ref_scale is not None else s.scale())
    return [s.kmin + j for j, v in enumerate(s.vals) if s.kmin + j <= s.trunc and abs(v) > cut]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_cplx | st.just(0j), min_size=1, max_size=40),
    st.integers(-30, 5),
    st.integers(-5, 45),
    st.sampled_from([1.0, 0.5, 1e-9, 1e-13, 0.0]),
    st.none() | st.integers(0, 39),
)
def test_support_matches_loop(vals, kmin, span, tol, ref_at):
    # ref_at picks an entry whose modulus is the scale, so some entries sit
    # exactly at the cut: np.abs of a complex array can round those up
    vals = np.array(vals, dtype=complex)
    s = series.PuiseuxSeries(n=6, kmin=kmin, vals=vals, trunc=kmin + span)
    ref = None if ref_at is None else abs(vals[ref_at % len(vals)])
    got = s.support(tol, ref_scale=ref)
    assert got == _support_loop(s, tol, ref)
    assert all(type(k) is int for k in got)


def test_extract_psi_synthetic_support():
    from polymoment.series import PuiseuxSeries

    vals = np.zeros(10, dtype=complex)
    s = PuiseuxSeries(n=6, kmin=-6, vals=vals.copy(), trunc=3)
    for k in (-6, -4, -3, -1):
        s.vals[k - s.kmin] = 1.0
    kept = extract_psi(s, 3)
    assert sorted(kept.support()) == [-6, -4]
    none = extract_psi(
        PuiseuxSeries(n=6, kmin=-1, vals=np.array([1.0 + 0j]), trunc=3), 2
    )
    assert none.support(ref_scale=1.0) == []


def test_extract_psi_matches_index_loop():
    # the loop extract_psi replaced: zero every index k != 0 mod n/f, keep the rest
    s = q_of_inverse(T2 + T3, puiseux_inverse(T6, 36))
    for f in (1, 2, 3):
        ref = s.vals.copy()
        for j in range(len(ref)):
            if (s.kmin + j) % (6 // f) != 0:
                ref[j] = 0.0
        got = extract_psi(s, f)
        assert got.vals.dtype == ref.dtype
        assert got.vals.tobytes() == ref.tobytes()
        assert (got.kmin, got.trunc) == (s.kmin, s.trunc)


def test_vanishing_verdict_loop():
    # the moment view, the H-coefficient view and the branch-relation view
    # must agree on both a solution and a non-solution
    inst = build_instance(T6, -SQ3 / 2, SQ3 / 2)
    Q = 3 * T2 - 2j * T3
    ms = quadrature_moments(T6, Q, inst.a, inst.b, 20)
    hs = h_series(T6, Q, inst.a, inst.b, 20)
    rep = inst.verify(Q)
    assert max(abs(m) for m in ms) < 1e-9
    assert max(abs(h) for h in hs) < 1e-9
    assert rep.verdict

    sq = ComplexPoly([0, 0, 1])
    inst2 = build_instance(sq, -1, 1)
    Qbad = ComplexPoly([0, 1])
    ms = quadrature_moments(sq, Qbad, -1, 1, 5)
    hs = h_series(sq, Qbad, -1, 1, 5)
    rep = inst2.verify(Qbad)
    assert max(abs(m) for m in ms) > 1e-3
    assert max(abs(h) for h in hs) > 1e-3
    assert not rep.verdict
