import cmath
import dataclasses
import functools
import hashlib
import json
import math

import pytest

from polymoment import monodromy as monodromy_module
from polymoment import series, solver
from polymoment.errors import BlockMismatch, InvalidDivisor, MalformedInput, NotASolution
from polymoment.monodromy import cactus_from_generators, f_vectors, tree_path
from polymoment.permgroup import circulant_from_row, from_cycles, minimal_projector_rows
from polymoment.poly import ComplexPoly, affine_equivalent, chebyshev, compose
from polymoment.rational import (
    apply_permutation,
    contains,
    invariant_closure,
    span,
    vec,
    vector_to_json,
)
from polymoment.solver import (
    build_instance,
    decompose_solution,
    double_decompositions,
    exists_nonzero_solution,
    quotient_instance,
    random_reducible_problem,
    reducible_generators,
    right_factor_for,
)
from test_monodromy import GOLDEN, _golden_case

SQ3 = math.sqrt(3)
T2, T3, T6 = chebyshev(2), chebyshev(3), chebyshev(6)
SQ = ComplexPoly([0, 0, 1])


@pytest.fixture(scope="module")
def inst_t6():
    return build_instance(T6, -SQ3 / 2, SQ3 / 2)


@pytest.fixture(scope="module")
def inst_sq_sym():
    return build_instance(SQ, -1, 1)


@pytest.fixture(scope="module")
def inst_sq_asym():
    return build_instance(SQ, 0, 1)


def test_build_instance_square_symmetric(inst_sq_sym):
    assert inst_sq_sym.M == span([(1, -1)], 2)
    assert inst_sq_sym.D.divisors == (1, 2)
    assert inst_sq_sym.imprimitivity_count == 2


def test_build_instance_square_asymmetric(inst_sq_asym):
    assert inst_sq_asym.M.dim == 2


def test_instance_invariance_fixed_point(inst_t6):
    for g in inst_t6.all_generators():
        for row in inst_t6.M.basis:
            assert contains(inst_t6.M, apply_permutation(g.images, row))


def test_fig1_closure_against_orbit_oracle():
    gens = [
        from_cycles(8, [(3, 7)]),
        from_cycles(8, [(4, 7), (5, 6)]),
        from_cycles(8, [(1, 2, 3, 8), (5, 7)]),
        from_cycles(8, [(1, 2, 3, 4, 5, 6, 7, 8)]),
    ]
    cac = cactus_from_generators(8, gens[:3], (1, 2), (3, 4))
    fv = f_vectors(cac, tree_path(cac))
    from polymoment.rational import invariant_closure

    M = invariant_closure([vec(v) for v in fv], gens, 8)
    # oracle: saturate the set of vectors under single-generator moves
    seen = {tuple(vec(v)) for v in fv}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = apply_permutation(g.images, v)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert M == span(sorted(seen), 8)


def test_divisor_set_examples(inst_sq_sym, inst_t6):
    assert inst_sq_sym.S == {2}
    S = inst_t6.S
    rows = minimal_projector_rows(inst_t6.D)
    total = sum(len(span(circulant_from_row(rows[d]), 6).basis) for d in S)
    assert total == inst_t6.M.dim
    # M of the symmetric Chebyshev instance is U_2 + U_3-free: dim 2 = U_6
    assert 6 in S


def test_divisor_set_full_space(inst_sq_asym):
    assert inst_sq_asym.S == {1, 2}


# D, S, dim M and the SHA-256 of the JSON M basis, recorded at commit 35b6233,
# which built M by closing the sign vectors under the generators and found S
# by projector ranks (seed 0)
GOLDEN_M = {
    "C6x3": ([1, 6, 18], [18], 12,
             "adbaa8ed337e6dabadfbd21b490c7188861b1c7464ccac88c7536a4249883bfe"),
    "T12": ([1, 2, 3, 4, 6, 12], [12], 4,
            "b883257ebad9764ab3e0a756c712f262f89d5289f711466ebbe4f14ff6972517"),
    "T24": ([1, 2, 3, 4, 6, 8, 12, 24], [24], 8,
            "d80d5adaffbe63dd6389de1ddb1684c038fbc218fab4c71e874e6a6629ef2402"),
    "T6": ([1, 2, 3, 6], [6], 2,
           "6f07538900ff407f9bdc2ed59c55846f1a959df03a5127e500b6cb4a5dd0a5d8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_invariant_subspace(name):
    D, S, dim, sha = GOLDEN_M[name]
    inst = build_instance(*_golden_case(name))
    assert list(inst.D.divisors) == D
    assert sorted(inst.S) == S
    assert inst.M.dim == dim
    basis = json.dumps([vector_to_json(row) for row in inst.M.basis])
    assert hashlib.sha256(basis.encode()).hexdigest() == sha


def test_right_factor_edges(inst_t6):
    A, B = right_factor_for(inst_t6, inst_t6.n)
    assert B.coeffs == (0, 1)
    A, B = right_factor_for(inst_t6, 1)
    assert B.coeffs[-1] == 1 and B.coeffs[0] == 0
    assert B.degree == 6
    with pytest.raises(InvalidDivisor):
        right_factor_for(inst_t6, 4)


def test_right_factor_t6_middle(inst_t6):
    A, B = right_factor_for(inst_t6, 3)
    assert B.degree == 2
    assert affine_equivalent(T2, B) is not None
    err = max(abs(x - y) for x, y in zip(compose(A, B).coeffs, T6.coeffs))
    assert err <= 1e-8 * T6.coeff_scale()
    A2, B2 = right_factor_for(inst_t6, 2)
    assert affine_equivalent(T3, B2) is not None


def test_reducible_generators_t6(inst_t6):
    gens = reducible_generators(inst_t6)
    degs = sorted(g.W.degree for g in gens)
    assert degs == [2, 3, 6]
    assert all(g.gap <= inst_t6.tol_point() for g in gens)


def test_reducible_generators_square(inst_sq_sym, inst_sq_asym):
    gens = reducible_generators(inst_sq_sym)
    assert len(gens) == 1 and gens[0].W.degree == 2
    assert reducible_generators(inst_sq_asym) == []


def test_existence(inst_sq_sym, inst_sq_asym, inst_t6):
    assert exists_nonzero_solution(inst_sq_sym)
    assert not exists_nonzero_solution(inst_sq_asym)
    assert exists_nonzero_solution(inst_t6)


def test_double_decompositions_cases(inst_t6):
    pairs = double_decompositions(inst_t6)
    assert len(pairs) == 1
    degrees = sorted(p[1].degree for p in pairs[0])
    assert degrees == [2, 3]

    q4 = build_instance(ComplexPoly([0, 0, 0, 0, 1]), -1, 1)
    assert double_decompositions(q4) == []

    q6 = build_instance(ComplexPoly([0] * 6 + [1]), -1, 1)
    pairs6 = double_decompositions(q6)
    assert len(pairs6) == 1


def test_decompose_solution_t6(inst_t6):
    Q = 2 * T2 + 5 * T3
    summands = decompose_solution(inst_t6, Q)
    assert len(summands) == 2
    assert affine_equivalent(T2, summands[0].W) is not None
    assert affine_equivalent(T3, summands[1].W) is not None
    total = ComplexPoly()
    for s in summands:
        total = total + s.Q
    Qn = Q - Q(inst_t6.a)
    resid = max(abs(x - y) for x, y in zip(total.coeffs, Qn.coeffs))
    assert resid <= 1e-8
    for s in summands:
        assert inst_t6.verify(s.Q).verdict


def test_decompose_solution_whole_pullback(inst_sq_sym):
    summands = decompose_solution(inst_sq_sym, SQ)
    assert len(summands) == 1
    s = summands[0]
    assert s.W.coeffs == (0, 0, 1)
    assert max(abs(x - y) for x, y in zip(s.Q_tilde.coeffs, (-1, 1))) < 1e-12


def test_decompose_solution_rejects_nonsolution(inst_sq_sym):
    with pytest.raises(NotASolution):
        decompose_solution(inst_sq_sym, ComplexPoly([0, 1]))


def test_decompose_solution_recursive_path():
    # T3(a) = -T3(b) = 1/2 but T6(a) = T6(b); Q = T3^2 = (T6 + 1)/2 is R(P),
    # so the series lives on nZ and the split returns through its all-nZ
    # branch, with P itself as the one factor and no sub-instance
    a, b = math.cos(math.pi / 9), math.cos(2 * math.pi / 9)
    inst = build_instance(T6, a, b)
    Q = T3 * T3
    summands = decompose_solution(inst, Q)
    assert len(summands) == 1
    assert affine_equivalent(T6, summands[0].W) is not None
    assert summands[0].gap <= inst.tol_point()
    Qn = Q - Q(a)
    total = summands[0].Q
    assert max(abs(x - y) for x, y in zip(total.coeffs, Qn.coeffs)) <= 1e-8


def test_decompose_solution_builds_sub_instance(monkeypatch):
    # T2 separates a and b while T4 and T8 identify them: the part of Q = T4
    # extracted through the quadratic factor must recurse on the outer quartic
    a, b = math.cos(0.5), math.cos(0.5 + math.pi / 2)
    inst = build_instance(chebyshev(8), a, b)
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return quotient_instance(*args, **kwargs)

    monkeypatch.setattr(solver, "quotient_instance", spy)
    Q = chebyshev(4)
    summands = decompose_solution(inst, Q)
    assert built and all(args[0].degree == 4 for args in built)
    total = ComplexPoly()
    for s in summands:
        total = total + s.Q
    Qn = Q - Q(a)
    assert max(abs(c) for c in (total - Qn).coeffs) <= 1e-8 * Qn.coeff_scale()


def test_decompose_zero_solution(inst_sq_sym):
    assert decompose_solution(inst_sq_sym, ComplexPoly()) == []
    # constants are zero solutions after normalization
    assert decompose_solution(inst_sq_sym, ComplexPoly([4.2])) == []


def test_block_check_catches_shuffled_fiber(inst_t6):
    import dataclasses

    shuffled = list(inst_t6.md.fiber)
    shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
    bad_md = dataclasses.replace(inst_t6.md, fiber=tuple(shuffled))
    bad = dataclasses.replace(inst_t6, md=bad_md)
    with pytest.raises(BlockMismatch):
        right_factor_for(bad, 3)


def test_random_roundtrip_small():
    for seed in (0, 1):
        prob = random_reducible_problem(seed)
        inst = build_instance(prob.P, prob.a, prob.b)
        summands = decompose_solution(inst, prob.Q)
        assert summands
        Qn = prob.Q - prob.Q(prob.a)
        total = ComplexPoly()
        for s in summands:
            total = total + s.Q
        diff = total - Qn
        resid = max((abs(c) for c in diff.coeffs), default=0.0)
        assert resid <= 1e-8 * (1 + Qn.coeff_scale())


def test_large_critical_values_rescaled_expansion():
    # composite with critical values of magnitude ~47: without the range
    # rescale the deep-truncation expansion drowns its own index classes in
    # cancellation noise and the verifier reports phantom violations
    prob = random_reducible_problem(40)
    inst = build_instance(prob.P, prob.a, prob.b)
    assert max(abs(v) for v in inst.md.critical_values) > 10
    rep = inst.verify(prob.Q)
    assert rep.verdict
    summands = decompose_solution(inst, prob.Q)
    assert summands
    Qn = prob.Q - prob.Q(prob.a)
    total = ComplexPoly()
    for s in summands:
        total = total + s.Q
    diff = total - Qn
    resid = max((abs(c) for c in diff.coeffs), default=0.0)
    assert resid <= 1e-8 * (1 + Qn.coeff_scale())


def test_full_dihedral_lattice_degree_24():
    # top of the working range: every divisor of 24 is admissible and every
    # factor identifies the endpoints +-cos(pi/6)
    t24 = chebyshev(24)
    a = math.cos(math.pi / 6)
    inst = build_instance(t24, -a, a)
    assert inst.D.divisors == (1, 2, 3, 4, 6, 8, 12, 24)
    degs = sorted(g.W.degree for g in reducible_generators(inst))
    assert degs == [2, 3, 4, 6, 8, 12, 24]

    # even solution parts regroup through the quadratic factor; the odd
    # cubic part peels separately
    Q = 2 * chebyshev(2) + 3 * chebyshev(4) - 1j * chebyshev(6)
    summands = decompose_solution(inst, Q)
    assert [s.W.degree for s in summands] == [2]
    mixed = chebyshev(3) + chebyshev(4)
    summands = decompose_solution(inst, mixed)
    assert sorted(s.W.degree for s in summands) == [2, 3]
    Qn = mixed - mixed(-a)
    total = ComplexPoly()
    for s in summands:
        total = total + s.Q
    diff = total - Qn
    assert max(abs(c) for c in diff.coeffs) <= 1e-8 * Qn.coeff_scale()


# P = T_n or z^n with a solution Q = T_q or z^q, q | n, and endpoints
# a = cos(theta), b = cos(theta + 2 pi / q) (resp. e^(i theta), ...): Q
# identifies a and b, while the first factor the split extracts does not,
# so decompose_solution recurses through a sub-instance
RECURSIVE = ["T8q4", "z8q4", "T12q6", "T16q8", "z12q6", "z24q12"]


@functools.lru_cache(maxsize=None)
def _recursive_case(name):
    fam, n, q = name[0], *map(int, name[1:].split("q"))
    ta, tb = 0.5, 0.5 + 2 * math.pi / q
    if fam == "T":
        return build_instance(chebyshev(n), math.cos(ta), math.cos(tb)), chebyshev(q)
    power = ComplexPoly([0] * n + [1])
    return build_instance(power, cmath.exp(1j * ta), cmath.exp(1j * tb)), ComplexPoly([0] * q + [1])


def _missing_factors(inst):
    """(f, A, B) for every proper divisor f whose factor B separates a, b."""
    out = []
    for f in inst.D.divisors[1:-1]:
        A, B = right_factor_for(inst, f)
        if abs(B(inst.a) - B(inst.b)) > inst.tol_point():
            out.append((f, A, B))
    return out


@pytest.mark.parametrize("name", RECURSIVE)
def test_quotient_matches_rebuild(name):
    # oracle: tracking A afresh on B(a), B(b) gives the same lattice, divisor
    # set, subspace and tree endpoints as reading A's monodromy off P's
    inst, _ = _recursive_case(name)
    cases = _missing_factors(inst)
    assert cases
    for f, A, B in cases:
        sub = quotient_instance(A, B, inst)
        ref = build_instance(A, B(inst.a), B(inst.b), tol=inst.tol)
        assert sub.n == f
        assert sub.D.divisors == ref.D.divisors
        assert sub.S == ref.S
        assert sub.M.basis == ref.M.basis
        assert (sub.cactus.d_a, sub.cactus.d_b) == (ref.cactus.d_a, ref.cactus.d_b)
        assert sub.md.supplemented.count(False) == ref.md.supplemented.count(False)
        closure = invariant_closure([vec(v) for v in sub.fv], sub.all_generators(), f)
        assert sub.M == closure


def test_quotient_rejects_generator_splitting_a_block():
    inst, _ = _recursive_case("T8q4")
    (f, A, B), = _missing_factors(inst)
    # (1 2) sends 1 to class 2 but fixes 1 + f, in class 1
    gens = (from_cycles(8, [(1, 2)]),) + inst.md.generators[1:]
    bad = dataclasses.replace(inst, md=dataclasses.replace(inst.md, generators=gens))
    with pytest.raises(BlockMismatch):
        quotient_instance(A, B, bad)


@pytest.mark.parametrize("name", RECURSIVE + ["T18q9", "z16q8", "z20q5"])
def test_quotient_summands_match_rebuild(name, monkeypatch):
    # reference: the sub-instance built by tracking A again, as the solver
    # did before it read A's monodromy off P's
    inst, Q = _recursive_case(name)
    got = decompose_solution(inst, Q)
    monkeypatch.setattr(
        solver,
        "quotient_instance",
        lambda A, B, parent: build_instance(A, B(parent.a), B(parent.b), tol=parent.tol),
    )
    want = decompose_solution(inst, Q)
    assert [s.W.degree for s in got] == [s.W.degree for s in want]
    for s, r in zip(got, want):
        for x, y in ((s.Q, r.Q), (s.W, r.W), (s.A_tilde, r.A_tilde), (s.Q_tilde, r.Q_tilde)):
            assert x.degree == y.degree
            scale = max(1.0, y.coeff_scale())
            assert max(abs(u - v) for u, v in zip(x.coeffs, y.coeffs)) <= 1e-13 * scale


def test_sub_instance_tracks_nothing(monkeypatch):
    inst, Q = _recursive_case("T8q4")

    def forbidden(*args, **kwargs):
        raise AssertionError("a sub-instance tracked its monodromy or endpoints")

    monkeypatch.setattr(solver, "monodromy", forbidden)
    for name in ("monodromy", "_locate_branches", "multiplicity_at"):
        monkeypatch.setattr(monodromy_module, name, forbidden)
    (f, A, B), = _missing_factors(inst)
    assert quotient_instance(A, B, inst).n == f
    assert decompose_solution(inst, Q)


# ---------------------------------------------------------------------------
# what an instance computes once for all its queries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inst_t24():
    c = math.cos(math.pi / 6)
    return build_instance(chebyshev(24), -c, c)


def _cache_case(name, inst_t6, inst_t24):
    """An instance and its queries (Q, N): solutions of two degrees, so two
    default truncations, a non-solution c z, and an explicit N."""
    if name == "T6":
        inst, sols = inst_t6, [2 * T2 + 5 * T3, 3 * T2]
    elif name == "T24":
        inst, sols = inst_t24, [chebyshev(3) + chebyshev(4), 2 * T2 - 1j * chebyshev(6)]
    else:
        prob = random_reducible_problem(40)
        B = prob.inner
        inst, sols = build_instance(prob.P, prob.a, prob.b), [B, B * B + 2 * B]
    cz = ComplexPoly([0, 0.3 - 0.7j])
    n = inst.n
    explicit = n * (sols[0].degree + 4) + n
    return inst, [(sols[0], None), (cz, None), (sols[1], None), (sols[0], explicit)]


def _summand_data(summands):
    return [(s.Q.coeffs, s.W.coeffs, s.A_tilde.coeffs, s.Q_tilde.coeffs, s.gap) for s in summands]


@pytest.mark.parametrize("name", ["T6", "T24", "composite"])
def test_cached_queries_match_uncached(name, inst_t6, inst_t24):
    # the same instance answers every query twice over; each answer equals
    # that of a copy of the instance with nothing cached
    inst, queries = _cache_case(name, inst_t6, inst_t24)
    inst = dataclasses.replace(inst)
    for _ in range(2):
        for Q, N in queries:
            fresh = dataclasses.replace(inst)
            rep = inst.verify(Q, N=N)
            assert rep.to_json() == fresh.verify(Q, N=N).to_json()
            if rep.verdict:
                got = _summand_data(decompose_solution(inst, Q, N=N))
                assert got == _summand_data(decompose_solution(dataclasses.replace(inst), Q, N=N))
    verdicts = [inst.verify(Q, N=N).verdict for Q, N in queries]
    assert verdicts == [True, False, True, True]


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_verify_reuses_inverse_and_ray(inst_t6, monkeypatch):
    inst = dataclasses.replace(inst_t6)
    inverses = _counting(monkeypatch, series, "puiseux_inverse")
    tracks = _counting(monkeypatch, series, "continue_branches")
    Q = 2 * T2 + 5 * T3
    inst.verify(Q)
    assert (len(inverses), len(tracks)) == (1, 1)
    inst.verify(Q)
    inst.verify(3 * Q)  # same degree, so the same default N
    assert (len(inverses), len(tracks)) == (1, 1)
    inst.verify(T2)  # a new N: one more inversion, the ray is kept
    assert (len(inverses), len(tracks)) == (2, 1)
    inst.verify(Q, N=50)
    assert (len(inverses), len(tracks)) == (3, 1)


def test_instance_construction_computes_no_verifier_data(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an instance was built with verifier data")

    monkeypatch.setattr(series, "puiseux_inverse", forbidden)
    monkeypatch.setattr(series, "branch_samples", forbidden)
    inst = build_instance(chebyshev(8), math.cos(0.5), math.cos(0.5 + math.pi / 2))
    for f, A, B in _missing_factors(inst):
        quotient_instance(A, B, inst)
    assert "verifier" not in vars(inst)


def test_cached_arrays_read_only(inst_t6):
    data = inst_t6.verifier
    arrays = [data.fibers, data.fv, data.basis, data.pt, inst_t6.verify(T2 + T3).w.vals]
    assert data.fibers.shape == (8, 6) and data.fv.shape[1] == data.basis.shape[1] == 6
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = x[0]


def test_second_recursive_decompose_reuses_right_factors(monkeypatch):
    inst = build_instance(chebyshev(8), math.cos(0.5), math.cos(0.5 + math.pi / 2))
    Q = chebyshev(4)
    first = _summand_data(decompose_solution(inst, Q))
    degrees = []
    factor = solver.decompose_right
    monkeypatch.setattr(
        solver, "decompose_right", lambda P, *args: degrees.append(P.degree) or factor(P, *args),
    )
    assert _summand_data(decompose_solution(inst, Q)) == first
    # the parent's factors are kept; the sub-instance is built afresh and
    # factors its own P
    assert degrees == [4]


@pytest.mark.parametrize(
    "kw", [{"I": -1}, {"I": 2.5}, {"I": True}, {"N": 40.0}, {"N": "40"}, {"N": 10**9}],
)
def test_verify_rejects_bad_counts(inst_t6, kw, monkeypatch):
    # I = -1 raised ValueError from max() of no moments, I = 2.5 numpy's TypeError;
    # the count is refused before the instance tracks its sample ray
    monkeypatch.setattr(series, "branch_samples", pytest.fail)
    inst = dataclasses.replace(inst_t6)
    with pytest.raises(MalformedInput):
        inst.verify(T2 + T3, **kw)
    assert "verifier" not in vars(inst)


def test_truncation_above_bound_refused(inst_t24, monkeypatch):
    # the inversion takes time n N^2; no series is built for a refused N,
    # whether it is passed or is the default of a high-degree Q
    monkeypatch.setattr(series, "_series_eval_in_g", pytest.fail)
    inst = dataclasses.replace(inst_t24)
    with pytest.raises(MalformedInput, match=f"above {series.MAX_TRUNCATION}"):
        inst.verify(T2, N=series.MAX_TRUNCATION + 1)
    with pytest.raises(MalformedInput, match=f"above {series.MAX_TRUNCATION}"):
        inst.verify(T2, N=10**9)
    Q = chebyshev(24 * 14 + 2)  # default N = 24 (deg Q + 2) + 48 = 8208
    assert series.default_truncation(24, Q.degree) > series.MAX_TRUNCATION
    with pytest.raises(MalformedInput, match=f"above {series.MAX_TRUNCATION}"):
        inst.verify(Q, I=0)


@pytest.mark.parametrize("N", [3, 7])
def test_verify_rejects_short_truncation(inst_t6, N, monkeypatch):
    # N below n + deg Q - 1 = 8 is refused before the sample ray is tracked;
    # a constant Q needs no expansion, so any N passes for it
    monkeypatch.setattr(series, "branch_samples", pytest.fail)
    inst = dataclasses.replace(inst_t6)
    with pytest.raises(MalformedInput, match="n \\+ deg Q - 1 = 8"):
        inst.verify(2 * T2 + 5 * T3, N=N)
    assert "verifier" not in vars(inst)
    monkeypatch.undo()
    assert inst.verify(ComplexPoly([2.0]), N=N).verdict


# theta of the benchmark's T24q12 template: a = cos theta, b = cos(theta + pi/6)
T24Q12_THETA = 0.10770831797354113


@pytest.mark.parametrize(
    "theta, step, S",
    [(0.5, math.pi / 2, {4, 8, 12, 24}), (T24Q12_THETA, math.pi / 6, {3, 4, 6, 8, 12, 24})],
    ids=["cos_pair", "T24q12"],
)
def test_t24_noncritical_endpoints_build(theta, step, S):
    # neither endpoint is a critical point of T_24, so both have multiplicity
    # 1; derivative thresholds of 1e-8 on T_24's coefficients (near 2^22)
    # counted 2 and 4 or 5 and raised VertexMismatch
    inst = build_instance(chebyshev(24), math.cos(theta), math.cos(theta + step))
    assert (inst.cactus.d_a, inst.cactus.d_b) == (1, 1)
    assert set(inst.S) == S
