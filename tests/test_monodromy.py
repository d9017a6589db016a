import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymoment import monodromy as mono
from polymoment.errors import DegenerateInput, TrackingFailure, TreeViolation
from polymoment.monodromy import (
    build_cactus,
    cactus_from_generators,
    choose_basepoint,
    circular_separation,
    continue_branches,
    critical_data,
    f_vectors,
    monodromy,
    multiplicity_at,
    polish_fiber,
    tree_path,
    _lassos,
    _match_permutation,
    _min_sep,
    _poly_arrays,
    _power_sums,
)
from polymoment.permgroup import Permutation, from_cycles, full_cycle, identity
from polymoment.poly import ComplexPoly, Tolerances, chebyshev, compose, derivative, eval_many, roots
from polymoment.solver import random_reducible_problem

SQ3 = math.sqrt(3)
T6 = chebyshev(6)


def close_to(values, target, tol=1e-8):
    return any(abs(v - target) <= tol for v in values)


def test_critical_data_square():
    vals, flags, _, _ = critical_data(ComplexPoly([0, 0, 1]), 1, -1)
    assert len(vals) == 2
    assert close_to(vals, 0) and close_to(vals, 1)
    by_val = dict(zip([round(v.real) for v in vals], flags))
    assert by_val == {0: False, 1: True}


def test_critical_data_cubic():
    # critical points of z^3 - 3z at z = -1, 1 with values 2, -2
    vals, flags, _, _ = critical_data(ComplexPoly([0, -3, 0, 1]), 0, SQ3)
    assert close_to(vals, 2) and close_to(vals, -2) and close_to(vals, 0)
    # P(0) = P(sqrt 3) = 0: a single shared supplement
    assert sum(flags) == 1


def test_critical_data_t6_no_supplement():
    vals, flags, _, _ = critical_data(T6, -SQ3 / 2, SQ3 / 2)
    assert len(vals) == 2 and not any(flags)
    assert close_to(vals, 1) and close_to(vals, -1)


def test_critical_data_degenerate():
    with pytest.raises(DegenerateInput):
        critical_data(ComplexPoly([0, 0, 1]), 1, 1)
    with pytest.raises(DegenerateInput):
        critical_data(ComplexPoly([0, 1]), 0, 1)


def test_choose_basepoint_contract():
    for values in ([0, 1], [1j, -1j], [0]):
        c = choose_basepoint(values)
        diam = max(abs(u - v) for u in values for v in values)
        dmin = min(abs(c - v) for v in values)
        if diam > 0:
            assert dmin >= 0.4 * diam
        else:
            assert dmin >= 1.0


def test_monodromy_uses_the_critical_data_basepoint():
    _, _, c, _ = critical_data(T6, -SQ3 / 2, SQ3 / 2)
    assert monodromy(T6, -SQ3 / 2, SQ3 / 2).base_point == c


def test_continue_branches_returns_every_waypoint():
    sq = ComplexPoly([0, 0, 1])
    path = [1.0, 4.0, 4.0 + 4.0j, 9.0j]
    start = [1.0, -1.0]
    fibers = continue_branches(sq, path, start)
    assert len(fibers) == len(path)
    assert np.array_equal(fibers[0], start)
    for z, w in zip(path, fibers):
        assert np.allclose(w * w, z, rtol=1e-12)


def test_continue_branches_square_loop():
    sq = ComplexPoly([0, 0, 1])
    loop = [np.exp(2j * np.pi * t / 64) for t in range(65)]
    end = continue_branches(sq, loop, [1.0, -1.0])[-1]
    assert abs(end[0] + 1) < 1e-9 and abs(end[1] - 1) < 1e-9


def test_continue_branches_segment():
    sq = ComplexPoly([0, 0, 1])
    end = continue_branches(sq, [1.0, 4.0], [1.0, -1.0])[-1]
    assert abs(end[0] - 2) < 1e-9 and abs(end[1] + 2) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 7])
def test_continue_branches_power_rotation(n):
    zn = ComplexPoly([0] * n + [1])
    start = [np.exp(2j * np.pi * k / n) for k in range(n)]
    loop = [np.exp(2j * np.pi * t / 96) for t in range(97)]
    end = continue_branches(zn, loop, start)[-1]
    eps = np.exp(2j * np.pi / n)
    assert max(abs(e - s * eps) for e, s in zip(end, start)) < 1e-9


def test_continue_branches_through_critical_value_fails():
    # z^2 along [-1, 1] runs through its critical value 0, where the two
    # branches +-i sqrt(-z) collide: the step control must give up
    sq = ComplexPoly([0, 0, 1])
    with pytest.raises(TrackingFailure):
        continue_branches(sq, [-1.0, 1.0], [1j, -1j])


def test_match_permutation_ambiguous():
    start = [1.0, -1.0, 2j]
    assert _match_permutation(start, [-1.0, 2j, 1.0]).images == (2, 3, 1)
    # a branch that lands farther than sep/3 from every start value, and two
    # branches that land on the same start value
    for end in ([1.0, -0.2, 2j], [1.0, 1.0 + 1e-9, 2j]):
        with pytest.raises(TrackingFailure):
            _match_permutation(start, end)


def test_predictor_rejects_before_corrector(monkeypatch):
    # z^2 from 1 to 1000 in one piece: the first predictors move branch 1 by
    # (z - 1)/2 against a separation of 2, so every step longer than 2^-10
    # of the piece is halved before its corrector runs
    sq = ComplexPoly([0, 0, 1])
    calls = []
    real = mono._correct

    def spy(arrays, z, pred, tol_abs):
        out = real(arrays, z, pred, tol_abs)
        calls.append((z, pred, out))
        return out

    monkeypatch.setattr(mono, "_correct", spy)
    end = continue_branches(sq, [1.0, 1000.0], [1.0, -1.0])[-1]
    assert np.allclose(end, [1000**0.5, -(1000**0.5)], rtol=1e-12)
    assert calls[0][0] == 1.0 + 2.0**-10 * 999.0
    # replay the acceptance rule: every corrector call starts from a
    # predictor within 0.34 sep of the last accepted fiber
    w = np.array([1.0, -1.0], dtype=complex)
    for z, pred, (w_new, _, ok) in calls:
        sep = _min_sep(w)
        assert float(np.max(np.abs(pred - w))) <= 0.34 * sep, z
        if ok and float(np.max(np.abs(w_new - w))) <= 0.34 * sep:
            w = w_new
    assert np.array_equal(w, end)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_monodromy_powers(n):
    zn = ComplexPoly([0] * n + [1])
    md = monodromy(zn, 0.37, 0.81)
    assert md.g_inf.images == full_cycle(n).images
    s0 = min(range(md.k), key=lambda i: abs(md.critical_values[i]))
    assert md.generators[s0].images == md.g_inf.inverse().images
    for s in range(md.k):
        if s != s0:
            assert md.generators[s].is_identity()
    prod = identity(n)
    for g in md.generators:
        prod = prod * g
    assert (prod * md.g_inf).is_identity()


def test_monodromy_cubic_transpositions():
    P = ComplexPoly([0, -3, 0, 1])
    md = monodromy(P, 0.1, 0.2)
    finite = [g for g, f in zip(md.generators, md.supplemented) if not f]
    assert len(finite) == 2
    assert all(len(g.cycles(include_fixed=False)) == 1 for g in finite)
    assert all(len(g.cycles(include_fixed=False)[0]) == 2 for g in finite)
    assert len(md.g_inf.cycles()) == 1


def test_monodromy_t6_shape():
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    assert md.k == 2
    types = sorted(
        len(g.cycles(include_fixed=False)) for g in md.generators
    )
    assert types == [2, 3]  # two resp. three transpositions
    assert all(g.order() == 2 for g in md.generators)
    # fiber carries the branch values in relabeled order
    for i, w in enumerate(md.fiber, start=1):
        assert abs(T6(w) - md.base_point) < 1e-8


def test_build_cactus_square():
    sq = ComplexPoly([0, 0, 1])
    md = monodromy(sq, 1, -1)
    cac = build_cactus(md, sq, 1, -1)
    assert cac.d_a == cac.d_b == 1
    assert cac.V_a != cac.V_b
    assert cac.vertex_count() == cac.edge_count() + 1


def test_build_cactus_critical_endpoint():
    sq = ComplexPoly([0, 0, 1])
    md = monodromy(sq, 0, 1)
    cac = build_cactus(md, sq, 0, 1)
    assert cac.d_a == 2 and set(cac.V_a) == {1, 2}
    assert cac.d_b == 1


def test_build_cactus_t6_multiplicities():
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    cac = build_cactus(md, T6, -SQ3 / 2, SQ3 / 2)
    assert cac.d_a == 2 and cac.d_b == 2
    assert len(cac.V_a) == 2 and len(cac.V_b) == 2
    assert circular_separation(cac.V_a, cac.V_b, 6) == "disjointed"


def test_multiplicity_at():
    md_t6 = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    assert multiplicity_at(md_t6, SQ3 / 2) == 2
    assert multiplicity_at(md_t6, 0.3) == 1
    assert multiplicity_at(monodromy(ComplexPoly([0, 0, 0, 1]), 0, 1), 0) == 3


FIG1_GENS = [
    from_cycles(8, [(3, 7)]),
    from_cycles(8, [(4, 7), (5, 6)]),
    from_cycles(8, [(1, 2, 3, 8), (5, 7)]),
]


def test_fig1_tree_counts():
    cac = cactus_from_generators(8, FIG1_GENS, (1, 2), (3, 4))
    assert cac.vertex_count() == 25
    assert cac.edge_count() == 24


def test_fig1_path_and_f_vectors():
    cac = cactus_from_generators(8, FIG1_GENS, (1, 2), (3, 4))
    path = tree_path(cac)
    stars = [x for x in path if isinstance(x, int)]
    assert stars == [2, 3, 7, 4]
    fv = f_vectors(cac, path)
    assert fv == (
        (0, -1, 1, 0, 0, 0, -1, 0),
        (0, 0, 0, -1, 0, 0, 1, 0),
        (0, 1, -1, 1, 0, 0, 0, 0),
    )


def test_f_vector_invariants_on_instances():
    cases = [
        cactus_from_generators(8, FIG1_GENS, (1, 2), (3, 4)),
    ]
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    cases.append(build_cactus(md, T6, -SQ3 / 2, SQ3 / 2))
    for cac in cases:
        fv = f_vectors(cac, tree_path(cac))
        assert all(x in (-1, 0, 1) for row in fv for x in row)
        assert all(sum(col) == 0 for col in zip(*fv))
        for i in range(cac.n):
            nz = [row[i] for row in fv if row[i] != 0]
            assert nz in ([], [1, -1], [-1, 1])


def test_tree_violation_detected():
    # g1 g2 with a cycle that disconnects: 2 colors of a 3-sheet cover whose
    # deficiency exceeds n - 1 cannot assemble into a tree
    bad = [from_cycles(3, [(1, 2, 3)]), from_cycles(3, [(1, 2, 3)])]
    with pytest.raises(TreeViolation):
        cactus_from_generators(3, bad, (1, 1), (2, 2))


def test_circular_separation_cases():
    assert circular_separation({1, 2}, {4, 5}, 6) == "disjointed"
    assert circular_separation({1, 4}, {2, 5}, 6) == "entangled"
    assert circular_separation({1, 2}, {2, 5}, 6) == "almost"
    assert circular_separation({1, 2}, {2, 4, 6}, 8) == "almost"
    assert circular_separation({1, 3}, {2, 3, 5}, 6) == "entangled"
    assert circular_separation({1}, {2}, 2) == "disjointed"
    # wrap-around block
    assert circular_separation({6, 1}, {3, 4}, 6) == "disjointed"


def test_tree_path_degenerate_guard():
    from polymoment.errors import DegeneratePath

    cac = cactus_from_generators(2, [from_cycles(2, [(1, 2)])], (1, 1), (1, 2))
    with pytest.raises(DegeneratePath):
        tree_path(cac)


def test_fiber_accuracy_at_chebyshev_scale():
    # coefficient scale 2^23: the basepoint fiber must still satisfy
    # P(w) = c far below the coefficient-relative level
    t24 = chebyshev(24)
    md = monodromy(t24, -math.cos(math.pi / 6), math.cos(math.pi / 6))
    resid = max(abs(t24(w) - md.base_point) for w in md.fiber)
    assert resid < 1e-7


# ---------------------------------------------------------------------------
# the fused P/P' kernel and pinned tracking results
# ---------------------------------------------------------------------------


_points = st.lists(
    st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=8
)


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=2, max_size=49
    ),
    points=_points,
)
def test_power_sums_match_horner(coeffs, points):
    P = ComplexPoly(coeffs)
    dP = derivative(P)
    w = np.array([r * np.exp(1j * t) for r, t in points])
    pv, dv, mag = _power_sums(*_poly_arrays(P), w)

    def magnitude_sum(p):
        return sum(abs(c) * np.abs(w) ** j for j, c in enumerate(p.coeffs))

    # each value within 64 eps of its own polynomial's magnitude sum, the
    # floor the correctors accept
    exact = magnitude_sum(P)
    assert np.all(np.abs(pv - eval_many(P, w)) <= 64e-16 * exact)
    assert np.all(np.abs(dv - eval_many(dP, w)) <= 64e-16 * magnitude_sum(dP))
    # |w^j| from the power table vs |w|^j: equal up to j roundings
    assert np.all(np.abs(mag - exact) <= 4 * len(coeffs) * np.finfo(float).eps * exact)
    # the Newton updates skip the magnitude sum and get the same P, P'
    pv2, dv2, none = _power_sums(*_poly_arrays(P), w, magnitude=False)
    assert none is None and np.array_equal(pv2, pv) and np.array_equal(dv2, dv)


def _composite_6x3():
    """A(B(z)) with deg A = 6, deg B = 3, B(a) = B(b); fixed coefficients."""
    a, b = -0.75, 0.625
    beta = 0.25 + 0.5j
    gamma = -(a * a + a * b + b * b) - beta * (a + b)
    B = ComplexPoly([0, gamma, beta, 1])
    A = ComplexPoly([0.5, -1.25 + 0.5j, 0.75, 0.5 - 0.25j, -1.0, 0.25j, 1.0])
    return compose(A, B), a, b


# Recorded at commit d5334e3, whose tracker evaluated P by Horner's scheme,
# could only halve its step and ran up to 60 Newton iterations.  Any change
# to the tracking must reproduce these exactly (seed 0).
_T6_GENS = [[2, 1, 6, 5, 4, 3], [1, 6, 5, 4, 3, 2]]
_T12_GENS = [
    [2, 1, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3],
    [1, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2],
]
_T24_GENS = [
    [2, 1, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3],
    [1, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2],
]
_C6X3_GENS = [
    [1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 12, 11, 13, 14, 15, 16, 18, 17],
    [1, 2, 3, 6, 5, 4, 7, 8, 9, 12, 11, 10, 13, 14, 15, 18, 17, 16],
    [1, 2, 6, 4, 5, 3, 7, 8, 12, 10, 11, 9, 13, 14, 18, 16, 17, 15],
    [1, 2, 3, 4, 5, 18, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 6],
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
    [1, 2, 3, 4, 5, 12, 7, 8, 9, 10, 11, 6, 13, 14, 15, 16, 17, 18],
    [1, 18, 3, 4, 5, 8, 7, 6, 9, 10, 11, 14, 13, 12, 15, 16, 17, 2],
    [18, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 13, 12, 14, 15, 16, 17, 1],
]
GOLDEN = {
    "T6": (_T6_GENS, [1, 2], [4, 5]),
    "T12": (_T12_GENS, [2, 12], [6, 8]),
    "T24": (_T24_GENS, [3, 23], [11, 15]),
    "C6x3": (_C6X3_GENS, [18], [12]),
}


def _golden_case(name):
    if name == "C6x3":
        return _composite_6x3()
    return chebyshev(int(name[1:])), -SQ3 / 2, SQ3 / 2


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_monodromy(name):
    P, a, b = _golden_case(name)
    gens, V_a, V_b = GOLDEN[name]
    md = monodromy(P, a, b)
    cac = build_cactus(md, P, a, b)
    assert [list(g.images) for g in md.generators] == gens
    assert md.g_inf.images == full_cycle(P.degree).images
    assert list(cac.V_a) == V_a and list(cac.V_b) == V_b


@pytest.mark.parametrize("name", sorted(GOLDEN) + [f"random{s}" for s in range(8)])
def test_lasso_matches_round_trip(name):
    # oracle: the full round trip c -> q -> circle -> c, matched against the
    # basepoint fiber, must give the permutation that monodromy reads at q
    if name.startswith("random"):
        prob = random_reducible_problem(int(name[len("random"):]))
        P, a, b = prob.P, prob.a, prob.b
    else:
        P, a, b = _golden_case(name)
    md = monodromy(P, a, b)
    c, n = md.base_point, P.degree
    fiber = polish_fiber(P, c, roots(P - c, Tolerances()))
    # undo the relabelling: md.fiber holds the same roots in md's numbering
    new = [md.fiber.index(complex(w)) + 1 for w in fiber]
    old = [0] * n
    for i, j in enumerate(new, start=1):
        old[j - 1] = i

    def raw(g):
        return Permutation([old[g(new[i - 1]) - 1] for i in range(1, n + 1)])

    round_trip = [
        _match_permutation(fiber, continue_branches(P, loop + [c], fiber)[-1])
        for loop in _lassos(c, md.critical_values, n)
    ]
    assert [raw(g).images for g in md.generators] == [g.images for g in round_trip[:-1]]
    assert raw(md.g_inf).images == round_trip[-1].images


# ---------------------------------------------------------------------------
# finite loops read at their critical points
# ---------------------------------------------------------------------------


def _reading_case(name):
    if name.startswith("random"):
        prob = random_reducible_problem(int(name[len("random"):]))
        return prob.P, prob.a, prob.b
    if name.startswith("z"):
        return ComplexPoly([0] * int(name[1:]) + [1]), 0.37, 0.81
    return _golden_case(name)


@pytest.mark.parametrize("name", sorted(GOLDEN) + [f"random{s}" for s in range(30)] + ["z8", "z12"])
def test_local_reading_matches_tracked_circle(name):
    # every loop the reading certifies must equal the permutation of its
    # tracked circle, matched at the start q of the circle
    P, a, b = _reading_case(name)
    values, _, c, points = critical_data(P, a, b)
    fiber = polish_fiber(P, c, roots(P - c, Tolerances()))
    certified = 0
    for loop, over in zip(_lassos(c, values, P.degree), points):
        if not over:
            continue
        at_q = continue_branches(P, loop[:2], fiber)[-1]
        read = mono._local_reading(at_q, over)
        if read is not None:
            tracked = _match_permutation(at_q, continue_branches(P, loop[1:], at_q)[-1])
            assert read.images == tracked.images
            certified += 1
    assert certified >= 1


def test_local_reading_certification():
    # a cluster (zeta, e) moves its e nearest values one step counterclockwise
    w3 = np.exp(2j * np.pi * np.arange(3) / 3)
    assert mono._local_reading(w3, [(0.0, 3)]).images == (2, 3, 1)
    w = np.array([1.0, -1.0, 3.0, 3.0j])
    assert mono._local_reading(w, [(0.0, 2)]).images == (2, 1, 3, 4)
    # no critical point over the value: the identity, whatever the fiber
    assert mono._local_reading(w, ()).is_identity()
    # the 2nd nearest value doubled exceeds the 3rd: not isolated
    assert mono._local_reading(np.array([1.0, -1.0, 1.5, 9.0]), [(0.0, 2)]) is None
    # angular gaps of 0.3 and 2 pi - 0.3 against pi: uneven
    assert mono._local_reading(np.array([1.0, np.exp(0.3j), 5.0, -5.0]), [(0.0, 2)]) is None
    # two clusters claiming branches 1 and 2
    assert mono._local_reading(w, [(0.0, 2), (0.1, 2)]) is None


def _tracked_paths(monkeypatch):
    lengths = []
    real = mono.continue_branches

    def spy(P, path, start, tol=Tolerances()):
        lengths.append(len(path))
        return real(P, path, start, tol)

    monkeypatch.setattr(mono, "continue_branches", spy)
    return lengths


def test_t6_tracks_no_finite_circle(monkeypatch):
    # one leg per critical value, then the loop at infinity: no finite circle
    lengths = _tracked_paths(monkeypatch)
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    assert lengths == [2, 2, 2 + mono.CIRCLE_SEGMENTS]
    assert [list(g.images) for g in md.generators] == GOLDEN["T6"][0]


def test_value_without_critical_point_needs_no_leg(monkeypatch):
    # z^2 on [1, -1]: P(1) = 1 is supplemented, no critical point lies over
    # it, and its loop reads as the identity without any tracking
    lengths = _tracked_paths(monkeypatch)
    md = monodromy(ComplexPoly([0, 0, 1]), 1, -1)
    assert md.supplemented.count(True) == 1
    assert md.generators[md.supplemented.index(True)].is_identity()
    assert lengths == [2, 2 + mono.CIRCLE_SEGMENTS]


def test_refused_reading_tracks_circle(monkeypatch):
    # every cluster handed over twice claims its branches twice: each reading
    # is refused, so each finite circle is tracked, with the same result
    real = mono.critical_data

    def doubled(*args, **kwargs):
        values, flags, c, points = real(*args, **kwargs)
        return values, flags, c, [over + over for over in points]

    monkeypatch.setattr(mono, "critical_data", doubled)
    lengths = _tracked_paths(monkeypatch)
    md = monodromy(T6, -SQ3 / 2, SQ3 / 2)
    circle = 1 + mono.CIRCLE_SEGMENTS
    assert lengths == [2, circle, 2, circle, 2 + mono.CIRCLE_SEGMENTS]
    assert [list(g.images) for g in md.generators] == GOLDEN["T6"][0]
