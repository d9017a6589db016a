"""Top level: invariant subspace of an instance and solution decomposition.

An instance bundles the monodromy of P with endpoints a, b: the tree path
yields integer sign vectors, whose closure under the coordinate action of
the monodromy generators is the invariant subspace M of Q^n attached to the
problem.  The monodromy group contains the full cycle, so every invariant
subspace is a direct sum of the canonical irreducible pieces U_d, d in the
divisor lattice D, and M is fixed by the set S of d whose piece some sign
vector reaches: M = sum over S of U_d, built exactly from the cyclotomic
factors of x^n - 1 without iterating the group action.  Each admissible d
carries a right factor B_d of degree n/d of P, constant on the residue
classes mod d at the level of inverse branches, so B_d(a) = B_d(b) is read
off the tree (`Cactus.identifies`) by existence, generators and decompose.

A solution Q (all segment moments of Q' against powers of P vanish) is
decomposed constructively: split its expansion at infinity along index
classes (n/f)Z for admissible f in decreasing order, descend each part to a
polynomial S_f = R_f(B_f), and either emit (S_f, B_f) directly when
B_f(a) = B_f(b) or recurse on the outer polynomial A_f with endpoints
B_f(a), B_f(b) and pull each returned summand back by composing its W and Q
with B_f.  Every right factor is monic with W(0) = 0, so the composite is
too, and A_tilde, Q_tilde carry over as they are.  Each summand is built by
`summand`, which checks P = A_tilde(W) and Q = Q_tilde(W) and keeps both
residuals; attaching a constant builds, and so checks, it again.  The
sub-instance induces A_f's monodromy and endpoint vertices from P's (only
its verifier tracks, along the 8-point sample ray): B_f is constant on the
residue classes mod f, which P's loop permutations permute as A_f's.  The
recursion strictly decreases the degree, so it terminates.

An instance keeps what its queries share, each computed on first use: the
verifier's Q-independent half (`series.VerifierData`, keyed by N where it
depends on it) and the right factor (A, B) of each divisor d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BlockMismatch,
    DecompositionMismatch,
    FactorMissing,
    InvalidDivisor,
    NotASolution,
    ResidualNonzero,
)
from .monodromy import (
    Cactus, MonodromyData, build_cactus, check_relations, f_vectors, monodromy, tree_path,
)
from .permgroup import DivisorLattice, act_on_classes, divisor_lattice, invariant_pieces
from .poly import ComplexPoly, Tolerances, compose, decompose_outer, decompose_right, roots
from .rational import RationalSubspace
from .series import (
    MomentReport, VerifierData, check_counts, extract_psi, recover_polynomial, verify_vanishing,
)

TOL_SUM = 1e-8


@dataclass
class ProblemInstance:
    """P with endpoints a, b plus everything derived from its monodromy, and
    the tolerances every later check on the instance uses."""

    P: ComplexPoly
    a: complex
    b: complex
    md: MonodromyData
    cactus: Cactus
    fv: tuple[tuple[int, ...], ...]
    D: DivisorLattice
    S: frozenset[int]
    M: RationalSubspace
    tol: Tolerances
    # right_factor_for's (A, B) per divisor, filled on first use
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.P.degree

    @property
    def imprimitivity_count(self) -> int:
        return len(self.D.divisors)

    def all_generators(self):
        return list(self.md.generators) + [self.md.g_inf]

    @functools.cached_property
    def verifier(self) -> VerifierData:
        """The Q-independent half of `verify`, computed on first use."""
        return VerifierData(self.P, self.a, self.b, self.md, self.fv, self.M, self.D, self.S, self.tol)

    def verify(self, Q: ComplexPoly, I: int = 25, N: int | None = None) -> MomentReport:
        check_counts(I, N, self.n, Q.degree)  # a malformed count is refused before any tracking
        return verify_vanishing(self.verifier, Q, I=I, N=N, tol=self.tol)


@dataclass
class ReducibleSummand:
    """One term Q_j = Q_tilde(W(z)) with P = A_tilde(W(z)) and W(a) = W(b),
    with the residuals max|P - A_tilde(W)| and max|Q_j - Q_tilde(W)| of the
    check in `summand`, which builds it."""

    Q: ComplexPoly
    W: ComplexPoly
    A_tilde: ComplexPoly
    Q_tilde: ComplexPoly
    gap: float
    r_factor: float
    r_solution: float

    def to_json(self) -> dict:
        from .poly import poly_to_json

        return {
            "Q_j": poly_to_json(self.Q),
            "W_j": poly_to_json(self.W),
            "A_tilde_j": poly_to_json(self.A_tilde),
            "Q_tilde_j": poly_to_json(self.Q_tilde),
            "gap": self.gap,
        }


def build_instance(
    P: ComplexPoly, a: complex, b: complex, seed: int = 0, tol: Tolerances = Tolerances()
) -> ProblemInstance:
    """Monodromy and endpoints by tracking; the rest is `instance_from_tree`."""
    return instance_from_tree(P, a, b, monodromy(P, a, b, tol, seed=seed), tol)


def instance_from_tree(
    P: ComplexPoly, a: complex, b: complex, md: MonodromyData, tol: Tolerances
) -> ProblemInstance:
    """The tree (`build_cactus`), sign vectors, divisor lattice, divisor set and subspace."""
    cactus = build_cactus(md)
    fv = f_vectors(cactus, tree_path(cactus))
    n = P.degree
    D = divisor_lattice(list(md.generators) + [md.g_inf], n)
    S, basis = invariant_pieces(D, fv)
    # the subspace always contains the top irreducible piece; a violation
    # here means the numerics produced an inconsistent instance
    if n not in S:
        raise DecompositionMismatch("invariant subspace misses the top piece U_n")
    return ProblemInstance(
        P=P, a=a, b=b, md=md, cactus=cactus, fv=fv, D=D, S=S,
        M=RationalSubspace(n, basis), tol=tol,
    )


def quotient_instance(A: ComplexPoly, B: ComplexPoly, inst: ProblemInstance) -> ProblemInstance:
    """The instance of A on B(a), B(b), for inst.P = A(B(z)), read off inst.

    B is constant on the residue classes of branch indices mod f = deg A, so
    class j is branch j of A, at B(fiber[j - 1]): P's loop permutations act
    on the classes as A's do, for the same basepoint and loops.  Colors that
    act trivially are dropped, except those of a and b, kept as supplemented
    values: A(B(a)) = P(a), so a and b keep their colors, and the `ends` of
    the sub-instance are the classes of P's.  The induced data pass the same
    checks as tracked data.
    """
    md, f = inst.md, A.degree
    induced = [act_on_classes(g, f) for g in md.generators]
    colors = [s for s, _ in md.ends]
    keep = [s for s, g in enumerate(induced, start=1) if s in colors or not g.is_identity()]
    gens, g_inf = tuple(induced[s - 1] for s in keep), act_on_classes(md.g_inf, f)
    check_relations(gens, g_inf, f)
    sub = MonodromyData(
        n=f, base_point=md.base_point, generators=gens, g_inf=g_inf,
        critical_values=tuple(md.critical_values[s - 1] for s in keep),
        supplemented=tuple(g.is_identity() for g in gens),
        fiber=tuple(complex(B(w)) for w in md.fiber[:f]),
        ends=tuple((keep.index(s) + 1, frozenset((i - 1) % f + 1 for i in V)) for s, V in md.ends),
    )
    return instance_from_tree(A, B(inst.a), B(inst.b), sub, inst.tol)


def right_factor_for(inst: ProblemInstance, d: int):
    """The decomposition P = A(B(z)) with deg B = n/d attached to divisor d.

    Cross-checks algebra against monodromy: on the basepoint fiber, B must be
    constant exactly on the residue classes of branch indices mod d.  The
    pair is kept on inst, so the check runs once per divisor.
    """
    if d not in inst.D.divisors:
        raise InvalidDivisor(f"{d} is not an admissible divisor")
    if d in inst.factors:
        return inst.factors[d]
    n = inst.n
    got = decompose_right(inst.P, n // d, inst.tol)
    if got is None:
        raise FactorMissing(
            f"no right factor of degree {n // d} although divisor {d} is admissible"
        )
    A, B = got
    vals = [B(wi) for wi in inst.md.fiber]
    scale = max(1.0, max(abs(v) for v in vals))
    for i in range(n):
        for j in range(i + 1, n):
            same = (i - j) % d == 0
            close = abs(vals[i] - vals[j]) <= inst.tol.block * scale
            if same and not close:
                raise BlockMismatch(
                    f"branches {i + 1},{j + 1} in one class mod {d} but B-values differ"
                )
            if not same and close:
                raise BlockMismatch(
                    f"branches {i + 1},{j + 1} in different classes mod {d} but B-values agree"
                )
    inst.factors[d] = A, B
    return A, B


@dataclass
class FactorCandidate:
    d: int
    W: ComplexPoly
    A: ComplexPoly
    gap: float


def reducible_generators(inst: ProblemInstance) -> list[FactorCandidate]:
    """Right factors W with W(a) = W(b); the building blocks of solutions.

    Only divisors whose factor identifies a, b on the tree are factored; the
    gap |W(a) - W(b)| is reported, not tested.  Empty exactly when
    P(a) != P(b) (then no nonzero solutions exist; note W = P itself
    qualifies whenever P(a) = P(b)).  Degree-1 factors are never reported.
    """
    out = []
    for d in inst.D.divisors:
        # d = n would give a linear W
        if d != inst.n and inst.cactus.identifies(d):
            A, B = right_factor_for(inst, d)
            out.append(FactorCandidate(d=d, W=B, A=A, gap=abs(B(inst.a) - B(inst.b))))
    return out


def exists_nonzero_solution(inst: ProblemInstance) -> bool:
    """P(a) = P(b), read off the tree: a and b share a color."""
    return inst.cactus.identifies(1)


def double_decompositions(inst: ProblemInstance):
    """Unordered pairs of incomparable right factors, read off the lattice:
    B_x is a polynomial in B_y exactly when x divides y.  A prerequisite for
    non-reducible solutions to exist."""
    mids = [d for d in inst.D.divisors if d not in (1, inst.n)]
    factors = {d: right_factor_for(inst, d) for d in mids}
    return [
        (factors[dx], factors[dy])
        for x, dx in enumerate(mids) for dy in mids[x + 1:]
        if dx % dy and dy % dx
    ]


def _max_coeff(p: ComplexPoly) -> float:
    return max((abs(c) for c in p.coeffs), default=0.0)


def summand(inst: ProblemInstance, Q, W, A_tilde, Q_tilde) -> ReducibleSummand:
    """The summand Q = Q_tilde(W) of a solution on inst, checked.

    Raises ResidualNonzero unless P = A_tilde(W) and Q = Q_tilde(W) up to
    TOL_SUM of the coefficient scale; the summand keeps both residuals and
    the gap |W(a) - W(b)|.  Every summand is built here.
    """
    r_factor = _max_coeff(inst.P - compose(A_tilde, W))
    r_solution = _max_coeff(Q - compose(Q_tilde, W))
    bound = TOL_SUM * max(inst.P.coeff_scale(), Q.coeff_scale(), 1.0)
    if r_factor > bound or r_solution > bound:
        raise ResidualNonzero(
            f"summand residuals {r_factor:.3g}, {r_solution:.3g} exceed {bound:.3g}"
        )
    gap = abs(W(inst.a) - W(inst.b))
    return ReducibleSummand(Q, W, A_tilde, Q_tilde, gap, r_factor, r_solution)


def _plus_constant(inst: ProblemInstance, s: ReducibleSummand, c: complex) -> ReducibleSummand:
    """s with the constant c added to Q and Q_tilde, checked again."""
    return summand(inst, s.Q + c, s.W, s.A_tilde, s.Q_tilde + c)


def decompose_solution(
    inst: ProblemInstance,
    Q: ComplexPoly,
    I: int = 25,
    N: int | None = None,
) -> list[ReducibleSummand]:
    """Split a verified solution into reducible summands, constructively.

    Index classes (n/f)Z of the expansion of Q(P^-1) are peeled off for
    admissible f in decreasing order; each extracted part descends to
    S_f = R_f(B_f).  Parts whose factor identifies the endpoints on the tree
    are emitted; the others are decomposed recursively through the outer
    polynomial and pulled back by composing with B_f.  The summands add up
    to Q - Q(a) coefficientwise.
    """
    a, n = inst.a, inst.n
    report = inst.verify(Q, I=I, N=N)
    if not report.verdict:
        raise NotASolution(f"vanishing checks failed: {report.to_json()}")
    Qn = Q - Q(a)
    if Qn.is_zero():
        return []
    qscale = Qn.coeff_scale()
    # the verifier's expansion, against the range-rescaled P: supports and the
    # descended polynomials are identical, the coefficient profile stays tame
    w, series = report.w, report.series
    ref = series.scale()
    sig = series.support(inst.tol.support)

    if all(k % n == 0 for k in sig):
        A1, B1 = right_factor_for(inst, 1)
        R = decompose_outer(Qn, B1, inst.tol)
        if R is None:
            raise ResidualNonzero("series supported on nZ but Q is not R(P)")
        if not inst.cactus.identifies(1):
            raise NotASolution("Q = R(P) with P(a) != P(b) forces R = 0")
        return [summand(inst, Qn, B1, A1, R)]

    pieces = []
    residual = series
    for f in sorted(inst.D.divisors, reverse=True):
        if f == n:
            continue
        live = residual.support(inst.tol.support, ref_scale=ref)
        if not any(k % (n // f) == 0 for k in live):
            continue
        psi = extract_psi(residual, f)
        S_f = recover_polynomial(psi, w, inst.tol)
        residual = replace(residual, vals=residual.vals - psi.vals)
        A_f, B_f = right_factor_for(inst, f)
        R_f = decompose_outer(S_f, B_f, inst.tol)
        if R_f is None:
            raise ResidualNonzero(
                f"extracted part for divisor {f} does not factor through B_{f}"
            )
        pieces.append((f, S_f, A_f, B_f, R_f))
    leftover = residual.support(inst.tol.support, ref_scale=ref)
    if leftover:
        raise ResidualNonzero(f"live indices {leftover} remain after all divisors")

    summands: list[ReducibleSummand] = []
    stray_constant = 0j
    for f, S, A, B, R in pieces:
        if inst.cactus.identifies(f):
            summands.append(summand(inst, S, B, A, R))
            continue
        if f < 2:
            raise NotASolution("part through P itself but P(a) != P(b)")
        # R = sum of e.Q + R(B(a)) over the sub-instance's summands e, and
        # P = e.A_tilde(e.W(B)): each pulls back by composing with B
        pulled = [
            summand(inst, compose(e.Q, B), compose(e.W, B), e.A_tilde, e.Q_tilde)
            for e in decompose_solution(quotient_instance(A, B, inst), R, I=I)
        ]
        if pulled:
            pulled[0] = _plus_constant(inst, pulled[0], R(B(a)))
            summands.extend(pulled)
        else:
            stray_constant += R(B(a))
    if abs(stray_constant) > TOL_SUM * (1 + qscale):
        if not summands:
            raise ResidualNonzero("constant part cannot be attached to any factor")
        summands[0] = _plus_constant(inst, summands[0], stray_constant)

    resid = _max_coeff(sum((s.Q for s in summands), ComplexPoly()) - Qn)
    if resid > TOL_SUM * (1 + qscale):
        raise ResidualNonzero(f"summand total misses Q by {resid:.3g}")
    return summands


# ---------------------------------------------------------------------------
# random reducible problem generator (tests, CLI `generate`)
# ---------------------------------------------------------------------------

# draws per seed: attempt t seeds numpy with seed * 1009 + t
GENERATE_ATTEMPTS = 25


@dataclass
class GeneratedProblem:
    P: ComplexPoly
    a: complex
    b: complex
    Q: ComplexPoly
    inner: ComplexPoly
    seed: int


def _random_poly(rng, deg: int, monic_zero: bool = False) -> ComplexPoly:
    cs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    cs *= 0.7
    if monic_zero:
        cs[deg] = 1.0
        cs[0] = 0.0
    else:
        lead = cs[deg]
        cs[deg] = lead / abs(lead) * (0.5 + abs(lead) % 1.0)
    return ComplexPoly(cs.tolist())


def random_reducible_problem(seed: int, tol: Tolerances = Tolerances()) -> GeneratedProblem:
    """P = A(B(z)) with random factors of degree 2..4, b solved from
    B(a) = B(b), and a reducible solution Q = T(B(z)) with deg T in 1..3.
    Retries deterministically, at most GENERATE_ATTEMPTS times, on
    numerically awkward draws (near-collapsed endpoints or tracking
    failures)."""
    from .errors import MomentProblemError

    for attempt in range(GENERATE_ATTEMPTS):
        rng = np.random.RandomState(seed * 1009 + attempt)
        dA = int(rng.randint(2, 5))
        dB = int(rng.randint(2, 5))
        A = _random_poly(rng, dA)
        B = _random_poly(rng, dB, monic_zero=True)
        P = compose(A, B)
        a = complex(*rng.standard_normal(2))
        try:
            cands = roots(B - B(a), tol, seed=int(rng.randint(10**6)))
        except MomentProblemError:
            continue
        cands = [z for z in cands if abs(z - a) > 0.05 * (1 + abs(a))]
        if not cands:
            continue
        b = max(cands, key=lambda z: abs(z - a))
        dT = int(rng.randint(1, 4))
        T = _random_poly(rng, dT)
        Q = compose(T, B)
        try:
            monodromy(P, a, b, tol)
        except MomentProblemError:
            continue
        return GeneratedProblem(P=P, a=a, b=b, Q=Q, inner=B, seed=seed * 1009 + attempt)
    raise MomentProblemError(f"could not generate a stable instance for seed {seed}")
