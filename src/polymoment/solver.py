"""Top level: invariant subspace of an instance and solution decomposition.

An instance bundles the monodromy of P with endpoints a, b: the tree path
yields integer sign vectors, whose closure under the coordinate action of
the monodromy generators is the invariant subspace M of Q^n attached to the
problem.  The monodromy group contains the full cycle, so every invariant
subspace is a direct sum of the canonical irreducible pieces U_d, d in the
divisor lattice D, and M is fixed by the set S of d whose projector pi_d
does not kill every sign vector: M = sum over S of U_d, built exactly from
the projector rows without iterating the group action.  Each admissible d
carries a right factor B_d of degree n/d of P, constant on the residue
classes mod d at the level of inverse branches.

A solution Q (all segment moments of Q' against powers of P vanish) is
decomposed constructively: split its expansion at infinity along index
classes (n/f)Z for admissible f in decreasing order, descend each part to a
polynomial S_f = R_f(B_f), and either emit (S_f, B_f) directly when
B_f(a) = B_f(b) or recurse on the outer polynomial A_f with endpoints
B_f(a), B_f(b) and pull the returned factorizations back through B_f.  The
sub-instance reads A_f's monodromy off P's, tracking nothing: B_f is constant
on the residue classes mod f, which P's loop permutations permute as A_f's.
The recursion strictly decreases the degree, so it terminates.

An instance keeps what its queries share, each computed on first use: the
verifier's Q-independent half (`series.VerifierData`, keyed by N where it
depends on it) and the right factor (A, B) of each divisor d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    Cactus, MonodromyData, build_cactus, cactus_from_vertices, check_relations,
    endpoint_colors, f_vectors, monodromy, tree_path,
)
from .permgroup import (
    DivisorLattice,
    act_on_classes,
    circulant_from_row,
    cyclic_convolve,
    divisor_lattice,
    minimal_projector_rows,
)
from .poly import ComplexPoly, Tolerances, compose, decompose_outer, decompose_right, roots
from .rational import RationalSubspace, span
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
    path: tuple
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

    def tol_point(self) -> float:
        return self.tol.point * (1.0 + self.P.coeff_scale())

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
    """One term Q_j = Q_tilde(W(z)) with P = A_tilde(W(z)) and W(a) = W(b)."""

    Q: ComplexPoly
    W: ComplexPoly
    A_tilde: ComplexPoly
    Q_tilde: ComplexPoly
    gap: float

    def to_json(self) -> dict:
        from .poly import poly_to_json

        return {
            "Q_j": poly_to_json(self.Q),
            "W_j": poly_to_json(self.W),
            "A_tilde_j": poly_to_json(self.A_tilde),
            "Q_tilde_j": poly_to_json(self.Q_tilde),
            "gap": self.gap,
        }


def _check_summand(s: ReducibleSummand, P: ComplexPoly, tol: float):
    scale = max(P.coeff_scale(), s.Q.coeff_scale(), 1.0)
    r1 = max((abs(c) for c in (P - compose(s.A_tilde, s.W)).coeffs), default=0.0)
    r2 = max((abs(c) for c in (s.Q - compose(s.Q_tilde, s.W)).coeffs), default=0.0)
    if r1 > tol * scale or r2 > tol * scale:
        raise ResidualNonzero(
            f"summand residuals {r1:.3g}, {r2:.3g} exceed {tol * scale:.3g}"
        )


def build_instance(
    P: ComplexPoly, a: complex, b: complex, seed: int = 0, tol: Tolerances = Tolerances()
) -> ProblemInstance:
    """Monodromy and tree by tracking; the rest is `instance_from_tree`."""
    md = monodromy(P, a, b, tol, seed=seed)
    return instance_from_tree(P, a, b, md, build_cactus(md, P, a, b, tol), tol)


def instance_from_tree(
    P: ComplexPoly, a: complex, b: complex, md: MonodromyData, cactus: Cactus, tol: Tolerances
) -> ProblemInstance:
    """Path, sign vectors, divisor lattice, divisor set and subspace."""
    path = tree_path(cactus)
    fv = f_vectors(cactus, path)
    n = P.degree
    D = divisor_lattice(list(md.generators) + [md.g_inf], n)
    rows = minimal_projector_rows(D)
    S = frozenset(
        d for d in D.divisors if any(any(cyclic_convolve(rows[d], v)) for v in fv)
    )
    # the subspace always contains the top irreducible piece; a violation
    # here means the numerics produced an inconsistent instance
    if n not in S:
        raise DecompositionMismatch("invariant subspace misses the top piece U_n")
    # M = sum of U_d over S, spanned by the shifts of the summed projector
    rho = tuple(map(sum, zip(*(rows[d] for d in S))))
    return ProblemInstance(
        P=P, a=a, b=b, md=md, cactus=cactus, path=path, fv=fv, D=D, S=S,
        M=span(circulant_from_row(rho), n), tol=tol,
    )


def quotient_instance(A: ComplexPoly, B: ComplexPoly, inst: ProblemInstance) -> ProblemInstance:
    """The instance of A on B(a), B(b), for inst.P = A(B(z)), read off inst.

    B is constant on the residue classes of branch indices mod f = deg A, so
    class j is branch j of A, at B(fiber[j - 1]): P's loop permutations act
    on the classes as A's do, for the same basepoint and loops.  Colors that
    act trivially are dropped, except those of P(a) and P(b), which stay as
    supplemented values; V(a), V(b) are the classes of P's.  The induced data
    pass the same checks as tracked data.
    """
    md, cac, f = inst.md, inst.cactus, A.degree
    induced = [act_on_classes(g, f) for g in md.generators]
    ends = (cac.vertex_a.color, cac.vertex_b.color)
    keep = [s for s, g in enumerate(induced, start=1) if s in ends or not g.is_identity()]
    gens, g_inf = tuple(induced[s - 1] for s in keep), act_on_classes(md.g_inf, f)
    check_relations(gens, g_inf, f)
    sub = MonodromyData(
        n=f, base_point=md.base_point, generators=gens, g_inf=g_inf,
        critical_values=tuple(md.critical_values[s - 1] for s in keep),
        supplemented=tuple(g.is_identity() for g in gens),
        fiber=tuple(complex(B(w)) for w in md.fiber[:f]),
    )
    a, b = B(inst.a), B(inst.b)
    s_a, s_b, same_value = endpoint_colors(sub, A(a), A(b), inst.tol)
    Va, Vb = (frozenset((i - 1) % f + 1 for i in V) for V in (cac.V_a, cac.V_b))
    cactus = cactus_from_vertices(sub, s_a, Va, s_b, Vb, same_value)
    return instance_from_tree(A, a, b, sub, cactus, inst.tol)


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

    Empty exactly when P(a) != P(b) (then no nonzero solutions exist; note
    W = P itself qualifies whenever P(a) = P(b)).  Degree-1 factors are
    never reported.
    """
    out = []
    tol = inst.tol_point()
    for d in inst.D.divisors:
        if d == inst.n:
            continue  # W would be linear
        A, B = right_factor_for(inst, d)
        gap = abs(B(inst.a) - B(inst.b))
        if gap <= tol:
            out.append(FactorCandidate(d=d, W=B, A=A, gap=gap))
    return out


def exists_nonzero_solution(inst: ProblemInstance) -> bool:
    return abs(inst.P(inst.a) - inst.P(inst.b)) <= inst.tol_point()


def double_decompositions(inst: ProblemInstance):
    """Unordered pairs of incomparable right factors (neither a polynomial in
    the other); a prerequisite for non-reducible solutions to exist."""
    mids = [d for d in inst.D.divisors if d not in (1, inst.n)]
    factors = {d: right_factor_for(inst, d) for d in mids}
    pairs = []
    for x in range(len(mids)):
        for y in range(x + 1, len(mids)):
            dx, dy = mids[x], mids[y]
            Ax, Bx = factors[dx]
            Ay, By = factors[dy]
            big, small = (Bx, By) if Bx.degree >= By.degree else (By, Bx)
            nested = (
                big.degree % small.degree == 0
                and decompose_outer(big, small, inst.tol) is not None
            )
            if not nested:
                pairs.append(((Ax, Bx), (Ay, By)))
    return pairs


def _emit(P, S, A, B, R, gap, tol) -> ReducibleSummand:
    s = ReducibleSummand(Q=S, W=B, A_tilde=A, Q_tilde=R, gap=gap)
    _check_summand(s, P, tol)
    return s


def decompose_solution(
    inst: ProblemInstance,
    Q: ComplexPoly,
    I: int = 25,
    N: int | None = None,
) -> list[ReducibleSummand]:
    """Split a verified solution into reducible summands, constructively.

    Index classes (n/f)Z of the expansion of Q(P^-1) are peeled off for
    admissible f in decreasing order; each extracted part descends to
    S_f = R_f(B_f).  Parts whose factor identifies the endpoints are emitted;
    the others are decomposed recursively through the outer polynomial and
    pulled back.  The summands add up to Q - Q(a) coefficientwise.
    """
    P, a, b = inst.P, inst.a, inst.b
    n = inst.n
    report = inst.verify(Q, I=I, N=N)
    if not report.verdict:
        raise NotASolution(f"vanishing checks failed: {report.to_json()}")
    Qn = Q - Q(a)
    if Qn.is_zero():
        return []
    qscale = Qn.coeff_scale()
    tol_pt = inst.tol_point()
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
        gap = abs(B1(a) - B1(b))
        if gap > tol_pt:
            raise NotASolution("Q = R(P) with P(a) != P(b) forces R = 0")
        return [_emit(P, Qn, A1, B1, R, gap, TOL_SUM)]

    pieces = []
    residual = series
    for f in sorted(inst.D.divisors, reverse=True):
        if f == n:
            continue
        step = n // f
        live = residual.support(inst.tol.support, ref_scale=ref)
        if not any(k % step == 0 for k in live):
            continue
        psi = extract_psi(residual, f)
        S_f = recover_polynomial(psi, w, inst.tol)
        residual = type(residual)(
            n=residual.n,
            kmin=residual.kmin,
            vals=residual.vals - psi.vals,
            trunc=residual.trunc,
        )
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
        gap = abs(B(a) - B(b))
        if gap <= tol_pt:
            summands.append(_emit(P, S, A, B, R, gap, TOL_SUM))
            continue
        if f < 2:
            raise NotASolution("part through P itself but P(a) != P(b)")
        sub = quotient_instance(A, B, inst)
        subs = decompose_solution(sub, R, I=I)
        dropped = R(B(a))
        pulled = []
        for e in subs:
            W_e = compose(e.W, B)
            alpha = W_e.leading
            beta = W_e.coeffs[0] if W_e.coeffs else 0.0
            W_can = ComplexPoly(
                [0.0] + [c / alpha for c in W_e.coeffs[1:]]
            )
            mu = ComplexPoly([beta, alpha])
            pulled.append(
                _emit(
                    P,
                    compose(e.Q, B),
                    compose(e.A_tilde, mu),
                    W_can,
                    compose(e.Q_tilde, mu),
                    abs(W_can(a) - W_can(b)),
                    TOL_SUM,
                )
            )
        if pulled:
            first = pulled[0]
            pulled[0] = ReducibleSummand(
                Q=first.Q + ComplexPoly([dropped]),
                W=first.W,
                A_tilde=first.A_tilde,
                Q_tilde=first.Q_tilde + ComplexPoly([dropped]),
                gap=first.gap,
            )
            _check_summand(pulled[0], P, TOL_SUM)
            summands.extend(pulled)
        else:
            stray_constant += dropped
    if abs(stray_constant) > TOL_SUM * (1 + qscale):
        if not summands:
            raise ResidualNonzero("constant part cannot be attached to any factor")
        first = summands[0]
        summands[0] = ReducibleSummand(
            Q=first.Q + ComplexPoly([stray_constant]),
            W=first.W,
            A_tilde=first.A_tilde,
            Q_tilde=first.Q_tilde + ComplexPoly([stray_constant]),
            gap=first.gap,
        )

    total = ComplexPoly()
    for s in summands:
        total = total + s.Q
    resid = max((abs(c) for c in (total - Qn).coeffs), default=0.0)
    if resid > TOL_SUM * (1 + qscale):
        raise ResidualNonzero(f"summand total misses Q by {resid:.3g}")
    return summands


# ---------------------------------------------------------------------------
# random reducible problem generator (tests, CLI `generate`)
# ---------------------------------------------------------------------------


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


def random_reducible_problem(
    seed: int,
    deg_outer=(2, 4),
    deg_inner=(2, 4),
    deg_solution=(1, 3),
    attempts: int = 25,
    tol: Tolerances = Tolerances(),
) -> GeneratedProblem:
    """P = A(B(z)) with random factors, b solved from B(a) = B(b), and a
    reducible solution Q = T(B(z)).  Retries deterministically on numerically
    awkward draws (near-collapsed endpoints or tracking failures)."""
    from .errors import MomentProblemError

    for attempt in range(attempts):
        rng = np.random.RandomState(seed * 1009 + attempt)
        dA = int(rng.randint(deg_outer[0], deg_outer[1] + 1))
        dB = int(rng.randint(deg_inner[0], deg_inner[1] + 1))
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
        dT = int(rng.randint(deg_solution[0], deg_solution[1] + 1))
        T = _random_poly(rng, dT)
        Q = compose(T, B)
        try:
            monodromy(P, a, b, tol)
        except MomentProblemError:
            continue
        return GeneratedProblem(P=P, a=a, b=b, Q=Q, inner=B, seed=seed * 1009 + attempt)
    raise MomentProblemError(f"could not generate a stable instance for seed {seed}")
