"""Analytic layer: expansions of Q(P^-1) at infinity, moments, and vanishing.

Near infinity the inverse branches of a degree-n polynomial P expand in
powers of u = z^(1/n); for any polynomial Q the branch values are

    Q(P_i^-1(z)) = sum_k  s_k * eps^((i-1)k) * z^(-k/n),   eps = exp(2*pi*i/n),

with one common coefficient sequence s_k and a root-of-unity twist per
branch (branch numbering as produced by the monodromy layer).  The expansion
is computed by power-series Newton inversion of P; sub-series supported on
an arithmetic progression of indices descend to polynomials in a single
inverse branch and are recovered by leading-term elimination.

Moments along [a, b] use one kernel: P and Q are converted exactly to the
Chebyshev basis of the segment (`poly.segment_chebyshev`), evaluated by
Clenshaw at the nodes of a Gauss-Legendre rule with just enough nodes to
integrate the integrand exactly, and the rule of each node count is computed
once per process.

The vanishing verifier combines three independent views of the same
condition: quadrature moments along [a, b], sampled linear relations among
branch values for every vector of the invariant subspace, and orthogonality
of the twist vectors of all live series indices to that subspace.  The last
view is exact: the twist vector of index k lies in the single piece U_d
that holds frequency k, so it is orthogonal to the subspace iff that d is
not in the subspace's divisor set.  The report keeps the expansion of view
(iii), so the decomposition of a verified solution does not recompute it.

What the views need of the instance alone, whatever Q, is computed once per
instance and kept (`VerifierData`).  The inverse branch w is kept per
truncation N, its only key, since the instance's tolerances are frozen.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeTooLow,
    InvalidDivisor,
    MalformedInput,
    NoConvergence,
    RecoveryFailure,
    TruncationTooShort,
)
from .monodromy import Cactus, MonodromyData, continue_branches
from .permgroup import piece_of
from .poly import ComplexPoly, Tolerances, eval_many, segment_chebyshev
from .rational import RationalSubspace

# the benchmark (perfbench/run.py) reads these two as the applied defaults
TOL_MOMENT, TOL_PHI = Tolerances.moment, Tolerances.phi
# the rule's eigen-solve holds a dense count x count matrix: 4096 nodes take
# 128 MiB, so a rule needing more (I n + deg Q above 8192) is refused
MAX_GAUSS_NODES = 4096
# the series inversion takes time n N^2 (5.9 s at n = 24, N = 6400), so a
# longer truncation is refused
MAX_TRUNCATION = 2 * MAX_GAUSS_NODES


def default_truncation(n: int, deg_q: int) -> int:
    """All structurally possible indices of a polynomial Q plus a guard band."""
    return n * (deg_q + 2) + 2 * n


def range_rescaled(P: ComplexPoly, md: MonodromyData) -> ComplexPoly:
    """P divided by the magnitude of its largest critical value.

    The rescale multiplies the expansion coefficient s_k by rho^(-k/n), so
    index supports and descended polynomials are unchanged, but it pins the
    convergence radius at 1: without it the coefficients of a deep
    truncation span the dynamic range rho^(N/n) and cancellation noise
    drowns the valley of the profile.
    """
    rho = max(1.0, max(abs(v) for v in md.critical_values))
    return ComplexPoly([c / rho for c in P.coeffs])


@dataclass
class PuiseuxSeries:
    """Truncated expansion sum_k vals[k - kmin] * z^(-k/n), valid for k <= trunc."""

    n: int
    kmin: int
    vals: np.ndarray
    trunc: int

    @property
    def coeffs(self) -> dict[int, complex]:
        out = {}
        for j, v in enumerate(self.vals):
            k = self.kmin + j
            if k > self.trunc:
                break
            if v != 0:
                out[k] = complex(v)
        return out

    def coeff(self, k: int) -> complex:
        j = k - self.kmin
        if 0 <= j < len(self.vals):
            return complex(self.vals[j])
        return 0.0

    def scale(self) -> float:
        """Max coefficient magnitude over the valid index range."""
        upto = min(len(self.vals), self.trunc - self.kmin + 1)
        m = float(np.max(np.abs(self.vals[:upto]))) if upto > 0 else 0.0
        return m or 1.0

    def support(self, tol: float = Tolerances.support, ref_scale: float | None = None) -> list[int]:
        """Indices with |s_k| above tol * max|s_k| (or a supplied scale)."""
        cut = tol * (ref_scale if ref_scale is not None else self.scale())
        upto = max(0, min(len(self.vals), self.trunc - self.kmin + 1))
        return (np.flatnonzero(_modulus(self.vals[:upto]) > cut) + self.kmin).tolist()

    def eval(self, u: complex) -> complex:
        """Partial sum at u = z^(1/n) (branch 1)."""
        acc = 0j
        for j, v in enumerate(self.vals):
            k = self.kmin + j
            if k > self.trunc:
                break
            acc += v * u ** (-k)
        return acc

    def eval_branch(self, i: int, u: complex) -> complex:
        """Partial sum of branch i: index k twisted by eps^((i-1)k)."""
        eps = np.exp(2j * np.pi / self.n)
        return self.eval(u * eps ** (-(i - 1)))


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| per entry, rounded as Python's abs of each entry is; np.abs of a
    complex array can differ from that in the last bit."""
    return np.hypot(x.real, x.imag)


def _ps_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    out = np.convolve(a[:m], b[:m])[:m]
    if len(out) < m:
        out = np.pad(out, (0, m - len(out)))
    return out


def _series_eval_in_g(coeffs, g: np.ndarray, m: int) -> np.ndarray:
    """sum_j c_j x^(deg-j) g(x)^j mod x^m, by Horner in g."""
    deg = len(coeffs) - 1
    acc = np.zeros(m, dtype=complex)
    first = True
    for j in range(deg, -1, -1):
        c = coeffs[j]
        if first:
            acc[0] = c
            first = False
        else:
            acc = _ps_mul(acc, g, m)
            if deg - j < m:
                acc[deg - j] += c
    return acc


def _ps_inverse(a: np.ndarray, m: int) -> np.ndarray:
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv = np.zeros(m, dtype=complex)
    inv[0] = 1.0 / a[0]
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        t = _ps_mul(a, inv, prec)
        t = -t
        t[0] += 2.0
        inv = _ps_mul(inv, t, prec)
    return inv


def puiseux_inverse(P: ComplexPoly, N: int) -> PuiseuxSeries:
    """Series w(u) with P(w(u)) = u^n through order u^(n - N - 1).

    Writes w = u * g(1/u) and solves sum_j p_j x^(n-j) g^j = 1 for the power
    series g by Newton iteration with precision doubling; the residual of the
    functional is checked at full precision.  Index k of the result carries
    the coefficient of z^(-k/n), k >= -1.
    """
    n = P.degree
    if n < 2:
        raise DegreeTooLow("inverse expansion needs deg P >= 2")
    if N < n:
        raise TruncationTooShort(f"N = {N} < n = {n}")
    if N > MAX_TRUNCATION:
        raise MalformedInput(f"truncation N = {N} is above {MAX_TRUNCATION}")
    coeffs = list(P.coeffs)
    m = N + 2
    lead = coeffs[-1]
    g = np.zeros(m, dtype=complex)
    g[0] = abs(lead) ** (-1.0 / n) * np.exp(-1j * np.angle(lead) / n)
    # the functional is F(g) = sum_j p_j x^(n-j) g^j - 1; its g-derivative is
    # sum_j j p_j x^(n-j) g^(j-1), the same Horner scheme run on P'
    dcoeffs = [j * c for j, c in enumerate(coeffs)][1:]

    def newton_step(cur, prec):
        F = _series_eval_in_g(coeffs, cur, prec)
        F[0] -= 1.0
        Fp = _series_eval_in_g(dcoeffs, cur, prec)
        return cur[:prec] - _ps_mul(F, _ps_inverse(Fp, prec), prec)

    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        g = np.pad(newton_step(g, prec), (0, m - prec))
    for _ in range(2):
        g = newton_step(g, m)
    resid = _series_eval_in_g(coeffs, g, m)
    resid[0] -= 1.0
    # compare order by order against the magnitudes feeding each coefficient
    order_scale = np.abs(
        _series_eval_in_g([abs(c) for c in coeffs], np.abs(g).astype(complex), m)
    )
    if float(np.max(np.abs(resid) / (order_scale + 1.0))) > 1e-10:
        raise NoConvergence("series inversion residual too large")
    return PuiseuxSeries(n=n, kmin=-1, vals=g, trunc=N)


def q_of_inverse(Q: ComplexPoly, w: PuiseuxSeries) -> PuiseuxSeries:
    """Coefficients s_k of Q(w(u)); branch i follows by the eps twist."""
    if w.kmin != -1:
        raise ValueError("w must be an inverse-branch series")
    if Q.is_zero():
        return PuiseuxSeries(n=w.n, kmin=0, vals=np.zeros(1, complex), trunc=w.trunc)
    dq = Q.degree
    m = len(w.vals)
    trunc = w.trunc + 1 - dq
    if trunc < w.n:
        raise TruncationTooShort(
            f"truncation {w.trunc} too short for deg Q = {dq}"
        )
    b = _series_eval_in_g(list(Q.coeffs), w.vals, m)
    return PuiseuxSeries(n=w.n, kmin=-dq, vals=b, trunc=trunc)


def extract_psi(series: PuiseuxSeries, f: int) -> PuiseuxSeries:
    """Sub-series on the indices k = 0 mod n/f (the block-invariant part)."""
    n = series.n
    if f < 1 or n % f != 0 or f == n:
        raise InvalidDivisor(f"f = {f} must properly divide n = {n}")
    step = n // f
    vals = series.vals.copy()
    for j in range(len(vals)):
        if (series.kmin + j) % step != 0:
            vals[j] = 0.0
    return PuiseuxSeries(n=n, kmin=series.kmin, vals=vals, trunc=series.trunc)


def recover_polynomial(
    psi: PuiseuxSeries, w: PuiseuxSeries, tol: Tolerances = Tolerances()
) -> ComplexPoly:
    """Polynomial S with S(w(u)) = psi, by leading-term elimination.

    The most negative live index of psi fixes deg S; powers of w are
    subtracted from the top down.  A residual above tol.recover means psi
    does not descend to a polynomial in this branch (wrong index class or
    noise) and raises RecoveryFailure.
    """
    m = len(w.vals)
    sig = psi.support(tol=1e-13)
    if not sig:
        return ComplexPoly()
    deg = max(0, -min(sig))
    res = {k: psi.coeff(k) for k in range(psi.kmin, psi.trunc + 1)}
    valid_to = min(psi.trunc, w.trunc + 1 - deg) if deg else psi.trunc
    g = w.vals
    gpow = np.zeros(m, dtype=complex)
    gpow[0] = 1.0
    pows = [gpow]
    for _ in range(deg):
        pows.append(_ps_mul(pows[-1], g, m))
    coeffs = [0j] * (deg + 1)
    for j in range(deg, 0, -1):
        c = res.get(-j, 0.0) / pows[j][0]
        coeffs[j] = c
        for t in range(m):
            k = t - j
            if k in res:
                res[k] -= c * pows[j][t]
    coeffs[0] = res.get(0, 0.0)
    res[0] = 0.0
    worst = max(
        (abs(v) for k, v in res.items() if k <= valid_to), default=0.0
    )
    if worst > tol.recover * psi.scale():
        raise RecoveryFailure(
            f"residual {worst:.3g} after elimination; no polynomial descent"
        )
    return ComplexPoly(coeffs)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _gauss_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: one eigen-solve
    per node count and process, since counts repeat across queries."""
    x, wt = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = wt.flags.writeable = False
    return x, wt


def default_nodes(degree: int) -> int:
    """Node count of the Gauss rule exact for every integrand of degree below
    `degree`: m nodes integrate degree 2m - 1 exactly."""
    return max(1, -(-degree // 2))


def _segment_moments(pt: np.ndarray, factors, I: int, nodes: int):
    """Sums of w_k P~(x_k)^i f(x_k) over the Gauss rule, i = 0..I, and their L1
    bounds, where P~ has Chebyshev coefficients pt and f is the product of
    the Chebyshev series in factors: the one quadrature loop on the segment."""
    if nodes > MAX_GAUSS_NODES:
        raise MalformedInput(
            f"the moments need a {nodes}-node Gauss rule, above {MAX_GAUSS_NODES}: lower I"
        )
    # np.polynomial loads on first use, so runs that never integrate skip it
    chebval = np.polynomial.chebyshev.chebval
    x, wt = _gauss_rule(nodes)
    acc = wt.astype(complex)
    for c in factors:
        acc = acc * chebval(x, c)
    pv = chebval(x, pt)
    moments, scales = [], []
    for _ in range(I + 1):
        moments.append(complex(np.sum(acc)))
        scales.append(float(np.sum(np.abs(acc))))
        acc = acc * pv
    return moments, scales


def quadrature_moments(
    P: ComplexPoly,
    Q: ComplexPoly,
    a: complex,
    b: complex,
    I: int,
    with_scales: bool = False,
):
    """Moments m_i = integral over [a, b] of P^i Q' dz, i = 0..I.

    The straight segment suffices: the integrand is entire.  With z = m + h x
    the moment is the integral over [-1, 1] of P~(x)^i dQ~/dx, with P~, Q~
    in the Chebyshev basis of the segment (`poly.segment_chebyshev`), and
    the default rule of ceil((I n + deg Q)/2) nodes integrates it exactly.
    With with_scales, also returns the L1 bounds used for relative
    smallness tests.
    """
    moments, scales = segment_moments(segment_chebyshev(P, a, b), Q, a, b, I)
    if with_scales:
        return moments, scales
    return moments


def segment_moments(pt: np.ndarray, Q: ComplexPoly, a: complex, b: complex, I: int):
    """The moments of `quadrature_moments` and their L1 bounds, for the P
    whose Chebyshev coefficients on the segment are pt."""
    nodes = default_nodes(I * (len(pt) - 1) + max(Q.degree, 0))
    dq = np.polynomial.chebyshev.chebder(segment_chebyshev(Q, a, b))
    return _segment_moments(pt, [dq], I, nodes)


def h_series(P: ComplexPoly, Q: ComplexPoly, a: complex, b: complex, I: int):
    """First I+1 Taylor coefficients of -H(t) at infinity: integrals P^i Q P' dz,
    with Q renormalized to Q(a) = 0."""
    nodes = default_nodes((I + 1) * max(P.degree, 0) + max(Q.degree, 0))
    pt = segment_chebyshev(P, a, b)
    factors = [segment_chebyshev(Q - Q(a), a, b), np.polynomial.chebyshev.chebder(pt)]
    return _segment_moments(pt, factors, I, nodes)[0]


# ---------------------------------------------------------------------------
# vanishing verification
# ---------------------------------------------------------------------------


@dataclass
class MomentReport:
    """Diagnostics of the three vanishing checks; verdict is their conjunction."""

    moments: list[complex]
    moment_residual: float
    phi_residuals: dict[int, float]
    relation_residual: float
    support: list[int]
    puiseux_violations: list[int]
    verdict: bool
    # the expansion behind view (iii), for decompose_solution: the inverse
    # branch w of the range-rescaled P and the series of Q - Q(a) in it
    w: PuiseuxSeries | None = field(default=None, repr=False, compare=False)
    series: PuiseuxSeries | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "moments": [[m.real, m.imag] for m in self.moments],
            "moment_residual": self.moment_residual,
            "phi_residuals": {str(s): r for s, r in self.phi_residuals.items()},
            "relation_residual": self.relation_residual,
            "support": list(self.support),
            "puiseux_violations": list(self.puiseux_violations),
            "verdict": bool(self.verdict),
        }


def sample_ray(md: MonodromyData):
    """Eight geometrically spaced points on a ray from the basepoint away from
    the critical values (staying clear of every arc of the star)."""
    c = md.base_point
    ctr = sum(md.critical_values) / len(md.critical_values)
    u = (c - ctr) / abs(c - ctr)
    s0 = max(1.0, max(abs(v - c) for v in md.critical_values))
    return [c + s0 * (2.0**j) * u for j in range(1, 9)]


def branch_samples(P: ComplexPoly, md: MonodromyData, points, tol: Tolerances = Tolerances()):
    """Fiber values at the given ray points, branch order as in md.fiber."""
    return continue_branches(P, [md.base_point, *points], np.array(md.fiber), tol)[1:]


class VerifierData:
    """What `verify_vanishing` reads of an instance: P, a, b, D and S, the
    fibers at the sample ray (one row per point), the sign vectors and the
    basis of M as float rows, P's Chebyshev coefficients on the segment, and
    per truncation N, in a small LRU, the inverse branch w of the
    range-rescaled P.  Every array is read-only."""

    def __init__(self, P, a, b, md: MonodromyData, fvectors, M: RationalSubspace, D, S, tol):
        self.P, self.a, self.b, self.D, self.S = P, a, b, D, S
        self.fibers = np.array(branch_samples(P, md, sample_ray(md), tol))
        self.fv, self.basis = (
            np.array([[float(x) for x in v] for v in vs]).reshape(-1, P.degree)
            for vs in (fvectors, M.basis)
        )
        self.pt = segment_chebyshev(P, a, b)
        for x in (self.fibers, self.fv, self.basis, self.pt):
            x.flags.writeable = False
        rescaled = range_rescaled(P, md)

        @functools.lru_cache(maxsize=8)
        def inverse(N: int) -> PuiseuxSeries:
            w = puiseux_inverse(rescaled, N)
            w.vals.flags.writeable = False
            return w

        self.inverse = inverse


def check_counts(I, N: int | None, n: int, deg_q: int) -> None:
    """Refuse a moment count I that is not an integer >= 0 and a truncation N
    that is not an integer, is above MAX_TRUNCATION, or is shorter than the
    expansion of Q(P^-1) needs for deg P = n: the inversion needs N >= n, and
    Q(w) keeps N + 1 - deg Q of its orders.  Callers run it before they
    build the instance's `VerifierData`, which tracks the sample ray."""
    if isinstance(I, bool) or not isinstance(I, numbers.Integral) or I < 0:
        raise MalformedInput(f"the moment count I must be an integer >= 0, got {I!r}")
    if N is None:
        return
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise MalformedInput(f"the truncation N must be an integer, got {N!r}")
    if N > MAX_TRUNCATION:
        raise MalformedInput(f"truncation N = {N} is above {MAX_TRUNCATION}")
    if deg_q >= 1 and N < n + deg_q - 1:
        raise MalformedInput(
            f"truncation N = {N} is below n + deg Q - 1 = {n + deg_q - 1}"
        )


def verify_vanishing(
    data: VerifierData,
    Q: ComplexPoly,
    I: int = 25,
    N: int | None = None,
    tol: Tolerances = Tolerances(),
) -> MomentReport:
    """Run the three equivalent vanishing checks and report.

    (i) all quadrature moments small relative to their L1 bounds; (ii) the
    sampled branch relation sum_i v_i Q(P_i^-1) vanishes on a ray for every
    color vector and every basis vector of the invariant subspace; (iii) for
    every live series index k the twist vector (eps^(k(i-1)))_i is orthogonal
    to the subspace M = sum of U_d over the divisor set S of the lattice D.
    View (iii) is exact: index k violates it iff the piece holding frequency
    k (`permgroup.piece_of`) is in S.  The verdict is the conjunction.
    """
    n, a = data.P.degree, data.a
    check_counts(I, N, n, Q.degree)
    Qn = Q - Q(a)
    moments, scales = segment_moments(data.pt, Qn, a, data.b, I)
    m_res = max(
        abs(m) / (s + 1.0) for m, s in zip(moments, scales)
    )
    ok_moments = m_res <= tol.moment

    qvals = [eval_many(Qn, f) for f in data.fibers]
    scales = [max(1.0, float(np.max(np.abs(qv)))) for qv in qvals]

    def relations(V: np.ndarray) -> list:
        """Per row v of V, the largest |sum_i v_i Q(w_i)| / scale over the ray,
        as numpy scalars: a NotASolution message prints them."""
        rows = [_modulus((V * qv).sum(axis=1)) / sc for qv, sc in zip(qvals, scales)]
        return list(np.max(rows, axis=0))

    phi_residuals = dict(enumerate(relations(data.fv), start=1))
    rel_res = max([*phi_residuals.values(), *relations(data.basis)], default=0.0)
    ok_phi = rel_res <= tol.phi

    w = series = None
    support: list[int] = []
    if not Qn.is_zero():
        w = data.inverse(default_truncation(n, Qn.degree) if N is None else N)
        series = q_of_inverse(Qn, w)
        support = series.support(tol.support)
    violations = [k for k in support if piece_of(data.D, k) in data.S]
    ok_puiseux = not violations

    return MomentReport(
        moments=moments,
        moment_residual=m_res,
        phi_residuals=phi_residuals,
        relation_residual=rel_res,
        support=support,
        puiseux_violations=violations,
        verdict=bool(ok_moments and ok_phi and ok_puiseux),
        w=w,
        series=series,
    )


def brc_elements(cactus: Cactus, same_value: bool):
    """The guaranteed subspace members attached to the endpoint vertices.

    With P(a) = P(b): one vector, 1/d_a on V(a) minus 1/d_b on V(b).
    Otherwise two vectors, the normalized indicators of V(a) and of V(b).
    """
    n = cactus.n
    va, vb = cactus.V_a, cactus.V_b
    da, db = cactus.d_a, cactus.d_b
    if same_value:
        v = [Fraction(0)] * n
        for i in va:
            v[i - 1] += Fraction(1, da)
        for i in vb:
            v[i - 1] -= Fraction(1, db)
        return [tuple(v)]
    out = []
    for idx, d in ((va, da), (vb, db)):
        v = [Fraction(0)] * n
        for i in idx:
            v[i - 1] = Fraction(1, d)
        out.append(tuple(v))
    return out
