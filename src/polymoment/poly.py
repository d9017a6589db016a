"""Dense complex polynomials: arithmetic, root finding, composition, decomposition.

A polynomial is stored as a tuple of complex coefficients in ascending degree
order with exact trailing zeros trimmed.  The zero polynomial has an empty
coefficient tuple and degree -1.

Right-factor decomposition p = A(B(z)) is normalized so that B is monic with
B(0) = 0; with that normalization the pair (A, B) is unique for a given
degree of B, which makes decompositions comparable and testable.

Evaluation has one Horner kernel per shape: `eval_poly` at a single point
and `eval_many` over an array (the root finder's P, P' and rounding scale,
and the verifier's branch samples).  On a segment, `segment_chebyshev` plus
Clenshaw is the evaluator.

The settable thresholds of the numerical checks live in one frozen
`Tolerances`, defined here because every module that checks against one
imports this module.  Callers pass it explicitly; a `ProblemInstance`
carries its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DegreeTooLow,
    InvalidDegree,
    NoConvergence,
    NotNormalizable,
)


@dataclass(frozen=True)
class Tolerances:
    """The thresholds of the numerical checks; the CLI sets each by --tol-<field>.
    `roots` iterates to min(root, 1e-12), so `root` only tightens it below 1e-12.
    W(a) = W(b) takes none: the tree decides it (`Cactus.identifies`)."""

    root: float = 1e-10
    cluster: float = 1e-8
    decomp: float = 1e-9
    # tracking accuracy feeds the sampled branch relations of the verifier, whose
    # tolerance is 1e-9; the corrector is quadratic, so a tight target is cheap
    track: float = 1e-12
    moment: float = 1e-9
    phi: float = 1e-9
    support: float = 1e-9
    recover: float = 1e-8
    block: float = 1e-8


@dataclass(frozen=True)
class ComplexPoly:
    """Dense complex polynomial, coefficients ascending, trailing zeros trimmed."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex) -> complex:
        return eval_poly(self, z)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return ComplexPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexPoly([c * other for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return ComplexPoly()
        out = np.convolve(np.array(self.coeffs), np.array(other.coeffs))
        return ComplexPoly(out.tolist())

    __rmul__ = __mul__

    def __repr__(self):
        return f"ComplexPoly({list(self.coeffs)!r})"

    @property
    def leading(self) -> complex:
        if self.is_zero():
            return 0.0
        return self.coeffs[-1]

    def coeff_scale(self) -> float:
        """Max coefficient magnitude (1.0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=1.0) or 1.0


X = ComplexPoly([0, 1])


def _coerce(v) -> ComplexPoly:
    if isinstance(v, ComplexPoly):
        return v
    if isinstance(v, (int, float, complex)):
        return ComplexPoly([v])
    raise TypeError(f"cannot interpret {v!r} as a polynomial")


def eval_poly(p: ComplexPoly, z: complex) -> complex:
    """Value of p at z by Horner's scheme (0 for the zero polynomial)."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def eval_many(p: ComplexPoly, z: np.ndarray, magnitude: bool = False):
    """Horner values of p over a numpy array of points.

    With magnitude, the same loop also returns sum_j |c_j| |z|^j, the scale
    of the rounding error of each value: (values, magnitude sums).
    """
    acc = np.zeros_like(z, dtype=complex)
    if magnitude:
        scale, az = np.zeros(z.shape), np.abs(z)
    for c in reversed(p.coeffs):
        acc = acc * z + c
        if magnitude:
            scale = scale * az + abs(c)
    return (acc, scale) if magnitude else acc


def derivative(p: ComplexPoly) -> ComplexPoly:
    """Formal derivative."""
    return ComplexPoly([k * c for k, c in enumerate(p.coeffs)][1:])


def compose(outer: ComplexPoly, inner: ComplexPoly) -> ComplexPoly:
    """Coefficients of outer(inner(z)), by Horner over polynomials."""
    acc = ComplexPoly()
    for c in reversed(outer.coeffs):
        acc = acc * inner + ComplexPoly([c])
    return acc


def chebyshev(n: int) -> ComplexPoly:
    """Chebyshev polynomial T_n from T_{n+1} = 2 z T_n - T_{n-1}."""
    if n < 0:
        raise InvalidDegree("n must be >= 0")
    t0, t1 = ComplexPoly([1]), X
    if n == 0:
        return t0
    for _ in range(n - 1):
        t0, t1 = t1, 2 * X * t1 - t0
    return t1


def _dyadic(x: float) -> tuple[int, int]:
    """(k, e) with x = k / 2**e exactly."""
    if not math.isfinite(x):
        raise DegenerateInput(f"non-finite value {x!r}")
    k, den = x.as_integer_ratio()
    return k, den.bit_length() - 1


def _times_2x(v: list[int]) -> list[int]:
    """Chebyshev coefficients of 2x * f from those of f: 2x T_0 = 2 T_1 and
    2x T_l = T_(l+1) + T_(l-1)."""
    out = [0, *v]
    out[1] += v[0]
    out[:-2] = [x + y for x, y in zip(out[:-2], v[1:])]
    return out


def segment_chebyshev(p: ComplexPoly, a: complex, b: complex) -> np.ndarray:
    """Chebyshev coefficients of x -> p(m + h x), m = (a + b)/2, h = (b - a)/2.

    This is the evaluator of p on the segment [a, b], by Clenshaw at x in
    [-1, 1].  The float inputs are dyadic rationals, so the substitution and
    the change of basis run exactly, on Gaussian integers over one common
    power-of-two scale, and each coefficient is rounded once at the end.  A
    polynomial that stays small on the segment has small Chebyshev
    coefficients there, whatever the size of its monomial ones.
    """
    a, b = complex(a), complex(b)
    if p.is_zero():
        return np.zeros(1, dtype=complex)
    n = p.degree
    cs = [_dyadic(v) for c in p.coeffs for v in (c.real, c.imag)]
    ends = [_dyadic(v) for v in (a.real, a.imag, b.real, b.imag)]
    ec = max(e for _, e in cs)
    ez = max(e for _, e in ends)
    cre = [k << (ec - e) for k, e in cs[0::2]]
    cim = [k << (ec - e) for k, e in cs[1::2]]
    ar, ai, br, bi = (k << (ez - e) for k, e in ends)
    # z = (M + H x) / s with M = ar + br, H = br - ar, s = 2**(ez + 1); then
    # 2^n s^n 2^ec p(z) = sum_j C_j Y^j (2s)^(n-j) with Y = 2M + H * 2x, whose
    # Chebyshev coefficients stay integers: homogeneous Horner in Y
    mr, mi = 2 * (ar + br), 2 * (ai + bi)
    hr, hi = br - ar, bi - ai
    step = 1 << (ez + 2)
    re, im = [cre[n]], [cim[n]]
    lift = 1
    for j in range(n - 1, -1, -1):
        terms = list(zip(re + [0], im + [0], _times_2x(re), _times_2x(im)))
        re = [mr * r - mi * i + hr * xr - hi * xi for r, i, xr, xi in terms]
        im = [mr * i + mi * r + hr * xi + hi * xr for r, i, xr, xi in terms]
        lift *= step
        re[0] += cre[j] * lift
        im[0] += cim[j] * lift
    den = 1 << (ec + n * (ez + 2))
    try:
        return np.array([complex(r / den, i / den) for r, i in zip(re, im)])
    except OverflowError:
        raise NotNormalizable("p on the segment exceeds the float range") from None


def poly_div(p: ComplexPoly, d: ComplexPoly) -> tuple[ComplexPoly, ComplexPoly]:
    """Quotient and remainder of p by d (d nonzero)."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p.coeffs)
    dd = d.degree
    lc = d.leading
    q = [0j] * max(0, len(r) - dd)
    for k in range(len(r) - dd - 1, -1, -1):
        f = r[k + dd] / lc
        q[k] = f
        for j in range(dd + 1):
            r[k + j] -= f * d.coeffs[j]
    return ComplexPoly(q), ComplexPoly(r[:dd])


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

# Aberth iterations per start, and starts (one on a circle, then random)
MAX_ITER = 600
RESTARTS = 8


def _aberth_pass(p, zs, tol):
    """Ehrlich-Aberth simultaneous iteration; returns (roots, converged)."""
    pscale = p.coeff_scale()
    dp = derivative(p)
    for _ in range(MAX_ITER):
        pv, sc = eval_many(p, zs, magnitude=True)
        if np.all(np.abs(pv) <= tol * (sc + pscale)):
            return zs, True
        dv = eval_many(dp, zs)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = zs[:, None] - zs[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        # damp absurd steps far from convergence
        lim = 0.5 * (1.0 + np.abs(zs))
        mag = np.abs(step)
        big = mag > lim
        step = np.where(big, step / np.where(big, mag, 1.0) * lim, step)
        zs = zs - step
    pv, sc = eval_many(p, zs, magnitude=True)
    return zs, bool(np.all(np.abs(pv) <= 1e3 * tol * (sc + pscale)))


def _cluster(points, radius):
    """Single-linkage components at the given radius; list of index lists."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _refine_multiple(p, z0, m):
    """Newton-polish an m-fold root candidate on the (m-1)-st derivative."""
    for _ in range(m - 1):
        p = derivative(p)
    dp = derivative(p)
    z = z0
    for _ in range(60):
        dv = dp(z)
        if dv == 0:
            break
        step = p(z) / dv
        z -= step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _recon_error(coeffs, root_multiset):
    """Max coefficient mismatch between prod(z - r) and the monic coeffs."""
    prod = [1.0 + 0j]
    for r in root_multiset:
        nxt = [0j] * (len(prod) + 1)
        for i, c in enumerate(prod):
            nxt[i] -= c * r
            nxt[i + 1] += c
        prod = nxt
    scale = max(abs(c) for c in coeffs)
    return max(abs(x - y) for x, y in zip(prod, coeffs)) / scale


def _collapse(p, pts, scale, floor_radius):
    """Group approximations into multiple roots; returns the root list.

    A candidate cluster of size m is replaced by m copies of the polished
    centroid exactly when that replacement does not worsen the global
    coefficient-level reconstruction of p; this accepts genuine multiple
    roots (whose individual approximations are only (tol)^(1/m) accurate)
    and rejects accidental near-pairs decisively.  Rejected clusters are
    re-split at smaller radii.
    """
    best = list(pts)
    best_err = [_recon_error(p.coeffs, best)]

    def try_merge(indices) -> bool:
        m = len(indices)
        centroid = sum(best[i] for i in indices) / m
        z = _refine_multiple(p, centroid, m)
        if max(abs(z - best[i]) for i in indices) > 4 * max(
            abs(best[x] - best[y]) for x in indices for y in indices
        ) + floor_radius:
            return False
        trial = list(best)
        for i in indices:
            trial[i] = z
        err = _recon_error(p.coeffs, trial)
        if err <= max(1.2 * best_err[0], 1e-12):
            best[:] = trial
            best_err[0] = err
            return True
        return False

    def handle(indices, radius):
        if len(indices) == 1:
            return
        if try_merge(indices):
            return
        sub_r = radius / 3.0
        group_pts = [best[i] for i in indices]
        diam = max(abs(x - y) for x in group_pts for y in group_pts)
        while sub_r > 1e-15 * scale:
            parts = _cluster(group_pts, sub_r)
            if len(parts) > 1:
                for part in parts:
                    handle([indices[t] for t in part], sub_r)
                return
            sub_r = min(sub_r / 3.0, diam * 0.99)
        # indistinguishable points that still refuse to merge: keep as-is

    start_r = max(0.5 * scale, floor_radius)
    for part in _cluster(list(pts), start_r):
        handle(part, start_r)
    return best


def roots(p: ComplexPoly, tol: Tolerances = Tolerances(), seed: int = 0) -> list[complex]:
    """All deg(p) roots with multiplicity, by simultaneous iteration.

    The iteration targets a backward error well below tol.root; clusters of
    approximations are then collapsed into multiple roots whenever the
    collapse does not worsen the coefficient-level reconstruction of p (the
    approximations of an m-fold root are individually only (tol)^(1/m)
    accurate, so a fixed clustering radius cannot decide).  Collapsed roots
    are re-polished on the (m-1)-st derivative.

    Raises DegreeTooLow for constants, NoConvergence if every restart fails.
    """
    n = p.degree
    if n < 1:
        raise DegreeTooLow("need degree >= 1 to extract roots")
    monic = ComplexPoly([c / p.leading for c in p.coeffs])
    cauchy = 1.0 + max(abs(c) for c in monic.coeffs[:-1])
    inner_tol = min(tol.root, 1e-12)
    rng = np.random.RandomState(seed)
    for attempt in range(RESTARTS):
        if attempt == 0:
            ang = 2 * np.pi * np.arange(n) / n + 0.4
            init = 0.7 * cauchy * np.exp(1j * ang) + 0.1
        else:
            init = cauchy * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        zs, ok = _aberth_pass(monic, init.astype(complex), inner_tol)
        if ok:
            break
    else:
        raise NoConvergence(f"root iteration failed after {RESTARTS} restarts")
    scale = 1.0 + max(abs(z) for z in zs)
    floor = max(tol.cluster, 1e-8) * scale if tol.cluster <= 1e-6 else tol.cluster
    found = _collapse(monic, [complex(z) for z in zs], scale, floor)
    return sorted(found, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


# ---------------------------------------------------------------------------
# composition factors
# ---------------------------------------------------------------------------


def decompose_right(
    p: ComplexPoly, m: int, tol: Tolerances = Tolerances()
) -> tuple[ComplexPoly, ComplexPoly] | None:
    """Split p = A(B(z)) with deg B = m, B monic and B(0) = 0, if possible.

    The top m-1 coefficients of p force B through a triangular system (only
    the a_r B^r term of A(B) reaches degrees above n-m); A is then read off
    the B-adic digits of p, which must all be constants.  Returns None when
    the unique normalized candidate fails to reproduce p within tol.decomp.
    """
    n = p.degree
    if n < 2:
        raise DegreeTooLow("need degree >= 2")
    if m < 1 or n % m != 0:
        raise InvalidDegree(f"{m} does not divide {n}")
    r = n // m
    pm = ComplexPoly([c / p.leading for c in p.coeffs])
    scale = pm.coeff_scale()

    b = [0j] * (m + 1)
    b[m] = 1.0
    for j in range(1, m):
        bj = ComplexPoly(b)
        pw = bj
        for _ in range(r - 1):
            pw = pw * bj
        cur = pw.coeffs[n - j] if n - j < len(pw.coeffs) else 0.0
        b[m - j] = (pm.coeffs[n - j] - cur) / r
    B = ComplexPoly(b)

    digits = []
    rest = pm
    for _ in range(r + 1):
        rest, dig = poly_div(rest, B)
        digits.append(dig)
    a = []
    for dig in digits:
        cs = dig.coeffs
        a.append(cs[0] if cs else 0.0)
        if any(abs(c) > tol.decomp * scale for c in cs[1:]):
            return None
    A = ComplexPoly([x * p.leading for x in a])
    resid = p - compose(A, B)
    # the honest conditioning scale of the recomposition
    cond = compose(
        ComplexPoly([abs(c) for c in A.coeffs]), ComplexPoly([abs(c) for c in B.coeffs])
    ).coeff_scale()
    if any(abs(c) > tol.decomp * max(p.coeff_scale(), cond) for c in resid.coeffs):
        return None
    return A, B


def decompose_outer(
    s: ComplexPoly, b: ComplexPoly, tol: Tolerances = Tolerances()
) -> ComplexPoly | None:
    """Find R with s = R(b(z)) for a known inner factor b, via b-adic digits."""
    if b.degree < 1:
        return None
    scale = max(s.coeff_scale(), 1.0)
    digits = []
    rest = s
    while not rest.is_zero():
        scale = max(scale, rest.coeff_scale())
        rest, dig = poly_div(rest, b)
        digits.append(dig)
        if len(digits) > s.degree + 2:
            break
    out = []
    for dig in digits:
        cs = dig.coeffs
        out.append(cs[0] if cs else 0.0)
        if any(abs(c) > tol.decomp * scale for c in cs[1:]):
            return None
    R = ComplexPoly(out)
    resid = s - compose(R, b)
    if any(abs(c) > tol.decomp * scale for c in resid.coeffs):
        return None
    return R


def affine_equivalent(
    w1: ComplexPoly, w2: ComplexPoly, tol: Tolerances = Tolerances()
) -> tuple[complex, complex] | None:
    """(alpha, beta) with w2 = alpha*w1 + beta within tol.decomp, else None."""
    if w1.degree != w2.degree or w1.degree < 1:
        return None
    alpha = w2.leading / w1.leading
    diff = w2 - alpha * w1
    beta = diff.coeffs[0] if diff.coeffs else 0.0
    rem = diff - ComplexPoly([beta])
    scale = max(w1.coeff_scale(), w2.coeff_scale())
    if any(abs(c) > tol.decomp * scale for c in rem.coeffs):
        return None
    return alpha, beta


# ---------------------------------------------------------------------------
# JSON encoding: {"coeffs": [[re, im], ...]} ascending degree
# ---------------------------------------------------------------------------


def poly_to_json(p: ComplexPoly) -> dict:
    return {"coeffs": [[c.real, c.imag] for c in p.coeffs]}


def poly_from_json(obj) -> ComplexPoly:
    return ComplexPoly([complex(re, im) for re, im in obj["coeffs"]])
