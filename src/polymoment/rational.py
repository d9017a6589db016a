"""Exact linear algebra over Q^n with arbitrary-precision rationals.

Subspaces are kept in reduced row-echelon form, so two subspaces are equal
iff their stored bases are identical tuples.  Everything is built on
fractions.Fraction; no floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch

RationalVector = tuple[Fraction, ...]


def vec(entries) -> RationalVector:
    """Coerce a sequence of ints/Fractions/strings 'num/den' to a vector."""
    return tuple(Fraction(e) for e in entries)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    work = [list(r) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    out: list[list[Fraction]] = []
    for col in range(ncols):
        piv = None
        for i, r in enumerate(work):
            if r[col] != 0:
                piv = i
                break
        if piv is None:
            continue
        row = work.pop(piv)
        inv = row[col]
        row = [x / inv for x in row]
        work = [
            [x - r[col] * y for x, y in zip(r, row)] if r[col] != 0 else r for r in work
        ]
        out.append(row)
    # clear above pivots
    for i in range(len(out) - 1, -1, -1):
        pc = next(j for j, x in enumerate(out[i]) if x != 0)
        for k in range(i):
            f = out[k][pc]
            if f != 0:
                out[k] = [x - f * y for x, y in zip(out[k], out[i])]
    return out


@dataclass(frozen=True)
class RationalSubspace:
    """Subspace of Q^n with a canonical RREF basis."""

    n: int
    basis: tuple[RationalVector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, v) -> bool:
        return contains(self, v)


def span(vectors, n: int | None = None) -> RationalSubspace:
    """Canonical RREF span of the given vectors."""
    vectors = [vec(v) for v in vectors]
    if n is None:
        if not vectors:
            raise DimensionMismatch("ambient dimension required for empty span")
        n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch(f"vector length {len(v)} != {n}")
    rows = _rref([list(v) for v in vectors])
    return RationalSubspace(n, tuple(tuple(r) for r in rows))


def zero_subspace(n: int) -> RationalSubspace:
    return RationalSubspace(n, ())


def full_space(n: int) -> RationalSubspace:
    rows = []
    for i in range(n):
        r = [Fraction(0)] * n
        r[i] = Fraction(1)
        rows.append(tuple(r))
    return RationalSubspace(n, tuple(rows))


def _reduce_against(basis, v):
    """Reduce v against RREF rows; returns the remainder."""
    v = list(v)
    for row in basis:
        pc = next(j for j, x in enumerate(row) if x != 0)
        if v[pc] != 0:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def contains(u: RationalSubspace, v) -> bool:
    """Exact membership (vector) or inclusion (subspace) test."""
    if isinstance(v, RationalSubspace):
        if v.n != u.n:
            raise DimensionMismatch("ambient dimensions differ")
        return all(contains(u, row) for row in v.basis)
    v = vec(v)
    if len(v) != u.n:
        raise DimensionMismatch(f"vector length {len(v)} != {u.n}")
    return all(x == 0 for x in _reduce_against(u.basis, v))


def add(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    if u.n != v.n:
        raise DimensionMismatch("ambient dimensions differ")
    return span(list(u.basis) + list(v.basis), u.n)


def orth_complement(u: RationalSubspace) -> RationalSubspace:
    """{x : sum_i x_i b_i = 0 for all basis rows b} under the standard form."""
    n = u.n
    if not u.basis:
        return full_space(n)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in u.basis]
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, pc in zip(u.basis, pivots):
            x[pc] = -row[f]
        rows.append(x)
    return span(rows, n)


def intersect(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    """u cap v, computed as the complement of the sum of complements."""
    if u.n != v.n:
        raise DimensionMismatch("ambient dimensions differ")
    return orth_complement(add(orth_complement(u), orth_complement(v)))


def apply_permutation(images, v) -> RationalVector:
    """Coordinate action (g.x)_i = x_{i^g}, images 1-based."""
    v = vec(v)
    return tuple(v[images[i] - 1] for i in range(len(v)))


def invariant_closure(seed, gens, n: int | None = None) -> RationalSubspace:
    """Smallest subspace containing the seed vectors and stable under every
    generator's coordinate permutation.

    Iterates "apply generators to the current basis, re-span" until the
    dimension stabilizes; this saturates the full group orbit (each generator
    has finite order) without enumerating the group.
    """
    seed = [vec(v) for v in seed]
    if n is None:
        if not seed:
            raise DimensionMismatch("ambient dimension required for empty seed")
        n = len(seed[0])
    cur = span(seed, n) if seed else zero_subspace(n)
    images = [getattr(g, "images", g) for g in gens]
    while True:
        new_rows = list(cur.basis)
        for g in images:
            for row in cur.basis:
                new_rows.append(apply_permutation(g, row))
        nxt = span(new_rows, n)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


def vector_to_json(v) -> list[str]:
    return [f"{x.numerator}/{x.denominator}" for x in vec(v)]


def vector_from_json(items) -> RationalVector:
    return vec(items)
