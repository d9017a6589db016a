"""Permutation groups containing a full cycle and their invariant subspaces.

For a transitive group G on {1..n} that contains the cycle (1 2 ... n), every
imprimitivity system consists of the residue classes modulo a divisor d of n.
The set D of such divisors is a lattice under gcd/lcm; the irreducible
invariant subspaces of Q^n are U_d = V_d cap (intersection of V_f-perp over
the f covered by d), where V_d is the space of d-periodic vectors.

The algebra responsible for this is the centralizer ring of the permutation
matrix representation: every matrix in it is a circulant, hence the whole
computation lives in the cyclic group algebra (circulant first row <->
exponent-coefficient vector, matrix product <-> cyclic convolution).  The
basic sets of the corresponding subalgebra are the orbits of the stabilizer
of 1, and the divisor set is self-dual: d is admissible for G iff n/d is
admissible on the algebra side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BlockMismatch, InvalidDivisor, NotClosed, NotFullCycle, NotTransitive


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}; images[i-1] = i^g.  Products act left-to-right."""

    images: tuple[int, ...]

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # i^(g*h) = (i^g)^h
        return Permutation(tuple(other.images[j - 1] for j in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = True) -> list[tuple[int, ...]]:
        """Disjoint cycles in increasing order of their minimal element."""
        seen = [False] * self.n
        out = []
        for i in range(1, self.n + 1):
            if seen[i - 1]:
                continue
            cyc = [i]
            seen[i - 1] = True
            j = self(i)
            while j != i:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            if include_fixed or len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __repr__(self):
        nontrivial = self.cycles(include_fixed=False)
        if not nontrivial:
            return f"Permutation(id_{self.n})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)
        return f"Permutation[{self.n}]{body}"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def full_cycle(n: int) -> Permutation:
    """The cycle (1 2 ... n)."""
    return Permutation(list(range(2, n + 1)) + [1])


def from_cycles(n: int, cycles) -> Permutation:
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            images[a - 1] = b
    return Permutation(images)


def perm_to_json(g: Permutation) -> list[int]:
    return list(g.images)


def _class_map(g: Permutation, d: int) -> set[tuple[int, int]]:
    """The pairs ((i - 1) mod d, (g(i) - 1) mod d) over i = 1..n: g maps
    the residue classes mod d to classes exactly when there are d of them."""
    return {(i % d, (t - 1) % d) for i, t in enumerate(g.images)}


def act_on_classes(g: Permutation, d: int) -> Permutation:
    """The permutation g induces on the residue classes mod d (class j holds
    the i = j mod d); BlockMismatch when g splits a class."""
    pairs = _class_map(g, d)
    if len(pairs) != d:
        raise BlockMismatch(f"{g!r} splits a residue class mod {d}")
    return Permutation([t + 1 for _, t in sorted(pairs)])


def divisors_of(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# divisor lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorLattice:
    """A gcd/lcm-closed set of divisors of n with its cover relation."""

    n: int
    divisors: tuple[int, ...]
    covers: dict[int, tuple[int, ...]]

    def __post_init__(self):
        ds = set(self.divisors)
        if 1 not in ds or self.n not in ds:
            raise InvalidDivisor("a divisor lattice must contain 1 and n")
        for a in ds:
            for b in ds:
                if math.gcd(a, b) not in ds or math.lcm(a, b) not in ds:
                    raise InvalidDivisor("divisor set is not gcd/lcm closed")


def _covers(divs: set[int]) -> dict[int, tuple[int, ...]]:
    out = {}
    for d in divs:
        cov = []
        for f in divs:
            if f >= d or d % f != 0:
                continue
            if any(f < x < d and x % f == 0 and d % x == 0 for x in divs):
                continue
            cov.append(f)
        out[d] = tuple(sorted(cov))
    return out


def make_lattice(n: int, divs) -> DivisorLattice:
    divs = set(divs)
    return DivisorLattice(n, tuple(sorted(divs)), _covers(divs))


def full_divisor_lattice(n: int) -> DivisorLattice:
    return make_lattice(n, divisors_of(n))


def lattice_to_json(lat: DivisorLattice) -> dict:
    return {
        "n": lat.n,
        "divisors": list(lat.divisors),
        "covers": {str(d): list(lat.covers[d]) for d in lat.divisors},
    }


def divisor_lattice(gens, n: int, assume_full_cycle: bool = False) -> DivisorLattice:
    """Divisors d of n for which the residue classes mod d are blocks.

    With a full cycle in the group, imprimitivity reduces to these divisor
    checks: for each generator g and class C mod d, C^g must again be a class
    mod d.  The cost is O(n * len(gens)) per divisor.
    """
    gens = list(gens)
    if not assume_full_cycle and not any(
        g.images == full_cycle(n).images for g in gens
    ):
        raise NotFullCycle("(1 2 ... n) not among generators; pass assume_full_cycle")
    return make_lattice(
        n, [d for d in divisors_of(n) if all(len(_class_map(g, d)) == d for g in gens)]
    )


# ---------------------------------------------------------------------------
# stabilizer orbits (basic sets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurBasis:
    """Partition of the exponents {0..n-1} into orbit sets, {0} first."""

    n: int
    basic_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        all_e = set()
        for t in self.basic_sets:
            all_e |= t
        if all_e != set(range(self.n)) or sum(map(len, self.basic_sets)) != self.n:
            raise NotClosed("basic sets do not partition the exponents")
        if self.basic_sets[0] != frozenset({0}):
            raise NotClosed("the identity exponent 0 must form the first basic set")

    def set_of(self, e: int) -> frozenset[int]:
        for t in self.basic_sets:
            if e % self.n in t:
                return t
        raise KeyError(e)


def stabilizer_orbits(gens, point: int = 1) -> SchurBasis:
    """Orbit partition of {1..n} under the stabilizer of a point.

    A transversal comes from a BFS over the point's orbit (which must be the
    whole domain), Schreier's lemma turns it into generators of the
    stabilizer, and a second BFS gives their orbits.  Points are identified
    with exponents via i <-> i-1.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in gens]
    if not gens:
        raise NotTransitive("no generators")
    n = gens[0].n
    transversal: dict[int, Permutation] = {point: identity(n)}
    queue = [point]
    while queue:
        i = queue.pop()
        for g in gens:
            j = g(i)
            if j not in transversal:
                transversal[j] = transversal[i] * g
                queue.append(j)
    if len(transversal) != n:
        raise NotTransitive(f"orbit of {point} has size {len(transversal)} < {n}")

    schreier = []
    seen = set()
    for i in range(1, n + 1):
        for g in gens:
            u = transversal[i] * g * transversal[g(i)].inverse()
            if u.images not in seen:
                seen.add(u.images)
                schreier.append(u)

    part = [0] * (n + 1)  # 1-based orbit labels, 0 = unvisited
    label = 0
    orbits = []
    for i in range(1, n + 1):
        if part[i]:
            continue
        label += 1
        comp = [i]
        part[i] = label
        queue = [i]
        while queue:
            x = queue.pop()
            for u in schreier:
                y = u(x)
                if not part[y]:
                    part[y] = label
                    comp.append(y)
                    queue.append(y)
        orbits.append(frozenset(x - 1 for x in comp))
    if point != 1:
        # re-center exponents so the fixed point is exponent 0
        shift = point - 1
        orbits = [frozenset((e - shift) % n for e in t) for t in orbits]
    orbits.sort(key=lambda t: min(t))
    if orbits[0] != frozenset({0}):
        raise NotClosed("stabilizer does not fix its own point; input not a group")
    return SchurBasis(n, tuple(orbits))


# ---------------------------------------------------------------------------
# circulant projectors
# ---------------------------------------------------------------------------


def cyclic_convolve(u, v):
    """First row of the product of two circulants with first rows u, v."""
    n = len(u)
    out = [Fraction(0)] * n
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            out[(i + j) % n] += a * b
    return tuple(out)


def circulant_from_row(row):
    """Materialize the circulant matrix M[i][j] = row[(j - i) mod n]."""
    n = len(row)
    return tuple(tuple(row[(j - i) % n] for j in range(n)) for i in range(n))


def sigma_row(n: int, d: int):
    """First row of the averaging projector onto the d-periodic vectors."""
    if d < 1 or n % d != 0:
        raise InvalidDivisor(f"{d} does not divide {n}")
    q = Fraction(d, n)
    return tuple(q if e % d == 0 else Fraction(0) for e in range(n))


def sigma_projector(n: int, d: int):
    """The n x n circulant projector onto V_d: (i, j) entry d/n if i = j mod d."""
    return circulant_from_row(sigma_row(n, d))


def minimal_projector_rows(lattice: DivisorLattice) -> dict[int, tuple]:
    """First rows of the projectors onto the irreducible pieces U_d.

    pi_d = sigma_d * prod over covered f of (I - sigma_f); products are taken
    as cyclic convolutions, which is exact and avoids n^3 rational matrix
    arithmetic.
    """
    n = lattice.n
    eye = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    out = {}
    for d in lattice.divisors:
        row = sigma_row(n, d)
        for f in lattice.covers[d]:
            sf = sigma_row(n, f)
            compl = tuple(e - s for e, s in zip(eye, sf))
            row = cyclic_convolve(row, compl)
        out[d] = row
    return out


def minimal_projectors(lattice: DivisorLattice) -> dict[int, tuple]:
    """Exact projector matrices onto the U_d, keyed by d."""
    return {
        d: circulant_from_row(row)
        for d, row in minimal_projector_rows(lattice).items()
    }


def piece_of(lattice: DivisorLattice, k: int) -> int:
    """The divisor d whose piece U_d holds the frequency k (mod n).

    Frequency k lies in V_d iff (n/d) | k, i.e. iff n/gcd(k, n) divides d;
    the smallest such d in the lattice is well defined because the lattice
    is gcd-closed and contains n.
    """
    n = lattice.n
    m = n // math.gcd(k, n)
    return min(d for d in lattice.divisors if d % m == 0)


def u_dimension(lattice: DivisorLattice, d: int) -> int:
    """dim U_d: the number of frequencies k in Z_n whose piece is U_d."""
    return sum(piece_of(lattice, k) == d for k in range(lattice.n))


# ---------------------------------------------------------------------------
# Schur ring structure
# ---------------------------------------------------------------------------


def schur_structure_constants(basis: SchurBasis):
    """Coefficients lam[i][j][k] in T_i * T_j = sum_k lam[i][j][k] T_k.

    The product is convolution of exponent sums in Z_n; the input partition
    must expand every product with a constant coefficient on each basic set,
    otherwise it is not the basis of an algebra and NotClosed is raised.
    """
    n = basis.n
    sets = basis.basic_sets
    r = len(sets)
    set_index = {}
    for k, t in enumerate(sets):
        for e in t:
            set_index[e] = k
    table = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            counts = [0] * n
            for a in sets[i]:
                for b in sets[j]:
                    counts[(a + b) % n] += 1
            for k, t in enumerate(sets):
                vals = {counts[e] for e in t}
                if len(vals) != 1:
                    raise NotClosed(
                        f"product T_{i} T_{j} is not constant on basic set {k}"
                    )
                table[i][j][k] = vals.pop()
            recon = sum(table[i][j][k] * len(sets[k]) for k in range(r))
            assert recon == len(sets[i]) * len(sets[j])
    return table


def inverse_set_index(basis: SchurBasis, i: int) -> int:
    """Index i' with T_{i'} = T_i^(-1) (negated exponents mod n)."""
    neg = frozenset((-e) % basis.n for e in basis.basic_sets[i])
    for k, t in enumerate(basis.basic_sets):
        if t == neg:
            return k
    raise NotClosed(f"negation of basic set {i} is not a basic set")


def rational_closure(basis: SchurBasis) -> DivisorLattice:
    """Divisors d for which the order-d subgroup sum lies in the ring.

    The subgroup of order d consists of the exponents divisible by n/d; it
    belongs to the ring iff that set is a union of basic sets.
    """
    n = basis.n
    set_of = {}
    for k, t in enumerate(basis.basic_sets):
        for e in t:
            set_of[e] = k
    good = []
    for d in divisors_of(n):
        step = n // d
        members = set(range(0, n, step))
        union = set()
        for e in members:
            union |= basis.basic_sets[set_of[e]]
        if union == members:
            good.append(d)
    return make_lattice(n, good)
