"""Numerical monodromy of a polynomial and the planar tree it induces.

The preimage of a star (a basepoint c joined to every finite critical value
by non-crossing arcs) under a degree-n polynomial P is a planar tree: n
"star" centers, one per inverse branch, and colored vertices, one per cycle
of the local permutation at each critical value.  Loops around the critical
values give the permutations g_1..g_k and the loop around infinity.  Each
finite loop is a lasso: the fiber is tracked from c along the leg to the
point q where its circle starts (the way back from q to c would only carry
the labels along the same segment), and the permutation is read at q from
the critical points over the value.  Near a critical point zeta of local
degree e, P - v ~ alpha (z - zeta)^e, so the circle moves each of the e
fiber values nearest zeta to the next one counterclockwise in arg(w - zeta)
(the local-monodromy step of Poteaux, SNC 2007).  A value with no critical
point over it reads as the identity.  A reading that its
isolation, angle and claim tests cannot certify falls back to tracking the
circle and matching the fiber after it against the fiber at q; the loop at
infinity is always tracked, so `check_relations` checks the readings
independently.  A second-order Taylor predictor and a Newton corrector
capped at 8 updates act on the full fiber; the corrector gives up at an
update that fails to halve the one before.  A step whose predictor already
moves some branch by more than 0.34 of that branch's own nearest-neighbour
distance is halved before the corrector runs, the step doubles after an
accepted step and halves after a rejected one, and P, P', P'' and the
rounding floor come from one fused power-table kernel.  Branches are then
relabeled so that the infinity permutation is exactly (1 2 ... n).

Conventions, fixed once and verified by the branch-consistency tests:
permutations compose left-to-right, loops around finite values run
counterclockwise and are ordered counterclockwise by angle at c, starting
where the infinity loop, the clockwise big circle, leaves c, so
g_1 g_2 ... g_k g_inf = id.

Endpoints a, b enter as vertices of the tree: P(a), P(b) are appended to the
values when not already present, and `ends` records each endpoint's vertex
once, as its color and its branch set V(a): the branches converging to a as
the fiber at the q of its value's leg is continued toward the value.  V(a),
V(b) must match a cycle of their color's generator; embedded as n-th roots
of unity, they must be circularly separated (strictly when a and b share a
color, i.e. P(a) = P(b), allowing one shared point otherwise).  One walk of
the incidence graph from V(a) then checks that it is a tree and yields the
unique path from V(a) to V(b) that the sign vectors f_s are read off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePath,
    DegenerateInput,
    RelationViolation,
    TrackingFailure,
    TreeViolation,
    VertexMismatch,
)
from .permgroup import Permutation, full_cycle, identity
from .poly import ComplexPoly, Tolerances, derivative, roots

CIRCLE_SEGMENTS = 32
# step control: a corrector still short of its tolerance after CORRECTOR_ITERS
# Newton updates started from a far-off predictor, and halving the step is
# cheaper than letting it crawl back; each accepted step grows the next one
CORRECTOR_ITERS = 8
STEP_GROWTH = 2.0


@dataclass(frozen=True)
class MonodromyData:
    """Loop permutations of P around its (supplemented) critical values.

    Branch numbering is normalized so g_inf = (1 2 ... n); `fiber` holds the
    branch values above `base_point` in that numbering (branch i at
    fiber[i-1]).  The numbering is canonical up to the choice of branch 1.
    `ends` holds the vertex of a and of b as (color, branch set V), tracked
    or induced on a right factor's blocks alike.
    """

    n: int
    base_point: complex
    critical_values: tuple[complex, ...]
    supplemented: tuple[bool, ...]
    generators: tuple[Permutation, ...]
    g_inf: Permutation
    fiber: tuple[complex, ...]
    ends: tuple[tuple[int, frozenset[int]], ...]

    @property
    def k(self) -> int:
        return len(self.critical_values)


@dataclass(frozen=True)
class ColoredVertex:
    """A vertex of the tree carrying color s: one cycle of g_s."""

    color: int
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class Cactus:
    """The bipartite incidence structure: n stars vs colored vertices, and
    the unique path vertex_a, star, vertex, ..., vertex_b through it."""

    n: int
    k: int
    vertices: tuple[ColoredVertex, ...]
    vertex_a: ColoredVertex
    vertex_b: ColoredVertex
    path: tuple[ColoredVertex | int, ...]

    @property
    def V_a(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertex_a.cycle))

    @property
    def V_b(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertex_b.cycle))

    @property
    def d_a(self) -> int:
        return len(self.vertex_a.cycle)

    @property
    def d_b(self) -> int:
        return len(self.vertex_b.cycle)

    def identifies(self, d: int) -> bool:
        """W(a) = W(b) for the right factor W of degree n/d (d = 1: P(a) = P(b)).
        W is constant on the branch classes mod d, and the classes V(a) fills
        are one point of W's fiber over P(a): a, b share it exactly when they
        share a color and V(a), V(b) fill the same classes."""
        same = {i % d for i in self.vertex_a.cycle} == {i % d for i in self.vertex_b.cycle}
        return same and self.vertex_a.color == self.vertex_b.color

    def edge_count(self) -> int:
        return self.n * self.k

    def vertex_count(self) -> int:
        return self.n + len(self.vertices)


# ---------------------------------------------------------------------------
# critical values and basepoint
# ---------------------------------------------------------------------------


def _cluster_values(vals, radius):
    """Representatives of vals, each the first value not within radius of an
    earlier one, and the index of every value's representative."""
    reps: list[complex] = []
    labels = []
    for v in vals:
        for i, r in enumerate(reps):
            if abs(v - r) <= radius:
                break
        else:
            i = len(reps)
            reps.append(v)
        labels.append(i)
    return reps, labels


def choose_basepoint(values) -> complex:
    """A regular basepoint c at a comfortable distance from every value.

    Candidates live on a ring around the centroid; the winner maximizes the
    distance to the nearest value, with the minimal pairwise angular gap of
    the values (seen from c) as tie-break, so the star arcs separate well.
    """
    values = list(values)
    ctr = sum(values) / len(values)
    spread = max(abs(v - ctr) for v in values)
    if spread == 0:
        spread = max(1.0, abs(values[0]))
    best = None
    for t in range(48):
        cand = ctr + 1.9 * spread * np.exp(2j * np.pi * (t + 0.13) / 48)
        dmin = min(abs(cand - v) for v in values)
        angles = sorted(np.angle(np.array(values) - cand)) if len(values) > 1 else []
        gap = min(
            (b - a for a, b in zip(angles, angles[1:])), default=2 * np.pi
        )
        key = (round(dmin / spread, 6), round(gap, 6), -t)
        if best is None or key > best[0]:
            best = (key, cand)
    return complex(best[1])


def critical_data(P: ComplexPoly, a: complex, b: complex, tol: Tolerances = Tolerances()):
    """Distinct finite critical values, supplemented by P(a), P(b) if needed.

    Returns (values, supplemented_flags, c, points): the basepoint c chosen
    for the values, ordered counterclockwise around it from where the big
    loop leaves c, and per value the critical points over it as (zeta, e)
    clusters of e - 1 roots of P'.  A supplemented value has none.
    """
    if P.degree < 2:
        raise DegenerateInput("deg P must be >= 2")
    if abs(a - b) <= 1e-13 * (1 + abs(a) + abs(b)):
        raise DegenerateInput("endpoints must be distinct")
    dP = derivative(P)
    crit_pts = roots(dP, tol)
    vals = [P(z) for z in crit_pts]
    radius = tol.cluster * (1.0 + max(abs(v) for v in vals))
    values, value_of = _cluster_values(vals, radius)
    zetas, zeta_of = _cluster_values(crit_pts, tol.cluster * (1.0 + max(abs(z) for z in crit_pts)))
    # roots() refines a multiple root on a higher derivative but leaves a
    # simple one where its backward error met tol.root, ~1e-6 off on T_24
    simple = [p for p in range(len(zetas)) if zeta_of.count(p) == 1]
    for p, z in zip(simple, polish_fiber(dP, 0.0, [zetas[p] for p in simple])):
        zetas[p] = complex(z)
    points = [[] for _ in values]
    for (p, s), m in Counter(zip(zeta_of, value_of)).items():
        points[s].append((zetas[p], 1 + m))
    for w in (P(a), P(b)):
        if all(abs(w - v) > radius for v in values):
            values.append(w)
            points.append([])
    c = choose_basepoint(values)
    # `_lassos` leaves c away from the centroid; g_1 ... g_k g_inf = id holds
    # only for the order cut there
    ctr = sum(values) / len(values)
    order = sorted(range(len(values)), key=lambda i: np.angle((values[i] - c) / (ctr - c)))
    return (
        [values[i] for i in order],
        [not points[i] for i in order],
        c,
        [tuple(points[i]) for i in order],
    )


# ---------------------------------------------------------------------------
# path tracking
# ---------------------------------------------------------------------------


def _poly_arrays(P: ComplexPoly):
    c = np.array(P.coeffs)
    dc = np.array(derivative(P).coeffs)
    return c, dc, dc[1:] * np.arange(1, len(dc)), np.abs(c)


def _power_table(w, m: int):
    """Row i is 1, w_i, w_i^2, ..., w_i^(m-1)."""
    V = np.empty((len(w), m), dtype=complex)
    V[:, 0] = 1.0
    V[:, 1:] = w[:, None]
    np.cumprod(V, axis=1, out=V)
    return V


def _power_sums(c, dc, d2c, ac, w, magnitude: bool = True):
    """P(w), P'(w), P''(w) and sum_j |c_j| |w|^j from one table of powers of w.

    The magnitude sum times eps bounds the rounding error of P(w), so it sets
    the correctors' floor; magnitude=False returns None for it.
    """
    V = _power_table(w, len(c))
    return V @ c, V[:, :-1] @ dc, V[:, :-2] @ d2c, (np.abs(V) @ ac if magnitude else None)


def _nearest(w):
    """Each branch's distance to its nearest neighbour in the fiber w."""
    d = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _correct(arrays, z, w, tol_abs):
    """Newton on P(w) = z for every branch: (w, P'(w), P''(w), converged).

    The tolerance tol_abs + 64 eps (sum_j |c_j| |w|^j + |z|) is taken at the
    predictor.  At most CORRECTOR_ITERS updates are made, and none after an
    update that fails to halve the one before it: that iterate is not in
    Newton's quadratic basin, and a shorter step is cheaper than the rest of
    the updates.  P'' is taken only from the table of the converged iterate.
    """
    c, dc, d2c, ac = arrays
    V = _power_table(w, len(c))
    tol = tol_abs + 64e-16 * (np.abs(V) @ ac + abs(z))
    last = np.inf
    for it in range(CORRECTOR_ITERS + 1):
        dv = V[:, :-1] @ dc
        r = V @ c - z
        if (np.abs(r) <= tol).all():
            return w, dv, V[:, :-2] @ d2c, True
        if it == CORRECTOR_ITERS or not dv.all():
            break
        step = r / dv
        size = float(np.max(np.abs(step)))
        if size > 0.5 * last:
            break
        w, last = w - step, size
        V = _power_table(w, len(c))
    return w, dv, None, False


def polish_fiber(P: ComplexPoly, z: complex, w):
    """Newton-polish approximate fiber values down to the machine floor."""
    arrays = _poly_arrays(P)
    w = np.array(w, dtype=complex)
    pv, dv, _, mag = _power_sums(*arrays, w)
    floor = 64e-16 * (mag + abs(z))
    for _ in range(40):
        if (np.abs(pv - z) <= floor).all():
            break
        step = (pv - z) / np.where(dv == 0, 1e-300, dv)
        w = w - step
        if float(np.max(np.abs(step))) <= 1e-16 * float(np.max(np.abs(w)) + 1):
            break
        pv, dv, _, _ = _power_sums(*arrays, w, magnitude=False)
    return w


def _taylor(dv, d2v):
    """The coefficients of w(z + dz) - w(z) = a1 dz + a2 dz^2 + O(dz^3) on
    P(w) = z: a1 = w' = 1/P'(w) and a2 = w''/2 = -P''(w) a1^3 / 2."""
    a1 = 1.0 / dv
    return a1, -0.5 * d2v * a1 * a1 * a1


def continue_branches(P: ComplexPoly, path, start, tol: Tolerances = Tolerances()):
    """Continue the full fiber of P along a polyline of sample points.

    Returns the fiber at every waypoint, one array per point of `path`: the
    first is `start` itself, the last the fiber at the end of the path.

    Each straight piece z0 -> z1 is stepped in its parameter t in [0, 1]:
    second-order Taylor predictor dw = w' dz + w'' dz^2 / 2 (with P' and P''
    of the last accepted fiber), then at most CORRECTOR_ITERS Newton updates
    on every branch.  A step is rejected and its length halved when some
    branch moves by more than 0.34 of its own nearest-neighbour distance in
    the last accepted fiber, tested first on the predictor, so the corrector
    runs only on steps that pass, and again on the corrected fiber: then
    each new value is at least 1.9 times nearer its own predecessor than any
    other predecessor, and each predecessor 1.9 times nearer its own
    successor than any other, so the implicit matching is unambiguous.  A step is also
    rejected when the corrector misses the tolerance or gives up, or when
    the new fiber's minimal separation falls below a floor at the rounding
    level of the coefficients.  After an accepted step the length grows by
    STEP_GROWTH.  Raises TrackingFailure when halving bottoms out, which
    happens only if the path passes essentially through a critical value.
    """
    arrays = _poly_arrays(P)
    sep_floor = 1e-12 * (1 + P.coeff_scale())
    w = np.array(start, dtype=complex)
    _, dv, d2v, _ = _power_sums(*arrays, w, magnitude=False)
    a1, a2 = _taylor(dv, d2v)
    reach = 0.34 * _nearest(w)
    fibers = [w]
    for seg in range(len(path) - 1):
        z0, z1 = complex(path[seg]), complex(path[seg + 1])
        t, h, za = 0.0, 1.0, z0
        while t < 1.0:
            tb = min(t + h, 1.0)
            zb = z1 if tb == 1.0 else z0 + tb * (z1 - z0)
            dz = zb - za
            dw = dz * (a1 + a2 * dz)
            if (np.abs(dw) <= reach).all():
                w_new, dv_new, d2v_new, ok = _correct(arrays, zb, w + dw, tol.track * (abs(zb) + 1.0))
                if ok and (np.abs(w_new - w) <= reach).all():
                    near = _nearest(w_new)
                    if near.min() >= sep_floor:
                        w, reach = w_new, 0.34 * near
                        a1, a2 = _taylor(dv_new, d2v_new)
                        t, za = tb, zb
                        h *= STEP_GROWTH
                        continue
            if abs(dz) <= 1e-14 * (1.0 + abs(za) + abs(zb)):
                raise TrackingFailure(
                    f"step control collapsed near z = {za:.6g}"
                )
            h = 0.5 * (tb - t)
        fibers.append(w)
    return fibers


def _match_permutation(start, end) -> Permutation:
    """Match the continued fiber back onto the start fiber (greedy nearest)."""
    start = np.asarray(start)
    end = np.asarray(end)
    n = len(start)
    limit = _nearest(start).min() / 3.0
    images = [0] * n
    used = set()
    for i in range(n):
        dists = np.abs(end[i] - start)
        j = int(np.argmin(dists))
        if dists[j] > limit or j in used:
            raise TrackingFailure("ambiguous branch matching after loop")
        used.add(j)
        images[i] = j + 1
    return Permutation(images)


def _local_reading(w, points) -> Permutation | None:
    """The loop's permutation read from the fiber w at the start q of its
    circle, or None when the reading is not certified.

    Each critical point (zeta, e) over the value moves the e fiber values
    nearest zeta one step counterclockwise in arg(w - zeta).  Certified only
    if, for every cluster, the e-th nearest distance doubled is at most the
    (e+1)-th (all n values are taken when e = n), every angular gap of the
    e values lies in [0.5, 1.5] 2 pi / e, and no branch is claimed twice.  A
    value with no critical point over it reads as the identity: its loop's
    disk holds no critical value.
    """
    n = len(w)
    images = np.arange(1, n + 1)
    claimed = np.zeros(n, dtype=bool)
    for zeta, e in points:
        d = np.abs(w - zeta)
        near = np.argsort(d)
        if e < n and 2.0 * d[near[e - 1]] > d[near[e]]:
            return None
        ang = np.angle(w[near[:e]] - zeta)
        order = np.argsort(ang)
        cycle, ang = near[:e][order], ang[order]
        gaps = np.diff(ang, append=ang[0] + 2 * np.pi) * (e / (2 * np.pi))
        if gaps.min() < 0.5 or gaps.max() > 1.5 or claimed[cycle].any():
            return None
        claimed[cycle] = True
        images[cycle] = np.roll(cycle, -1) + 1
    return Permutation(images.tolist())


def _circle(center: complex, radius: float, start_angle: float, ccw: bool, segments: int):
    sgn = 1.0 if ccw else -1.0
    return [
        center + radius * np.exp(1j * (start_angle + sgn * 2 * np.pi * t / segments))
        for t in range(segments + 1)
    ]


def _loop_around(c: complex, value: complex, radius: float):
    """Lasso stopped at the circle: straight arc from c to the point q of the
    circle nearest c, then the CCW circle back to q."""
    u = (value - c) / abs(value - c)
    q = value - radius * u
    ang = float(np.angle(q - value))
    circle = _circle(value, radius, ang, ccw=True, segments=CIRCLE_SEGMENTS)
    return [c, q] + circle[1:]


def _loop_radius(c: complex, values, s: int) -> float:
    """Half the distance from values[s] to the nearest other value and to c."""
    cs = values[s]
    others = [abs(cs - ct) for t, ct in enumerate(values) if t != s]
    r = 0.5 * min(others) if others else 0.5 * abs(c - cs)
    return min(r, 0.5 * abs(c - cs))


def _lassos(c: complex, values, n: int):
    """The k + 1 lassos from c, each ending where its circle started: one
    around every value, then the clockwise big circle around all of them."""
    loops = [_loop_around(c, cs, _loop_radius(c, values, s)) for s, cs in enumerate(values)]
    ctr = sum(values) / len(values)
    r_big = 2.0 * max(abs(v - ctr) for v in values) + 3.0 * abs(c - ctr) + 1.0
    u = (c - ctr) / abs(c - ctr)
    circle = _circle(ctr, r_big, float(np.angle(u)), ccw=False,
                     segments=max(CIRCLE_SEGMENTS, 2 * n))
    loops.append([c, ctr + r_big * u] + circle[1:])
    return loops


def check_relations(gens, g_inf: Permutation, n: int):
    """The laws every monodromy of a degree-n polynomial obeys, whether
    tracked or induced on the blocks of a right factor: the product relation
    g_1 ... g_k g_inf = id, g_inf an n-cycle, and the Riemann-Hurwitz count
    sum over s of (n - #cycles of g_s) = n - 1.  Raises RelationViolation."""
    prod = identity(n)
    for g in gens:
        prod = prod * g
    if not (prod * g_inf).is_identity():
        raise RelationViolation("loop product does not close; refine tolerances")
    if len(g_inf.cycles()) != 1:
        raise RelationViolation("infinity permutation is not an n-cycle")
    deficiency = sum(n - len(g.cycles()) for g in gens)
    if deficiency != n - 1:
        raise RelationViolation(
            f"branching deficiency {deficiency} != {n - 1}; critical values miscounted"
        )


def monodromy(
    P: ComplexPoly,
    a: complex,
    b: complex,
    tol: Tolerances = Tolerances(),
    seed: int = 0,
) -> MonodromyData:
    """Loop permutations around every (supplemented) critical value of P.

    Each finite loop is tracked along its leg and read at the start of its
    circle by `_local_reading`; the circle is tracked only where the reading
    is not certified.  The loop at infinity is always tracked.  The computed
    permutations pass `check_relations`; a failure means the tracking
    tolerances were too coarse for this input.  Branches are relabeled so
    g_inf = (1 2 ... n); branch 1 is the first root of the basepoint fiber,
    an arbitrary but deterministic choice.  Each endpoint z is located from
    the fiber at the q of its color's leg, with multiplicity 1 + the roots
    of P' clustered at z.
    """
    n = P.degree
    values, flags, c, points = critical_data(P, a, b, tol)
    fiber = polish_fiber(P, c, roots(P - c, tol, seed=seed))

    *lassos, big = _lassos(c, values, n)
    gens, at_q = [], []
    for loop, over in zip(lassos, points):
        w = continue_branches(P, loop[:2], fiber, tol)[-1]
        g = _local_reading(w, over)
        if g is None:
            g = _match_permutation(w, continue_branches(P, loop[1:], w, tol)[-1])
        gens.append(g)
        at_q.append(w)
    fibers = continue_branches(P, big, fiber, tol)
    g_inf = _match_permutation(fibers[1], fibers[-1])
    check_relations(gens, g_inf, n)

    # relabel so that g_inf becomes (1 2 ... n), branch 1 = first fiber root:
    # new label l carries old branch g_inf^(l-1)(1), and r conjugates
    old_of_new = [1]
    while len(old_of_new) < n:
        old_of_new.append(g_inf(old_of_new[-1]))
    r = Permutation(old_of_new)
    gens = [r * g * r.inverse() for g in gens]
    g_inf = r * g_inf * r.inverse()
    assert g_inf.images == full_cycle(n).images
    new = np.array(old_of_new) - 1
    pts = [p for over in points for p in over]
    radius = tol.cluster * (1.0 + max(abs(zeta) for zeta, _ in pts))
    ends = []
    for z in (a, b):
        s = int(np.argmin(np.abs(np.array(values) - P(z))))  # the color of z
        mult = next((e for zeta, e in pts if abs(zeta - z) <= radius), 1)
        V = _locate_branches(P, lassos[s][1], values[s], at_q[s][new], z, mult, tol)
        ends.append((s + 1, V))
    return MonodromyData(
        n=n,
        base_point=c,
        critical_values=tuple(values),
        supplemented=tuple(flags),
        generators=tuple(gens),
        g_inf=g_inf,
        fiber=tuple(complex(w) for w in fiber[new]),
        ends=tuple(ends),
    )


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------


def _locate_branches(P, q: complex, value: complex, w, point: complex, mult: int, tol: Tolerances):
    """Branch indices whose values converge to `point` as the fiber w at the
    start q of the circle around `value` is continued toward `value`: the
    `mult` nearest, once they are 8 times closer than the next one."""
    u = (q - value) / abs(q - value)
    delta = 1e-2 * abs(q - value)
    z_cur = q
    for _ in range(7):
        z = value + delta * u
        w = continue_branches(P, [z_cur, z], w, tol)[-1]
        z_cur = z
        dists = sorted(
            (abs(wi - point), i + 1) for i, wi in enumerate(w)
        )
        chosen = [i for _, i in dists[:mult]]
        if mult == len(w) or dists[mult - 1][0] * 8.0 <= dists[mult][0]:
            return frozenset(chosen)
        delta /= 16.0
    raise VertexMismatch(
        f"could not isolate the {mult} branches converging to {point:.6g}"
    )


def circular_separation(A, B, n: int) -> str:
    """Mutual position of two branch-index sets as n-th roots of unity.

    Returns "disjointed" (a pair of cut points splits the circle between the
    sets), "almost" (same, except for exactly one shared point), or
    "entangled".
    """
    A, B = frozenset(A), frozenset(B)
    common = A & B
    if len(common) > 1:
        return "entangled"
    if len(common) == 1:
        s1 = next(iter(common))
        rest = sorted(
            (A | B) - common, key=lambda i: (i - s1) % n
        )
        labels = ["a" if i in A else "b" for i in rest]
        changes = sum(1 for x, y in zip(labels, labels[1:]) if x != y)
        return "almost" if changes <= 1 else "entangled"
    pts = sorted(A | B)
    labels = ["a" if i in A else "b" for i in pts]
    changes = sum(
        1 for x, y in zip(labels, labels[1:] + labels[:1]) if x != y
    )
    return "disjointed" if changes <= 2 else "entangled"


def cactus_from_generators(
    n: int,
    generators,
    vertex_a: tuple[int, int],
    vertex_b: tuple[int, int],
) -> Cactus:
    """Assemble the tree from explicit permutations.

    vertex_a / vertex_b are given as (color, branch) pairs naming the cycle
    of that color's permutation containing the branch.  Checks the tree
    count (vertices = edges + 1), then walks the incidence graph once from
    vertex_a: the walk proves it connected, hence a tree, and yields the
    unique path to vertex_b.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    k = len(gens)
    vertices = [ColoredVertex(s, cyc) for s, g in enumerate(gens, start=1) for cyc in g.cycles()]
    # the color-s vertex at star i, for every (s, i)
    at = {(v.color, i): v for v in vertices for i in v.cycle}
    ends = []
    for color, branch in (vertex_a, vertex_b):
        if (color, branch) not in at:
            raise VertexMismatch(f"no color-{color} vertex contains branch {branch}")
        ends.append(at[color, branch])
    va, vb = ends

    if n + len(vertices) != n * k + 1:
        raise TreeViolation(f"{n + len(vertices)} vertices vs {n * k} edges")
    # stars are ints and vertices ColoredVertex, so one map holds both kinds
    parent = {va: None}
    queue = [va]
    for x in queue:
        nbrs = x.cycle if isinstance(x, ColoredVertex) else (at[s, x] for s in range(1, k + 1))
        for y in nbrs:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if len(parent) != n + len(vertices):
        raise TreeViolation("incidence graph is not connected")
    path = [vb]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return Cactus(n=n, k=k, vertices=tuple(vertices), vertex_a=va, vertex_b=vb,
                  path=tuple(reversed(path)))


def build_cactus(md: MonodromyData) -> Cactus:
    """The tree with a, b on the vertices in `md.ends`, tracked or induced.
    Each set must be a cycle of its color's permutation, the two vertices
    must differ (else DegeneratePath), and the sets must not be entangled on
    the circle.  When a, b share a color this means disjointed: two cycles of
    one permutation share no branch, so they are never almost separated."""
    (s_a, Va), (s_b, Vb) = md.ends
    for s, V, label in ((s_a, Va, "a"), (s_b, Vb, "b")):
        if V not in {frozenset(cyc) for cyc in md.generators[s - 1].cycles()}:
            raise VertexMismatch(f"V({label}) = {sorted(V)} is not a cycle of color {s}")
    if s_a == s_b and Va == Vb:
        raise DegeneratePath("a and b landed on the same vertex")
    if circular_separation(Va, Vb, md.n) == "entangled":
        raise VertexMismatch("V(a), V(b) are entangled on the circle")
    return cactus_from_generators(md.n, md.generators, (s_a, min(Va)), (s_b, min(Vb)))


def tree_path(cactus: Cactus):
    """Unique simple path vertex_a, star, vertex, ..., vertex_b, found by the
    walk that checked the tree in `cactus_from_generators`."""
    if cactus.vertex_a == cactus.vertex_b:
        raise DegeneratePath("endpoints coincide on the tree")
    return cactus.path


def f_vectors(cactus: Cactus, path) -> tuple[tuple[int, ...], ...]:
    """Sign vectors read off the path, one per color.

    Crossing a star through its s-colored vertex contributes -1 at that star
    when the vertex precedes the center (entering) and +1 when the center
    precedes the vertex (leaving); all other entries vanish.
    """
    fv = [[0] * cactus.n for _ in range(cactus.k)]
    for t in range(1, len(path) - 1, 2):
        star = path[t]
        v_in = path[t - 1]
        v_out = path[t + 1]
        fv[v_in.color - 1][star - 1] = -1
        fv[v_out.color - 1][star - 1] = 1
    return tuple(tuple(row) for row in fv)
