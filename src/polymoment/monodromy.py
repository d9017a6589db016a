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
point over it reads as the identity, and needs no leg.  A reading that its
isolation, angle and claim tests cannot certify falls back to tracking the
circle and matching the fiber after it against the fiber at q; the loop at
infinity is always tracked, so `check_relations` checks the readings
independently.  An Euler predictor and a Newton corrector capped at 8
updates act on the full fiber; a step whose predictor already moves a
branch too far is halved before the corrector runs, the step doubles after
an accepted step and halves after a rejected one, and P, P' and the
rounding floor come from one fused power-table kernel.  Branches are then
relabeled so that the infinity permutation is exactly (1 2 ... n).

Conventions, fixed once and verified by the branch-consistency tests:
permutations compose left-to-right, loops around finite values run
counterclockwise and are ordered counterclockwise by angle at c, the
infinity loop is the clockwise big circle, so g_1 g_2 ... g_k g_inf = id.

Endpoints a, b enter as vertices of the tree: their values P(a), P(b) are
appended to the critical values when not already present.  The branch sets
V(a), V(b) (branches converging to a resp. b along the corresponding arc)
are located by continuation and must match a cycle of the corresponding
generator; their index sets, embedded as n-th roots of unity, must be
circularly separated (strictly when P(a) = P(b), allowing one shared point
otherwise).
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
    `critical_points` holds, per value, its critical points as (zeta, e)
    clusters, e - 1 roots of P' at zeta; monodromy induced on a right
    factor's blocks carries none.
    """

    n: int
    base_point: complex
    critical_values: tuple[complex, ...]
    supplemented: tuple[bool, ...]
    generators: tuple[Permutation, ...]
    g_inf: Permutation
    fiber: tuple[complex, ...]
    critical_points: tuple[tuple[tuple[complex, int], ...], ...] = ()

    @property
    def k(self) -> int:
        return len(self.critical_values)


@dataclass(frozen=True)
class ColoredVertex:
    """A vertex of the tree carrying color s: one cycle of g_s."""

    color: int
    cycle: tuple[int, ...]

    @property
    def branches(self) -> frozenset[int]:
        return frozenset(self.cycle)


@dataclass(frozen=True)
class Cactus:
    """The bipartite incidence structure: n stars vs colored vertices."""

    n: int
    k: int
    vertices: tuple[ColoredVertex, ...]
    vertex_a: ColoredVertex
    vertex_b: ColoredVertex

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

    def vertex_at(self, star: int, color: int) -> ColoredVertex:
        """The unique color-s vertex adjacent to the given star."""
        for v in self.vertices:
            if v.color == color and star in v.branches:
                return v
        raise KeyError((star, color))

    def star_neighbors(self, star: int) -> list[ColoredVertex]:
        return [self.vertex_at(star, s) for s in range(1, self.k + 1)]

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
    for the values, which are ordered counterclockwise by angle around it,
    and per value the critical points over it as (zeta, e) clusters of e - 1
    roots of P'.  A supplemented value has none.
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
    order = sorted(range(len(values)), key=lambda i: np.angle(values[i] - c))
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
    return c, np.array(derivative(P).coeffs), np.abs(c)


def _power_sums(c, dc, ac, w, magnitude: bool = True):
    """P(w), P'(w) and sum_j |c_j| |w|^j from one table of powers of w.

    Row i of the table is 1, w_i, w_i^2, ...; the magnitude sum times eps
    bounds the rounding error of P(w), so it sets the correctors' floor.
    Newton updates only need P and P': magnitude=False returns None for it.
    """
    V = np.empty((len(w), len(c)), dtype=complex)
    V[:, 0] = 1.0
    V[:, 1:] = w[:, None]
    np.cumprod(V, axis=1, out=V)
    return V @ c, V[:, :-1] @ dc, (np.abs(V) @ ac if magnitude else None)


def _min_sep(w) -> float:
    d = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _correct(arrays, z, w, tol_abs):
    """Newton on P(w) = z for every branch: (w, P'(w), converged).

    The tolerance tol_abs + 64 eps (sum_j |c_j| |w|^j + |z|) is taken at the
    predictor; at most CORRECTOR_ITERS updates are made.
    """
    pv, dv, mag = _power_sums(*arrays, w)
    tol = tol_abs + 64e-16 * (mag + abs(z))
    for _ in range(CORRECTOR_ITERS):
        r = pv - z
        if (np.abs(r) <= tol).all():
            return w, dv, True
        if not dv.all():
            return w, dv, False
        w = w - r / dv
        pv, dv, _ = _power_sums(*arrays, w, magnitude=False)
    return w, dv, bool((np.abs(pv - z) <= tol).all())


def polish_fiber(P: ComplexPoly, z: complex, w):
    """Newton-polish approximate fiber values down to the machine floor."""
    arrays = _poly_arrays(P)
    w = np.array(w, dtype=complex)
    pv, dv, mag = _power_sums(*arrays, w)
    floor = 64e-16 * (mag + abs(z))
    for _ in range(40):
        if (np.abs(pv - z) <= floor).all():
            break
        step = (pv - z) / np.where(dv == 0, 1e-300, dv)
        w = w - step
        if float(np.max(np.abs(step))) <= 1e-16 * float(np.max(np.abs(w)) + 1):
            break
        pv, dv, _ = _power_sums(*arrays, w, magnitude=False)
    return w


def continue_branches(P: ComplexPoly, path, start, tol: Tolerances = Tolerances()):
    """Continue the full fiber of P along a polyline of sample points.

    Returns the fiber at every waypoint, one array per point of `path`: the
    first is `start` itself, the last the fiber at the end of the path.

    Each straight piece z0 -> z1 is stepped in its parameter t in [0, 1]:
    Euler predictor (with P' of the last accepted fiber), then at most
    CORRECTOR_ITERS Newton updates on every branch.  A step is rejected and
    its length halved when any branch moves by more than a third of the
    current minimal branch separation (which would make the implicit
    matching ambiguous), tested first on the predictor, so the corrector
    runs only on steps that pass, and again on the corrected fiber; it is
    also rejected when the corrector misses the tolerance.  After an
    accepted step the length grows by STEP_GROWTH.  Raises TrackingFailure
    when halving bottoms out, which happens only if the path passes
    essentially through a critical value.
    """
    arrays = _poly_arrays(P)
    sep_floor = 1e-12 * (1 + P.coeff_scale())
    w = np.array(start, dtype=complex)
    _, dv, _ = _power_sums(*arrays, w, magnitude=False)
    sep = _min_sep(w)
    fibers = [w]
    for seg in range(len(path) - 1):
        z0, z1 = complex(path[seg]), complex(path[seg + 1])
        t, h, za = 0.0, 1.0, z0
        while t < 1.0:
            tb = min(t + h, 1.0)
            zb = z1 if tb == 1.0 else z0 + tb * (z1 - z0)
            dw = (zb - za) / np.where(dv == 0, 1e-300, dv)
            if float(np.max(np.abs(dw))) <= 0.34 * sep:
                w_new, dv_new, ok = _correct(arrays, zb, w + dw, tol.track * (abs(zb) + 1.0))
                if ok and float(np.max(np.abs(w_new - w))) <= 0.34 * sep:
                    sep_new = _min_sep(w_new)
                    if sep_new >= sep_floor:
                        w, dv, sep = w_new, dv_new, sep_new
                        t, za = tb, zb
                        h *= STEP_GROWTH
                        continue
            if abs(zb - za) <= 1e-14 * (1.0 + abs(za) + abs(zb)):
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
    limit = _min_sep(start) / 3.0
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
    an arbitrary but deterministic choice.
    """
    n = P.degree
    values, flags, c, points = critical_data(P, a, b, tol)
    fiber = polish_fiber(P, c, roots(P - c, tol, seed=seed))

    *lassos, big = _lassos(c, values, n)
    gens = []
    for loop, over in zip(lassos, points):
        g = identity(n)
        if over:
            at_q = continue_branches(P, loop[:2], fiber, tol)[-1]
            g = _local_reading(at_q, over)
            if g is None:
                g = _match_permutation(at_q, continue_branches(P, loop[1:], at_q, tol)[-1])
        gens.append(g)
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
    new_fiber = [complex(fiber[i - 1]) for i in old_of_new]
    return MonodromyData(
        n=n,
        base_point=c,
        critical_values=tuple(values),
        supplemented=tuple(flags),
        generators=tuple(gens),
        g_inf=g_inf,
        fiber=tuple(new_fiber),
        critical_points=tuple(points),
    )


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------


def multiplicity_at(md: MonodromyData, z: complex, tol: Tolerances = Tolerances()) -> int:
    """Order of vanishing of P - P(z) at z: 1 + the roots of P' clustered at
    z, read from the critical points of `md` at the radius `critical_data`
    clusters them with."""
    pts = [p for over in md.critical_points for p in over]
    radius = tol.cluster * (1.0 + max((abs(zeta) for zeta, _ in pts), default=0.0))
    return next((e for zeta, e in pts if abs(zeta - z) <= radius), 1)


def _locate_branches(
    P, md: MonodromyData, point: complex, s: int, mult: int, tol: Tolerances
):
    """Branch indices whose values converge to `point` along the s-th arc."""
    c = md.base_point
    cs = md.critical_values[s - 1]
    u = (c - cs) / abs(c - cs)
    delta = 1e-2 * _loop_radius(c, md.critical_values, s - 1)
    w = np.array(md.fiber, dtype=complex)
    z_cur = c
    for _ in range(7):
        q = cs + delta * u
        w = continue_branches(P, [z_cur, q], w, tol)[-1]
        z_cur = q
        dists = sorted(
            (abs(wi - point), i + 1) for i, wi in enumerate(w)
        )
        chosen = [i for _, i in dists[:mult]]
        if mult == md.n or dists[mult - 1][0] * 8.0 <= dists[mult][0]:
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
    of that color's permutation containing the branch.  Validates the tree
    count (vertices = edges + 1) and connectivity.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    k = len(gens)
    vertices = []
    by_color: list[list[ColoredVertex]] = []
    for s, g in enumerate(gens, start=1):
        vs = [ColoredVertex(s, cyc) for cyc in g.cycles()]
        by_color.append(vs)
        vertices.extend(vs)

    def find_vertex(color: int, branch: int) -> ColoredVertex:
        for v in by_color[color - 1]:
            if branch in v.branches:
                return v
        raise VertexMismatch(f"no color-{color} vertex contains branch {branch}")

    va = find_vertex(*vertex_a)
    vb = find_vertex(*vertex_b)
    cac = Cactus(n=n, k=k, vertices=tuple(vertices), vertex_a=va, vertex_b=vb)

    if cac.vertex_count() != cac.edge_count() + 1:
        raise TreeViolation(
            f"{cac.vertex_count()} vertices vs {cac.edge_count()} edges"
        )
    seen_stars = {1}
    seen_verts = set()
    queue = [("star", 1)]
    while queue:
        kind, x = queue.pop()
        if kind == "star":
            for v in cac.star_neighbors(x):
                if v not in seen_verts:
                    seen_verts.add(v)
                    queue.append(("vert", v))
        else:
            for i in x.cycle:
                if i not in seen_stars:
                    seen_stars.add(i)
                    queue.append(("star", i))
    if len(seen_stars) != n or len(seen_verts) != len(vertices):
        raise TreeViolation("incidence graph is not connected")
    return cac


def endpoint_colors(md: MonodromyData, Pa: complex, Pb: complex, tol: Tolerances):
    """The colors s_a, s_b of the endpoint values P(a), P(b), and whether the
    two values coincide.  Raises VertexMismatch for a value that is no color."""
    radius = tol.cluster * (1.0 + max(abs(v) for v in md.critical_values)) * 10
    colors = []
    for w in (Pa, Pb):
        ds = np.abs(np.array(md.critical_values) - w)
        if ds.min() > radius:
            raise VertexMismatch(f"value {w:.6g} is not a vertex color")
        colors.append(int(np.argmin(ds)) + 1)
    return *colors, abs(Pa - Pb) <= radius


def cactus_from_vertices(md: MonodromyData, s_a: int, Va, s_b: int, Vb, same_value: bool) -> Cactus:
    """The tree with a, b on the color-s_a vertex with branch set Va and the
    color-s_b vertex with branch set Vb.  Each set must be a cycle of its
    color's permutation, the two vertices must differ (else DegeneratePath),
    and the sets must be circularly separated: disjointed when P(a) = P(b),
    at worst almost otherwise."""
    for s, V, label in ((s_a, Va, "a"), (s_b, Vb, "b")):
        if V not in {frozenset(cyc) for cyc in md.generators[s - 1].cycles()}:
            raise VertexMismatch(f"V({label}) = {sorted(V)} is not a cycle of color {s}")
    if s_a == s_b and Va == Vb:
        raise DegeneratePath("a and b landed on the same vertex")

    sep = circular_separation(Va, Vb, md.n)
    if same_value and sep != "disjointed":
        raise VertexMismatch(f"V(a), V(b) must be disjointed, got {sep}")
    if not same_value and sep == "entangled":
        raise VertexMismatch("V(a), V(b) are entangled on the circle")
    return cactus_from_generators(md.n, md.generators, (s_a, min(Va)), (s_b, min(Vb)))


def build_cactus(
    md: MonodromyData, P: ComplexPoly, a: complex, b: complex, tol: Tolerances = Tolerances()
) -> Cactus:
    """Locate a and b on the tree and assemble it.

    V(a) is found by continuing the fiber along the arc toward P(a)'s vertex
    color and picking the branches that converge to a; their count is the
    multiplicity of a, 1 + the roots of P' clustered at a.
    `cactus_from_vertices` checks the sets on every build.
    """
    s_a, s_b, same_value = endpoint_colors(md, P(a), P(b), tol)
    Va = _locate_branches(P, md, a, s_a, multiplicity_at(md, a, tol), tol)
    Vb = _locate_branches(P, md, b, s_b, multiplicity_at(md, b, tol), tol)
    return cactus_from_vertices(md, s_a, Va, s_b, Vb, same_value)


def tree_path(cactus: Cactus):
    """Unique simple path vertex_a, star, vertex, ..., vertex_b (BFS)."""
    if cactus.vertex_a == cactus.vertex_b:
        raise DegeneratePath("endpoints coincide on the tree")
    start = ("vert", cactus.vertex_a)
    goal = ("vert", cactus.vertex_b)
    parent = {start: None}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        kind, x = node
        if kind == "vert":
            nbrs = [("star", i) for i in x.cycle]
        else:
            nbrs = [("vert", v) for v in cactus.star_neighbors(x)]
        for nb in nbrs:
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    if goal not in parent:
        raise TreeViolation("endpoints are not connected")
    out = []
    node = goal
    while node is not None:
        out.append(node)
        node = parent[node]
    out.reverse()
    return tuple(x for _, x in out)


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
