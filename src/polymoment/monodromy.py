"""Numerical monodromy of a polynomial and the planar tree it induces.

The preimage of a star (a basepoint c joined to every finite critical value
by non-crossing arcs) under a degree-n polynomial P is a planar tree: n
"star" centers, one per inverse branch, and colored vertices, one per cycle
of the local permutation at each critical value.  Loops around the critical
values are tracked numerically to produce the permutations g_1..g_k and the
loop around infinity: an Euler predictor and a Newton corrector capped at 8
updates act on the full fiber, the step doubles after an accepted step and
halves after a rejected one, and P, P' and the rounding floor come from one
fused power-table kernel.  Branches are then relabeled so that the infinity
permutation is exactly (1 2 ... n).

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
from . import poly as _poly
from .permgroup import Permutation, full_cycle, identity
from .poly import ComplexPoly, derivative, roots

# tracking accuracy feeds the sampled branch relations of the verifier, whose
# tolerance is 1e-9; the corrector is quadratic, so a tight target is cheap
TOL_TRACK = 1e-12
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
    """

    n: int
    base_point: complex
    critical_values: tuple[complex, ...]
    supplemented: tuple[bool, ...]
    generators: tuple[Permutation, ...]
    g_inf: Permutation
    fiber: tuple[complex, ...]

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
    reps: list[complex] = []
    for v in vals:
        for r in reps:
            if abs(v - r) <= radius:
                break
        else:
            reps.append(v)
    return reps


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


def critical_data(
    P: ComplexPoly, a: complex, b: complex, tol_cluster: float | None = None
):
    """Distinct finite critical values, supplemented by P(a), P(b) if needed.

    Returns (values, supplemented_flags), ordered counterclockwise by angle
    around the basepoint the sweep would choose.
    """
    tol_cluster = _poly.TOL_CLUSTER if tol_cluster is None else tol_cluster
    if P.degree < 2:
        raise DegenerateInput("deg P must be >= 2")
    if abs(a - b) <= 1e-13 * (1 + abs(a) + abs(b)):
        raise DegenerateInput("endpoints must be distinct")
    crit_pts = roots(derivative(P))
    vals = [P(z) for z in crit_pts]
    radius = tol_cluster * (1.0 + max(abs(v) for v in vals))
    values = _cluster_values(vals, radius)
    flags = [False] * len(values)
    for w in (P(a), P(b)):
        if all(abs(w - v) > radius for v in values):
            values.append(w)
            flags.append(True)
    c = choose_basepoint(values)
    order = sorted(range(len(values)), key=lambda i: np.angle(values[i] - c))
    return [values[i] for i in order], [flags[i] for i in order]


# ---------------------------------------------------------------------------
# path tracking
# ---------------------------------------------------------------------------


def _poly_arrays(P: ComplexPoly):
    c = np.array(P.coeffs)
    return c, np.array(derivative(P).coeffs), np.abs(c)


def _power_sums(c, dc, ac, w):
    """P(w), P'(w) and sum_j |c_j| |w|^j from one table of powers of w.

    Row i of the table is 1, w_i, w_i^2, ...; the magnitude sum times eps
    bounds the rounding error of P(w), so it sets the correctors' floor.
    """
    V = np.empty((len(w), len(c)), dtype=complex)
    V[:, 0] = 1.0
    V[:, 1:] = w[:, None]
    np.cumprod(V, axis=1, out=V)
    return V @ c, V[:, :-1] @ dc, np.abs(V) @ ac


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
        pv, dv, _ = _power_sums(*arrays, w)
    return w, dv, bool((np.abs(pv - z) <= tol).all())


def polish_fiber(P: ComplexPoly, z: complex, w, iters: int = 40):
    """Newton-polish approximate fiber values down to the machine floor."""
    arrays = _poly_arrays(P)
    w = np.array(w, dtype=complex)
    pv, dv, mag = _power_sums(*arrays, w)
    floor = 64e-16 * (mag + abs(z))
    for _ in range(iters):
        if (np.abs(pv - z) <= floor).all():
            break
        step = (pv - z) / np.where(dv == 0, 1e-300, dv)
        w = w - step
        if float(np.max(np.abs(step))) <= 1e-16 * float(np.max(np.abs(w)) + 1):
            break
        pv, dv, _ = _power_sums(*arrays, w)
    return w


def continue_branches(
    P: ComplexPoly,
    path,
    start,
    tol_track: float | None = None,
    record_at=None,
):
    """Continue the full fiber of P along a polyline of sample points.

    Each straight piece z0 -> z1 is stepped in its parameter t in [0, 1]:
    Euler predictor (with P' of the last accepted fiber), then at most
    CORRECTOR_ITERS Newton updates on every branch.  A step is rejected and
    its length halved when the corrector misses the tolerance or any branch
    moves by more than a third of the current minimal branch separation
    (which would make the implicit matching ambiguous); after an accepted
    step the length grows by STEP_GROWTH.  Raises TrackingFailure when
    halving bottoms out, which happens only if the path passes essentially
    through a critical value.

    With record_at = list of indices into `path`, also returns the fiber at
    those waypoints.
    """
    tol_track = TOL_TRACK if tol_track is None else tol_track
    arrays = _poly_arrays(P)
    sep_floor = 1e-12 * (1 + P.coeff_scale())
    w = np.array(start, dtype=complex)
    _, dv, _ = _power_sums(*arrays, w)
    sep = _min_sep(w)
    recorded = {}
    if record_at is not None and 0 in record_at:
        recorded[0] = w.copy()
    for seg in range(len(path) - 1):
        z0, z1 = complex(path[seg]), complex(path[seg + 1])
        t, h, za = 0.0, 1.0, z0
        while t < 1.0:
            tb = min(t + h, 1.0)
            zb = z1 if tb == 1.0 else z0 + tb * (z1 - z0)
            pred = w + (zb - za) / np.where(dv == 0, 1e-300, dv)
            w_new, dv_new, ok = _correct(arrays, zb, pred, tol_track * (abs(zb) + 1.0))
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
        if record_at is not None and (seg + 1) in record_at:
            recorded[seg + 1] = w.copy()
    if record_at is not None:
        return w, recorded
    return w


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


def _circle(center: complex, radius: float, start_angle: float, ccw: bool, segments: int):
    sgn = 1.0 if ccw else -1.0
    return [
        center + radius * np.exp(1j * (start_angle + sgn * 2 * np.pi * t / segments))
        for t in range(segments + 1)
    ]


def _loop_around(c: complex, value: complex, radius: float):
    """Lasso: straight arc from c to the circle, CCW circle, arc back."""
    u = (value - c) / abs(value - c)
    q = value - radius * u
    ang = float(np.angle(q - value))
    circle = _circle(value, radius, ang, ccw=True, segments=CIRCLE_SEGMENTS)
    return [c, q] + circle[1:] + [c]


def monodromy(
    P: ComplexPoly,
    a: complex,
    b: complex,
    tol_track: float | None = None,
    tol_cluster: float | None = None,
    seed: int = 0,
) -> MonodromyData:
    """Loop permutations around every (supplemented) critical value of P.

    The product relation g_1 ... g_k g_inf = id and the n-cycle shape of
    g_inf are verified on the computed permutations; failure of either means
    the tracking tolerances were too coarse for this input and raises
    RelationViolation.  Branches are relabeled so g_inf = (1 2 ... n);
    branch 1 is the first root of the basepoint fiber, an arbitrary but
    deterministic choice.
    """
    n = P.degree
    values, flags = critical_data(P, a, b, tol_cluster)
    c = choose_basepoint(values)
    fiber = polish_fiber(P, c, roots(P - c, seed=seed))

    k = len(values)
    gens = []
    for s, cs in enumerate(values):
        others = [abs(cs - ct) for t, ct in enumerate(values) if t != s]
        r = 0.5 * min(others) if others else 0.5 * abs(c - cs)
        r = min(r, 0.5 * abs(c - cs))
        loop = _loop_around(c, cs, r)
        end = continue_branches(P, loop, fiber, tol_track)
        gens.append(_match_permutation(fiber, end))

    ctr = sum(values) / len(values)
    r_big = 2.0 * max(abs(v - ctr) for v in values) + 3.0 * abs(c - ctr) + 1.0
    u = (c - ctr) / abs(c - ctr)
    p0 = ctr + r_big * u
    circle = _circle(ctr, r_big, float(np.angle(u)), ccw=False,
                     segments=max(CIRCLE_SEGMENTS, 2 * n))
    loop_inf = [c, p0] + circle[1:] + [c]
    end = continue_branches(P, loop_inf, fiber, tol_track)
    g_inf = _match_permutation(fiber, end)

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

    # relabel so that g_inf becomes (1 2 ... n), branch 1 = first fiber root
    new_of_old = [0] * (n + 1)
    old = 1
    for lbl in range(1, n + 1):
        new_of_old[old] = lbl
        old = g_inf(old)

    def relabel(g: Permutation) -> Permutation:
        images = [0] * n
        for i in range(1, n + 1):
            images[new_of_old[i] - 1] = new_of_old[g(i)]
        return Permutation(images)

    gens = [relabel(g) for g in gens]
    g_inf = relabel(g_inf)
    assert g_inf.images == full_cycle(n).images
    new_fiber = [0j] * n
    for i in range(1, n + 1):
        new_fiber[new_of_old[i] - 1] = complex(fiber[i - 1])
    return MonodromyData(
        n=n,
        base_point=c,
        critical_values=tuple(values),
        supplemented=tuple(flags),
        generators=tuple(gens),
        g_inf=g_inf,
        fiber=tuple(new_fiber),
    )


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------


def multiplicity_at(P: ComplexPoly, z: complex, tol: float = 1e-8) -> int:
    """Order of vanishing of P - P(z) at z, by scaled derivative tests."""
    q = derivative(P)
    m = 1
    while q.degree >= 0:
        scale = sum(abs(cf) * max(1.0, abs(z)) ** j for j, cf in enumerate(q.coeffs))
        if abs(q(z)) > tol * (scale + 1.0):
            return m
        q = derivative(q)
        m += 1
    return m


def _locate_branches(P, md: MonodromyData, point: complex, s: int, mult: int):
    """Branch indices whose values converge to `point` along the s-th arc."""
    c = md.base_point
    cs = md.critical_values[s - 1]
    others = [abs(cs - ct) for t, ct in enumerate(md.critical_values) if t != s - 1]
    r = 0.5 * min(others) if others else 0.5 * abs(c - cs)
    r = min(r, 0.5 * abs(c - cs))
    u = (c - cs) / abs(c - cs)
    delta = 1e-2 * r
    w = np.array(md.fiber, dtype=complex)
    z_cur = c
    for _ in range(7):
        q = cs + delta * u
        w = continue_branches(P, [z_cur, q], w)
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


def build_cactus(md: MonodromyData, P: ComplexPoly, a: complex, b: complex) -> Cactus:
    """Locate a and b on the tree and assemble it.

    V(a) is found by continuing the fiber along the arc toward P(a)'s vertex
    color and picking the branches that converge to a; the count must equal
    the multiplicity of a and the set must be a single cycle of the color's
    permutation.  The circular-separation law for V(a), V(b) is checked on
    every build.
    """
    radius = _poly.TOL_CLUSTER * (1.0 + max(abs(v) for v in md.critical_values))

    def color_of(w: complex) -> int:
        ds = [abs(w - v) for v in md.critical_values]
        s = int(np.argmin(ds)) + 1
        if ds[s - 1] > radius * 10:
            raise VertexMismatch(f"value {w:.6g} is not a vertex color")
        return s

    s_a, s_b = color_of(P(a)), color_of(P(b))
    d_a, d_b = multiplicity_at(P, a), multiplicity_at(P, b)
    Va = _locate_branches(P, md, a, s_a, d_a)
    Vb = _locate_branches(P, md, b, s_b, d_b)

    def cycle_check(s: int, branches: frozenset[int], label: str):
        for cyc in md.generators[s - 1].cycles():
            if frozenset(cyc) == branches:
                return
        raise VertexMismatch(
            f"V({label}) = {sorted(branches)} is not a cycle of color {s}"
        )

    cycle_check(s_a, Va, "a")
    cycle_check(s_b, Vb, "b")
    if s_a == s_b and Va == Vb:
        raise DegeneratePath("a and b landed on the same vertex")

    sep = circular_separation(Va, Vb, md.n)
    same_value = abs(P(a) - P(b)) <= radius * 10
    if same_value and sep != "disjointed":
        raise VertexMismatch(f"V(a), V(b) must be disjointed, got {sep}")
    if not same_value and sep == "entangled":
        raise VertexMismatch("V(a), V(b) are entangled on the circle")

    return cactus_from_generators(
        md.n,
        md.generators,
        (s_a, min(Va)),
        (s_b, min(Vb)),
    )


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
