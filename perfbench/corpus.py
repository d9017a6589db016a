"""Job generator for the benchmark, numpy only.

Every workload draws its jobs from a short list of templates.  The random
parts of a template (the coefficients of a composite A(B(z)), its endpoint
a, the angle of a recursive-decompose job) are drawn once from a fixed
per-template generator, so every run meets the same mix of shapes and
costs; the run seed then perturbs each job by a small relative jitter.  The
same seed therefore gives the same inputs, different seeds give different
inputs (no exact input repeats across seeds), and the cost of a run does not
hinge on one lucky or unlucky draw: that keeps the seed-to-seed spread of the
end-to-end metrics inside their bounds.  No draw is ever rejected because
the program fails on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JITTER = 1e-3
SQRT3_2 = math.sqrt(3.0) / 2.0

# (deg A, deg B) of the composites, n = 16..24; deg A = 2 shapes are left out
# only because one of their jobs costs 6-9 s, which would leave too few jobs
# per run for a tail percentile
COMPOSITE_SHAPES = ((4, 4), (6, 3), (5, 4), (4, 5), (6, 4), (4, 6))
# analyze runs 8 templates a pass, in cost order T_6, T_12, T_24, then the
# pairs (6,3)/(5,4) and (4,5)/(4,6) of similar cost, then (6,4).  With 5
# passes the median rank falls in the middle of the first pair and the tail
# rank (10 jobs from the top) in the middle of the second, not on the edge
# between two costs.
ANALYZE_COMPOSITES = (1, 2, 3, 5, 4)

# (family, n, q): P = T_n or z^n, Q = T_q or z^q with q | n
RECURSIVE_TEMPLATES = (
    ("T", 8, 4),
    ("z", 8, 4),
    ("T", 12, 6),
    ("T", 16, 8),
    ("T", 18, 9),
    ("T", 20, 10),
    ("T", 24, 12),
    ("z", 12, 6),
    ("z", 16, 8),
    ("z", 20, 5),
    ("z", 24, 12),
)
# an odd number of templates (and of query instances) puts the median job
# inside one cost cluster instead of on the edge between two


@dataclass
class Instance:
    """P with endpoints a, b, plus what the construction guarantees."""

    name: str
    P: np.ndarray  # ascending complex coefficients
    a: complex
    b: complex
    # the right factor the construction used (monic, B(0) = 0), if any
    inner: np.ndarray | None = None
    # for T_n and z^n every divisor of n is admissible
    all_divisors: bool = False
    # Chebyshev with a = -sqrt(3)/2, b = sqrt(3)/2: exactly the factors
    # T_k (k | n, k >= 2) with T_k(a) = T_k(b) identify the endpoints
    expected_factor_degrees: tuple[int, ...] | None = None


@dataclass
class Job:
    id: str
    kind: str  # "analyze", "verify", "decompose"
    inst: Instance
    Q: np.ndarray | None = None
    expect_solution: bool = True
    # first job of a pass over the workload's templates; runs stop only
    # here, so every run holds whole passes and the same mix of jobs
    cycle_start: bool = False


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    acc = np.zeros(1, dtype=complex)
    for c in outer[::-1]:
        acc = np.polynomial.polynomial.polymul(acc, inner)
        acc[0] += c
    return np.asarray(acc, dtype=complex)


def evaluate(p: np.ndarray, z: complex) -> complex:
    return complex(np.polynomial.polynomial.polyval(z, p))


def chebyshev(n: int) -> np.ndarray:
    return np.polynomial.chebyshev.cheb2poly([0] * n + [1]).astype(complex)


def power(n: int) -> np.ndarray:
    p = np.zeros(n + 1, dtype=complex)
    p[n] = 1.0
    return p


def _cnormal(rng, k: int) -> np.ndarray:
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _jitter(rng, x):
    return x * (1.0 + JITTER * _cnormal(rng, np.size(x)).reshape(np.shape(x)))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def chebyshev_symmetric(n: int) -> Instance:
    """T_n on [-sqrt(3)/2, sqrt(3)/2], the paper's running example at n = 6."""
    theta_a, theta_b = 5 * math.pi / 6, math.pi / 6
    degs = tuple(
        k
        for k in range(2, n + 1)
        if n % k == 0 and abs(math.cos(k * theta_a) - math.cos(k * theta_b)) < 1e-9
    )
    return Instance(
        name=f"T{n}",
        P=chebyshev(n),
        a=complex(-SQRT3_2),
        b=complex(SQRT3_2),
        all_divisors=True,
        expected_factor_degrees=degs,
    )


def composite(index: int, rng=None) -> Instance:
    """A(B(z)) for COMPOSITE_SHAPES[index], b solved from B(a) = B(b).

    The base draw comes from RandomState(index); rng, when given, jitters
    the coefficients and a.
    """
    dA, dB = COMPOSITE_SHAPES[index]
    base = np.random.RandomState(index)
    A = 0.7 * _cnormal(base, dA + 1)
    A[dA] = A[dA] / abs(A[dA]) * (0.5 + abs(A[dA]) % 1.0)
    B = 0.7 * _cnormal(base, dB + 1)
    B[0], B[dB] = 0.0, 1.0
    a = complex(*base.standard_normal(2))
    if rng is not None:
        A = _jitter(rng, A)
        B[1:dB] = _jitter(rng, B[1:dB])
        a = complex(_jitter(rng, np.array([a]))[0])
    shifted = B.copy()
    shifted[0] -= evaluate(B, a)
    cands = np.roots(shifted[::-1])
    b = complex(max(cands, key=lambda z: abs(z - a)))
    # polish b to the floating-point limit of B(b) = B(a)
    dB_coeffs = np.polynomial.polynomial.polyder(shifted)
    for _ in range(3):
        b -= evaluate(shifted, b) / evaluate(dB_coeffs, b)
    return Instance(
        name=f"C{dA}x{dB}",
        P=compose(A, B),
        a=a,
        b=b,
        inner=B,
    )


def recursive(template: int, rng=None) -> tuple[Instance, np.ndarray]:
    """P = T_n or z^n with a solution Q = T_q or z^q whose factor recurses.

    a = cos(theta), b = cos(theta + 2 pi / q) (Chebyshev) or
    a = e^(i theta), b = e^(i (theta + 2 pi / q)) (power map), so Q(a) = Q(b)
    while the factor the solver extracts first does not identify a and b.
    """
    fam, n, q = RECURSIVE_TEMPLATES[template]
    theta = np.random.RandomState(100 + template).uniform(0.1, 1.0)
    if rng is not None:
        theta += JITTER * rng.standard_normal()
    if fam == "T":
        P, Q = chebyshev(n), chebyshev(q)
        a, b = math.cos(theta), math.cos(theta + 2 * math.pi / q)
    else:
        P, Q = power(n), power(q)
        a, b = np.exp(1j * theta), np.exp(1j * (theta + 2 * math.pi / q))
    inst = Instance(
        name=f"{fam}{n}q{q}",
        P=P,
        a=complex(a),
        b=complex(b),
        all_divisors=True,
    )
    return inst, Q


# ---------------------------------------------------------------------------
# job streams
# ---------------------------------------------------------------------------


def analyze_jobs(seed: int, smoke: bool = False):
    """Cycle T_6, T_12, T_24 and the composites; every composite job is a
    fresh jittered draw."""
    slots = [("T", 6), ("T", 12), ("T", 24)] + [("C", i) for i in ANALYZE_COMPOSITES]
    if smoke:
        slots = [("T", 6), ("C", 0)]
    i = 0
    while True:
        kind, arg = slots[i % len(slots)]
        if kind == "T":
            inst = chebyshev_symmetric(arg)
        else:
            inst = composite(arg, np.random.RandomState([seed, i]))
        yield Job(
            id=f"analyze-s{seed}-j{i:04d}-{inst.name}",
            kind="analyze",
            inst=inst,
            cycle_start=i % len(slots) == 0,
        )
        i += 1
        if smoke and i == len(slots):
            return


def queries_instances(seed: int, smoke: bool = False) -> list[Instance]:
    """The instances the query stream runs against, built once per run."""
    if smoke:
        return [chebyshev_symmetric(6)]
    rng = np.random.RandomState([seed, 1 << 20])
    return [
        chebyshev_symmetric(6),
        chebyshev_symmetric(12),
        chebyshev_symmetric(24),
        composite(0, rng),  # n = 16
        composite(4, rng),  # n = 24, the (6, 4) shape
    ]


def _solution_for(inst: Instance, rng) -> np.ndarray:
    if inst.inner is not None:
        return compose(_cnormal(rng, 3), inst.inner)
    # T_2 and T_3 both identify the symmetric endpoints
    c2, c3 = _cnormal(rng, 2)
    return np.polynomial.polynomial.polyadd(c2 * chebyshev(2), c3 * chebyshev(3))


def query_jobs(seed: int, instances: list[Instance], smoke: bool = False):
    """verify(solution), verify(non-solution), decompose(solution), per
    instance, round robin.  The non-solution is Q = c z: its first moment is
    c (b - a) != 0."""
    i = 0
    while True:
        inst = instances[(i // 3) % len(instances)]
        step = i % 3
        rng = np.random.RandomState([seed, i])
        if step == 1:
            Q = np.array([0.0, _cnormal(rng, 1)[0]], dtype=complex)
            kind, expect = "verify", False
        else:
            Q = _solution_for(inst, rng)
            kind, expect = ("verify", True) if step == 0 else ("decompose", True)
        tag = f"{kind}-{'sol' if expect else 'non'}"
        yield Job(
            id=f"queries-s{seed}-j{i:04d}-{inst.name}-{tag}",
            kind=kind,
            inst=inst,
            Q=Q,
            expect_solution=expect,
            cycle_start=i % (3 * len(instances)) == 0,
        )
        i += 1
        if smoke and i == 3 * len(instances):
            return


def recursive_jobs(seed: int, smoke: bool = False):
    templates = [0, 1] if smoke else list(range(len(RECURSIVE_TEMPLATES)))
    i = 0
    while True:
        t = templates[i % len(templates)]
        inst, Q = recursive(t, np.random.RandomState([seed, i]))
        yield Job(
            id=f"decompose_recursive-s{seed}-j{i:04d}-{inst.name}",
            kind="decompose",
            inst=inst,
            Q=Q,
            cycle_start=i % len(templates) == 0,
        )
        i += 1
        if smoke and i == len(templates):
            return
