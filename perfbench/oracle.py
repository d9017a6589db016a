"""Checks every job output against what the generator built, numpy only.

Nothing here trusts a residual the program reports: compositions and
endpoint values are recomputed from the returned coefficients.  Each check
returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from corpus import Job, compose, evaluate

REL = 1e-6


def poly_from_json(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj["coeffs"]], dtype=complex)


def _trim(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    nz = np.nonzero(p)[0]
    return p[: nz[-1] + 1] if len(nz) else p[:0]


def degree(p: np.ndarray) -> int:
    return len(_trim(p)) - 1


def _norm(p: np.ndarray) -> float:
    return float(np.max(np.abs(p))) if len(p) else 0.0


def _diff(p: np.ndarray, q: np.ndarray) -> float:
    return _norm(np.polynomial.polynomial.polysub(p, q))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _identifies(W: np.ndarray, a: complex, b: complex) -> bool:
    r = max(1.0, abs(a), abs(b))
    scale = sum(abs(c) * r**k for k, c in enumerate(W))
    return abs(evaluate(W, a) - evaluate(W, b)) <= REL * max(1.0, scale)


def _factors(outer: np.ndarray, W: np.ndarray, target: np.ndarray) -> bool:
    """target == outer(W), checked against the magnitude of the composition."""
    scale = _norm(compose(np.abs(outer), np.abs(W)).real)
    return _diff(target, compose(outer, W)) <= REL * max(1.0, _norm(target), scale)


def check_analyze(job: Job, code: int, report: dict) -> list[str]:
    inst = job.inst
    n = degree(inst.P)
    if code != 0:
        return [f"exit code {code}"]
    probs = []
    if report["n"] != n:
        probs.append(f"n = {report['n']}, expected {n}")
    if report["existence"] is not True:
        probs.append("existence is not true although P(a) = P(b)")
    D = report["D"]
    if inst.all_divisors and D != divisors(n):
        probs.append(f"D = {D}, expected every divisor of {n}")
    if inst.inner is not None and n // degree(inst.inner) not in D:
        probs.append(f"n / deg B = {n // degree(inst.inner)} missing from D = {D}")
    if not set(report["S"]) <= set(D):
        probs.append("S is not a subset of D")
    if report["M_dim"] != len(report["M_basis"]):
        probs.append("M_dim differs from the size of M_basis")
    found = {}
    for g in report["reducible_generators"]:
        W, A = poly_from_json(g["W"]), poly_from_json(g["A"])
        if g["d"] not in D or degree(W) * g["d"] != n:
            probs.append(f"generator d = {g['d']} has deg W = {degree(W)}")
        if not _identifies(W, inst.a, inst.b):
            probs.append(f"generator d = {g['d']}: W(a) != W(b)")
        if not _factors(A, W, inst.P):
            probs.append(f"generator d = {g['d']}: P != A(W)")
        found[degree(W)] = W
    if inst.inner is not None:
        B = inst.inner
        W = found.get(degree(B))
        if W is None or _diff(W, B) > REL * max(1.0, _norm(B)):
            probs.append(f"the constructed factor of degree {degree(B)} is not reported")
    if inst.expected_factor_degrees is not None:
        if sorted(found) != sorted(inst.expected_factor_degrees):
            probs.append(
                f"factor degrees {sorted(found)}, expected {list(inst.expected_factor_degrees)}"
            )
    return probs


def check_verify(job: Job, verdict: bool) -> list[str]:
    if verdict != job.expect_solution:
        what = "constructed solution" if job.expect_solution else "non-solution"
        return [f"verdict {verdict} on a {what}"]
    return []


def check_decompose(job: Job, summands: list[dict]) -> list[str]:
    """summands: dicts of coefficient arrays Q_j, W_j, A_tilde_j, Q_tilde_j."""
    inst = job.inst
    n = degree(inst.P)
    target = np.array(job.Q, dtype=complex)
    target[0] -= evaluate(job.Q, inst.a)
    if not summands:
        return ["no summands for a nonconstant solution"]
    probs = []
    total = np.zeros(1, dtype=complex)
    for j, s in enumerate(summands):
        W = s["W_j"]
        total = np.polynomial.polynomial.polyadd(total, s["Q_j"])
        dw = degree(W)
        if dw < 2 or n % dw:
            probs.append(f"summand {j}: deg W = {dw} does not divide n = {n}")
        if not _identifies(W, inst.a, inst.b):
            probs.append(f"summand {j}: W(a) != W(b)")
        if not _factors(s["A_tilde_j"], W, inst.P):
            probs.append(f"summand {j}: P != A~(W)")
        if not _factors(s["Q_tilde_j"], W, s["Q_j"]):
            probs.append(f"summand {j}: Q_j != Q~(W)")
    if _diff(total, target) > REL * max(1.0, _norm(target)):
        probs.append("summands do not add up to Q - Q(a)")
    return probs


def summands_from_json(report: dict) -> list[dict]:
    keys = ("Q_j", "W_j", "A_tilde_j", "Q_tilde_j")
    return [{k: poly_from_json(s[k]) for k in keys} for s in report["summands"]]


def margin_decades(report: dict, tolerances: dict) -> float | None:
    """min of log10(tol / residual) over the moment and relation checks."""
    out = []
    for key, tol in (("moment_residual", tolerances["tol-moment"]),
                     ("relation_residual", tolerances["tol-phi"])):
        res = report[key]
        if res > 0:
            out.append(math.log10(tol / res))
    return min(out) if out else None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def analyze_digest(report: dict) -> str:
    return digest({
        "generators": report["generators"],
        "g_inf": report["g_inf"],
        "D": report["D"],
        "S": report["S"],
        "M_basis": report["M_basis"],
        "existence": report["existence"],
        "W_degrees": sorted(len(g["W"]["coeffs"]) - 1 for g in report["reducible_generators"]),
        "double_decompositions": report["double_decompositions"],
    })


def decompose_digest(summands: list[dict]) -> str:
    return digest({"W_degrees": sorted(degree(s["W_j"]) for s in summands)})
