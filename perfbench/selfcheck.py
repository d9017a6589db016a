"""Self-check of the benchmark itself.

The oracle must reject tampered outputs (a dropped summand, a flipped
verdict, a missing right factor), and every workload must run end to end,
untraced and traced, on a tiny corpus.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import run

run.bootstrap()

import corpus  # noqa: E402
import oracle  # noqa: E402


def _cli(job):
    code, out, err = run.call_cli(run.cli_text(job))
    if not out:
        raise SystemExit(f"selfcheck: CLI failed on {job.id}: {err}")
    return code, json.loads(out)["report"]


def oracle_checks() -> dict:
    inst = corpus.chebyshev_symmetric(6)
    Q = np.polynomial.polynomial.polyadd(2 * corpus.chebyshev(2), 5 * corpus.chebyshev(3))
    sol = corpus.Job(id="selfcheck-decompose", kind="decompose", inst=inst, Q=Q)
    non = corpus.Job(id="selfcheck-non", kind="verify", inst=inst,
                     Q=np.array([0, 1], dtype=complex), expect_solution=False)
    ana = corpus.Job(id="selfcheck-analyze", kind="analyze", inst=corpus.composite(0))

    _, rep = _cli(sol)
    summands = oracle.summands_from_json(rep)
    _, verdict_rep = _cli(corpus.Job(id="selfcheck-verify", kind="verify", inst=inst, Q=Q))
    _, non_rep = _cli(non)
    code_a, ana_rep = _cli(ana)
    constructed = oracle.degree(ana.inst.inner)
    tampered = copy.deepcopy(ana_rep)
    tampered["reducible_generators"] = [
        g for g in tampered["reducible_generators"] if len(g["W"]["coeffs"]) - 1 != constructed
    ]
    return {
        # untampered outputs pass ...
        "decompose_passes": oracle.check_decompose(sol, summands) == [],
        "verify_solution_passes": oracle.check_verify(sol, verdict_rep["verdict"]) == [],
        "verify_non_solution_passes": oracle.check_verify(non, non_rep["verdict"]) == [],
        "analyze_passes": oracle.check_analyze(ana, code_a, ana_rep) == [],
        # ... and tampered ones are flagged
        "dropped_summand_flagged": bool(oracle.check_decompose(sol, summands[1:])),
        "flipped_verdict_flagged": bool(oracle.check_verify(sol, not verdict_rep["verdict"])),
        "flipped_non_verdict_flagged": bool(oracle.check_verify(non, not non_rep["verdict"])),
        "missing_factor_flagged": bool(oracle.check_analyze(ana, code_a, tampered)),
    }


def smoke_runs() -> dict:
    out = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            res = run.run(workload, seed=0, seconds=0, trace=trace, smoke=True)
            metrics = res["layer_metrics"] if trace else res["metrics"]
            out[f"{workload}_trace{int(trace)}"] = {
                "ok": bool(res["correct"] and res["attempted"] >= 1 and metrics),
                "attempted": res["attempted"],
                "failed": res["failed"],
                "failing_jobs": res["failing_jobs"],
            }
    return out


def main() -> int:
    checks = oracle_checks()
    smoke = smoke_runs()
    ok = all(checks.values()) and all(s["ok"] for s in smoke.values())
    print(json.dumps({"ok": ok, "oracle": checks, "smoke": smoke}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
