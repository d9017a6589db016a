"""Batch front end: one JSON job in, one JSON report out.

Commands: analyze (monodromy, tree, subspace, divisor data), verify (run the
vanishing checks on Q), decompose (split a solution into reducible
summands), generate (emit a random reducible problem), selftest (run a fixed
miniature corpus).  Exit codes: 0 success / verdict true / nonempty
decomposition, 2 verdict false or not a solution, 1 internal error, 64
malformed input (the cases below, a truncation too short for the job among
them).

Each job builds one `Tolerances` from the --tol-<field> flags and the job's
"tol-<field>" options (a flag wins) and hands it to its command; the report
echoes it under options.tolerances.  An "options" key other than moments,
truncation, seed and tol-<field>, numeric flags and options that do not
convert, a count that is a boolean or has a fractional part, a negative
count, a seed numpy cannot take, a truncation shorter than the expansion of
Q(P^-1) needs (N < deg P + deg Q - 1), a tolerance that is negative or not
finite, a coefficient or endpoint that is not finite, an --output file that
cannot be written, and an unknown flag or a flag argparse rejects are
malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, fields

from . import __version__
from .errors import MalformedInput, MomentProblemError, NotASolution
from .permgroup import lattice_to_json, perm_to_json
from .poly import ComplexPoly, Tolerances, chebyshev, compose, poly_from_json, poly_to_json
from .rational import vector_to_json
from .solver import (
    GENERATE_ATTEMPTS,
    build_instance,
    decompose_solution,
    double_decompositions,
    exists_nonzero_solution,
    random_reducible_problem,
    reducible_generators,
)

# numpy's RandomState takes seeds below 2**32
SEED_LIMIT = 2**32


def _finite(values, name: str):
    # JSON's NaN, Infinity and overflowing literals such as 1e400 all parse
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise MalformedInput(f"field {name!r} has a value that is not finite")


def _parse_complex(obj, name: str) -> complex:
    try:
        re, im = obj
        z = complex(float(re), float(im))
    except Exception as exc:
        raise MalformedInput(f"field {name!r} must be a [re, im] pair") from exc
    _finite([z], name)
    return z


def _parse_poly(obj, name: str) -> ComplexPoly:
    try:
        p = poly_from_json(obj)
    except Exception as exc:
        raise MalformedInput(f"field {name!r} is not a polynomial object") from exc
    _finite(p.coeffs, name)
    return p


def _require(job: dict, field: str):
    if field not in job:
        raise MalformedInput(f"command needs field {field!r}")
    return job[field]


def _count(value, name: str, limit: int | None = None) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        value = None  # int() would take true as 1 and truncate 2.9 to 2
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or (limit is not None and k >= limit):
        bound = "" if limit is None else f" below {limit}"
        raise MalformedInput(
            f"option {name!r} must be a non-negative integer{bound}, got {value!r}"
        )
    return k


def _tolerance(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x >= 0):
        raise MalformedInput(f"option {name!r} must be a finite number >= 0, got {value!r}")
    return x


def _instance_from_job(job, seed: int, tol: Tolerances):
    P = _parse_poly(_require(job, "P"), "P")
    a = _parse_complex(_require(job, "a"), "a")
    b = _parse_complex(_require(job, "b"), "b")
    return build_instance(P, a, b, seed=seed, tol=tol)


def run_analyze(job: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    inst = _instance_from_job(job, opts["seed"], tol)
    md, cac = inst.md, inst.cactus
    gens = reducible_generators(inst)
    report = {
        "n": inst.n,
        "base_point": [md.base_point.real, md.base_point.imag],
        "critical_values": [[v.real, v.imag] for v in md.critical_values],
        "supplemented": list(md.supplemented),
        "generators": [perm_to_json(g) for g in md.generators],
        "g_inf": perm_to_json(md.g_inf),
        "tree": {"vertices": cac.vertex_count(), "edges": cac.edge_count()},
        "V_a": list(cac.V_a),
        "V_b": list(cac.V_b),
        "f_vectors": [list(v) for v in inst.fv],
        "lattice": lattice_to_json(inst.D),
        "D": list(inst.D.divisors),
        "S": sorted(inst.S),
        "i_P": inst.imprimitivity_count,
        "M_dim": inst.M.dim,
        "M_basis": [vector_to_json(row) for row in inst.M.basis],
        "existence": exists_nonzero_solution(inst),
        "reducible_generators": [
            {
                "d": g.d,
                "W": poly_to_json(g.W),
                "A": poly_to_json(g.A),
                "gap": g.gap,
            }
            for g in gens
        ],
        "double_decompositions": len(double_decompositions(inst)),
    }
    return report, 0


def run_verify(job: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    inst = _instance_from_job(job, opts["seed"], tol)
    Q = _parse_poly(_require(job, "Q"), "Q")
    rep = inst.verify(Q, I=opts["moments"], N=opts["truncation"])
    return rep.to_json(), 0 if rep.verdict else 2


def run_decompose(job: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    inst = _instance_from_job(job, opts["seed"], tol)
    Q = _parse_poly(_require(job, "Q"), "Q")
    try:
        summands = decompose_solution(inst, Q, I=opts["moments"], N=opts["truncation"])
    except NotASolution as exc:
        return {"error": "NotASolution", "detail": str(exc)}, 2
    body = [
        {**s.to_json(), "residuals": {"factor": s.r_factor, "solution": s.r_solution}}
        for s in summands
    ]
    return {"count": len(summands), "summands": body}, 0


def run_generate(job: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    last = GENERATE_ATTEMPTS - 1
    if opts["seed"] * 1009 + last >= SEED_LIMIT:
        raise MalformedInput(f"generate needs seed * 1009 + {last} < 2**32, got seed {opts['seed']}")
    prob = random_reducible_problem(opts["seed"], tol=tol)
    return {
        "P": poly_to_json(prob.P),
        "a": [prob.a.real, prob.a.imag],
        "b": [prob.b.real, prob.b.imag],
        "Q": poly_to_json(prob.Q),
        "inner": poly_to_json(prob.inner),
        "seed": prob.seed,
    }, 0


def run_selftest(job: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    """A fixed miniature corpus touching every layer; seconds, not minutes."""
    results = {}

    t6 = chebyshev(6)
    results["chebyshev_composition"] = (
        compose(chebyshev(3), chebyshev(2)).coeffs == t6.coeffs
    )

    a, b = -math.sqrt(3) / 2, math.sqrt(3) / 2
    inst = build_instance(t6, a, b, seed=opts["seed"], tol=tol)
    results["t6_divisors"] = inst.D.divisors == (1, 2, 3, 6)
    Q = 2 * chebyshev(2) + 5 * chebyshev(3)
    summands = decompose_solution(inst, Q, I=opts["moments"])
    results["t6_two_summands"] = len(summands) == 2

    z2 = ComplexPoly([0, 0, 1])
    inst2 = build_instance(z2, -1, 1, seed=opts["seed"], tol=tol)
    results["z2_subspace_dim"] = inst2.M.dim == 1
    try:
        decompose_solution(inst2, ComplexPoly([0, 1]))
        results["z2_negative_control"] = False
    except NotASolution:
        results["z2_negative_control"] = True

    inst3 = build_instance(z2, 0, 1, seed=opts["seed"], tol=tol)
    results["existence_gate"] = (not exists_nonzero_solution(inst3)) and not reducible_generators(inst3)

    ok = all(results.values())
    return {"results": results, "ok": ok}, 0 if ok else 1


_COMMANDS = {
    "analyze": run_analyze,
    "verify": run_verify,
    "decompose": run_decompose,
    "generate": run_generate,
    "selftest": run_selftest,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print usage and exit 2, the code of a false verdict
        raise MalformedInput(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polymoment",
        description="moment vanishing for complex polynomials on a segment",
    )
    ap.add_argument("--command", choices=sorted(_COMMANDS), help="overrides the job's command field")
    ap.add_argument("--input", "-i", help="job JSON file (default: stdin)")
    ap.add_argument("--output", "-o", help="report file (default: stdout)")
    # numeric values are converted and checked per job, by run_job
    ap.add_argument("--moments", default=25, help="number of moments I")
    ap.add_argument("--truncation", default=None, help="series truncation N")
    ap.add_argument("--seed", default=0)
    for f in fields(Tolerances):
        ap.add_argument(f"--tol-{f.name}", default=None)
    return ap


def run_job(job: dict, args) -> tuple[dict, int]:
    command = args.command or job.get("command")
    if command not in _COMMANDS:
        raise MalformedInput(f"unknown or missing command: {command!r}")
    job_opts = job.get("options", {})
    if not isinstance(job_opts, dict):
        raise MalformedInput("options must be an object")
    known = {"moments", "truncation", "seed", *(f"tol-{f.name}" for f in fields(Tolerances))}
    if unknown := [key for key in job_opts if key not in known]:
        raise MalformedInput(f"unknown option {unknown[0]!r}")
    opts = {
        "moments": _count(job_opts.get("moments", args.moments), "moments"),
        "truncation": job_opts.get("truncation", args.truncation),
        "seed": _count(job_opts.get("seed", args.seed), "seed", SEED_LIMIT),
    }
    if opts["truncation"] is not None:
        opts["truncation"] = _count(opts["truncation"], "truncation")
    given = {}
    for f in fields(Tolerances):
        flag = f"tol-{f.name}"
        val = getattr(args, f"tol_{f.name}")
        if val is None:
            val = job_opts.get(flag)
        if val is not None:
            given[f.name] = _tolerance(val, flag)
    tol = Tolerances(**given)
    body, code = _COMMANDS[command](job, opts, tol)
    report = {
        "version": __version__,
        "command": command,
        "options": {**opts, "tolerances": {f"tol-{k}": v for k, v in asdict(tol).items()}},
        "report": body,
    }
    return report, code


def _check_output(path: str):
    """Reject an --output file that cannot be written before any job runs.
    The file is not opened here, so an existing report survives a failed job."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise MalformedInput(f"--output {path}: directory missing or not writable")
    if os.path.exists(path) and (os.path.isdir(path) or not os.access(path, os.W_OK)):
        raise MalformedInput(f"--output {path}: not a writable file")


def _malformed(exc: Exception) -> int:
    print(json.dumps({"error": "MalformedInput", "detail": str(exc)}), file=sys.stderr)
    return 64


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.input:
            with open(args.input) as fh:
                text = fh.read()
        elif not sys.stdin.isatty():
            text = sys.stdin.read()
        else:
            text = "{}"
        job = json.loads(text) if text.strip() else {}
        if not isinstance(job, dict):
            raise MalformedInput("job must be a JSON object")
        if args.output:
            _check_output(args.output)
    except (MalformedInput, OSError, json.JSONDecodeError) as exc:
        return _malformed(exc)

    try:
        report, code = run_job(job, args)
    except MalformedInput as exc:
        return _malformed(exc)
    except Exception as exc:
        detail = str(exc)
        if not isinstance(exc, MomentProblemError):
            # an internal fault: name where it was raised instead of a traceback
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail += f" ({os.path.basename(where.filename)}:{where.lineno} in {where.name})"
        print(json.dumps({"error": type(exc).__name__, "detail": detail}), file=sys.stderr)
        return 1

    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _malformed(exc)
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            # the reader closed stdout: send the flush at shutdown to devnull
            # and report like an --output that cannot be written
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _malformed(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
