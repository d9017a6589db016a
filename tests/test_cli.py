import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import polymoment
from polymoment import cli, monodromy, series, solver
from polymoment.cli import main
from polymoment.poly import Tolerances, chebyshev, poly_to_json

SQ3 = math.sqrt(3)


def run_cli(tmp_path, job, extra=()):  # returns (exit code, report dict)
    inp = tmp_path / "job.json"
    out = tmp_path / "report.json"
    inp.write_text(job if isinstance(job, str) else json.dumps(job))
    code = main(["--input", str(inp), "--output", str(out), *extra])
    text = out.read_text() if out.exists() else "{}"
    return code, json.loads(text)


def t6_job(command, with_q=True):
    job = {
        "command": command,
        "P": poly_to_json(chebyshev(6)),
        "a": [-SQ3 / 2, 0.0],
        "b": [SQ3 / 2, 0.0],
    }
    if with_q:
        q = 2 * chebyshev(2) + 5 * chebyshev(3)
        job["Q"] = poly_to_json(q)
    return job


def test_analyze_t6(tmp_path):
    code, rep = run_cli(tmp_path, t6_job("analyze", with_q=False))
    assert code == 0
    body = rep["report"]
    assert body["D"] == [1, 2, 3, 6]
    assert body["existence"] is True
    assert body["tree"] == {"vertices": 13, "edges": 12}
    assert body["g_inf"] == [2, 3, 4, 5, 6, 1]
    assert len(body["reducible_generators"]) == 3
    assert rep["version"]
    assert "tolerances" in rep["options"]


def test_verify_exit_codes(tmp_path):
    code, rep = run_cli(tmp_path, t6_job("verify"))
    assert code == 0 and rep["report"]["verdict"] is True

    bad = {
        "command": "verify",
        "P": {"coeffs": [[0, 0], [0, 0], [1, 0]]},
        "a": [-1, 0],
        "b": [1, 0],
        "Q": {"coeffs": [[0, 0], [1, 0]]},
    }
    code, rep = run_cli(tmp_path, bad)
    assert code == 2
    assert rep["report"]["verdict"] is False
    m0 = complex(*rep["report"]["moments"][0])
    assert abs(m0 - 2) < 1e-12


def test_decompose_t6(tmp_path):
    code, rep = run_cli(tmp_path, t6_job("decompose"))
    assert code == 0
    body = rep["report"]
    assert body["count"] == 2
    degs = sorted(len(s["W_j"]["coeffs"]) - 1 for s in body["summands"])
    assert degs == [2, 3]


def test_decompose_nonsolution_exit_2(tmp_path):
    job = {
        "command": "decompose",
        "P": {"coeffs": [[0, 0], [0, 0], [1, 0]]},
        "a": [-1, 0],
        "b": [1, 0],
        "Q": {"coeffs": [[0, 0], [1, 0]]},
    }
    code, rep = run_cli(tmp_path, job)
    assert code == 2
    assert rep["report"]["error"] == "NotASolution"


def test_generate_deterministic(tmp_path):
    code1, rep1 = run_cli(tmp_path, {"command": "generate", "options": {"seed": 5}})
    code2, rep2 = run_cli(tmp_path, {"command": "generate", "options": {"seed": 5}})
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["report"]["P"]["coeffs"]


def test_malformed_inputs(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "nope"})
    assert code == 64
    code, _ = run_cli(tmp_path, {"command": "verify", "P": {"coeffs": []}})
    assert code == 64
    code, _ = run_cli(tmp_path, {"command": "analyze", "P": "garbage", "a": [0, 0], "b": [1, 0]})
    assert code == 64
    # options and flags that do not convert, or fall outside their range
    for options in (
        {"tol-root": "abc"},
        {"moments": "x"},
        {"seed": "x"},
        {"moments": -1},
        {"tol-moment": "nan"},
        # int() would run these as 2 moments, 1 moment and seed 1
        {"moments": 2.9},
        {"moments": True},
        {"seed": 1.5},
    ):
        code, _ = run_cli(tmp_path, {**t6_job("verify"), "options": options})
        assert code == 64, options
    for extra in (("--moments", "x"), ("--tol-moment", "nan"), ("--tol-root", "-1")):
        code, _ = run_cli(tmp_path, t6_job("verify"), extra=extra)
        assert code == 64, extra
    # seeds numpy cannot take; generate seeds it with seed * 1009 + attempt
    for job in (
        {**t6_job("verify"), "options": {"seed": 2**32}},
        {"command": "generate", "options": {"seed": 5000000}},
        {"command": "generate", "options": {"seed": 4256658}},
    ):
        code, _ = run_cli(tmp_path, job)
        assert code == 64, job
    # values that are not finite: JSON's 1e400, NaN and Infinity all parse
    for field, literal in (("P", "1e400"), ("b", "1e400"), ("a", "NaN"), ("Q", "-Infinity")):
        job = t6_job("verify")
        if field in ("a", "b"):
            job[field] = [0.5, "@"]
        else:
            job[field]["coeffs"][-1] = ["@", 0.0]
        code, _ = run_cli(tmp_path, json.dumps(job).replace('"@"', literal))
        assert code == 64, (field, literal)


def test_integral_counts_accepted(tmp_path):
    # an integral JSON number and a digit string from a flag stay counts
    code, rep = run_cli(tmp_path, {**t6_job("verify"), "options": {"moments": 3.0}})
    assert code == 0 and rep["options"]["moments"] == 3
    code, rep = run_cli(tmp_path, t6_job("verify"), extra=("--moments", "3", "--seed", "2"))
    assert code == 0 and (rep["options"]["moments"], rep["options"]["seed"]) == (3, 2)


def test_unwritable_output_reported_as_json(tmp_path, capsys):
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({"command": "generate"}))
    code = main(["--input", str(inp), "--output", str(tmp_path / "missing" / "out.json")])
    assert code == 64
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedInput" and "missing" in err["detail"]


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_output_rejected_before_job(tmp_path, monkeypatch, target):
    # a selftest with a bad --output used to run every instance, then exit 64
    ran = []
    monkeypatch.setitem(cli._COMMANDS, "selftest", lambda *args: ran.append(args) or ({}, 0))
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({"command": "selftest"}))
    code = main(["--input", str(inp), "--output", str(tmp_path / target)])
    assert code == 64 and ran == []


def test_moments_above_node_bound_malformed(tmp_path, monkeypatch):
    # 3000 moments of T_6 need a 9002-node Gauss rule, above the bound
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", pytest.fail)
    series._gauss_rule.cache_clear()
    code, _ = run_cli(tmp_path, t6_job("verify"), extra=("--moments", "3000"))
    assert code == 64


def test_truncation_above_bound_malformed(tmp_path, monkeypatch):
    # the inversion takes time n N^2: a truncation above the bound is refused
    # before any series is built
    monkeypatch.setattr(series, "_series_eval_in_g", pytest.fail)
    code, _ = run_cli(tmp_path, t6_job("verify"), extra=("--truncation", "1000000"))
    assert code == 64


def test_existing_output_survives_failed_job(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"previous report\n")
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({**t6_job("verify"), "options": {"moments": -1}}))
    assert main(["--input", str(inp), "--output", str(out)]) == 64
    assert out.read_bytes() == b"previous report\n"


def test_flag_overrides_command(tmp_path):
    job = t6_job("verify")
    code, rep = run_cli(tmp_path, job, extra=("--command", "analyze"))
    assert code == 0
    assert rep["command"] == "analyze"


def test_tolerance_override_recorded(tmp_path):
    code, rep = run_cli(tmp_path, t6_job("verify"), extra=("--tol-moment", "1e-6"))
    assert code == 0
    assert rep["options"]["tolerances"]["tol-moment"] == 1e-6


def test_console_entry_point(tmp_path):
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(t6_job("analyze", with_q=False)))
    # the child imports the same package as this process, installed or not
    src = str(Path(polymoment.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "polymoment.cli", "--input", str(inp)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["report"]["D"] == [1, 2, 3, 6]


def test_stable_output_bytes(tmp_path):
    _, rep1 = run_cli(tmp_path, t6_job("analyze", with_q=False))
    _, rep2 = run_cli(tmp_path, t6_job("analyze", with_q=False))
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_selftest_command(tmp_path):
    code, rep = run_cli(tmp_path, {"command": "selftest"})
    assert code == 0
    assert rep["report"]["ok"] is True
    assert all(rep["report"]["results"].values())


def test_tolerance_override_changes_behavior(tmp_path):
    # an absurd moment tolerance flips the verdict: the override must reach
    # the computation, not only the report
    code, rep = run_cli(tmp_path, t6_job("verify"), extra=("--tol-moment", "1e-30"))
    assert code == 2
    assert rep["report"]["verdict"] is False


def _recursive_decompose_job():
    # Q = T4 = T2(T2) on P = T8 = T4(T2), and T2 separates the endpoints while
    # T4 identifies them: the split recurses through a sub-instance on T4
    a, b = math.cos(0.5), math.cos(0.5 + math.pi / 2)
    return {
        "command": "decompose",
        "P": poly_to_json(chebyshev(8)),
        "a": [a, 0.0],
        "b": [b, 0.0],
        "Q": poly_to_json(chebyshev(4)),
    }


REACH_JOBS = {
    # T8 has nested right factors, so double_decompositions compares them
    "analyze": lambda: {**_recursive_decompose_job(), "command": "analyze"},
    "verify": lambda: t6_job("verify"),
    "decompose": _recursive_decompose_job,
    "generate": lambda: {"command": "generate"},
}


def _in_tol(args, field):
    return getattr(args["tol"], field)


def _in_inst(args, field):
    return getattr(args["inst"].tol, field)


def _in_self(args, field):
    return getattr(args["self"].tol, field)


def _cut(args, field):
    return args["tol"]


def _radius(args, field):
    return args["radius"] / (1.0 + max(abs(v) for v in args["vals"]))


# (owner, function, what it receives, callers that must pass the flag's value)
ROOTS = [
    (monodromy, "roots", _in_tol, {"critical_data", "monodromy"}),
    (solver, "roots", _in_tol, {"random_reducible_problem"}),
]
TRACK = [
    (monodromy, "continue_branches", _in_tol, {"monodromy", "_locate_branches"}),
    (series, "continue_branches", _in_tol, {"branch_samples"}),
]
DECOMP = [
    (solver, "decompose_right", _in_tol, {"right_factor_for"}),
    (solver, "decompose_outer", _in_tol, {"double_decompositions", "decompose_solution"}),
]
VIEWS = [(solver, "verify_vanishing", _in_tol, {"verify"})]
INSTANCE = [
    (solver, "quotient_instance", _in_inst, {"decompose_solution"}),
    (solver.ProblemInstance, "tol_point", _in_self, {"decompose_solution"}),
    (solver, "right_factor_for", _in_inst, {"decompose_solution"}),
]
REACH = {
    "root": (("analyze", "generate"), ROOTS),
    "cluster": (
        ("analyze", "generate"),
        ROOTS + [
            (monodromy, "_cluster_values", _radius, {"critical_data"}),
            (solver, "build_cactus", _in_tol, {"build_instance"}),
        ],
    ),
    "track": (("verify",), TRACK),
    "decomp": (("analyze", "decompose"), DECOMP),
    "moment": (("verify",), VIEWS),
    "phi": (("verify",), VIEWS),
    "support": (
        ("decompose",),
        VIEWS + [(series.PuiseuxSeries, "support", _cut, {"verify_vanishing", "decompose_solution"})],
    ),
    "recover": (("decompose",), [(solver, "recover_polynomial", _in_tol, {"decompose_solution"})]),
    "point": (("decompose",), INSTANCE),
    "block": (("decompose",), INSTANCE),
}


@pytest.mark.parametrize("field", sorted(REACH))
def test_tol_flag_reaches_consumers(tmp_path, monkeypatch, field):
    # each --tol-* flag must reach every consumer of its tolerance, through
    # every call path, not only the report
    jobs, consumers = REACH[field]
    sentinel = 2 * getattr(Tolerances(), field)
    seen = []
    for k, (owner, name, read, _) in enumerate(consumers):
        fn = getattr(owner, name)
        sig = inspect.signature(fn)

        def spy(*args, _k=k, _fn=fn, _sig=sig, _read=read, **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((_k, sys._getframe(1).f_code.co_name, _read(bound.arguments, field)))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for job in jobs:
        code, rep = run_cli(tmp_path, REACH_JOBS[job](), extra=(f"--tol-{field}", repr(sentinel)))
        assert code == 0, job
        assert rep["options"]["tolerances"][f"tol-{field}"] == sentinel
    for k, (_, name, _, callers) in enumerate(consumers):
        got = [(caller, v) for j, caller, v in seen if j == k and caller in callers]
        assert {caller for caller, _ in got} == callers, name
        assert all(v == pytest.approx(sentinel, rel=1e-12, abs=0) for _, v in got), (name, got)


def test_tolerance_override_ends_with_job(tmp_path):
    # an override set by one job must not leak into the next job of the
    # same process
    job = t6_job("analyze", with_q=False)
    code, rep = run_cli(tmp_path, job, extra=("--tol-cluster", "1e-6"))
    assert code == 0 and rep["options"]["tolerances"]["tol-cluster"] == 1e-6
    code, rep = run_cli(tmp_path, job)
    defaults = {f"tol-{k}": v for k, v in asdict(Tolerances()).items()}
    assert code == 0 and rep["options"]["tolerances"] == defaults


def test_internal_error_reported_as_json(tmp_path, capsys):
    # a tiny leading coefficient used to escape as a raw IndexError
    # traceback; whatever the cause, the CLI answers with a JSON error
    job = {
        "command": "analyze",
        "P": {"coeffs": [[0, 0], [0, 0], [1e-30, 0]]},
        "a": [-1, 0],
        "b": [1, 0],
    }
    code, _ = run_cli(tmp_path, job)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "detail" in err


@pytest.mark.parametrize("N", ["3", "7"])
def test_truncation_below_expansion_malformed(tmp_path, capsys, N):
    # deg P = 6, deg Q = 3: the inversion needs N >= 6 and Q(w) keeps N - 2
    # orders, so N >= 8; a shorter truncation raised TruncationTooShort and
    # exited 1, the internal-error code
    code, _ = run_cli(tmp_path, t6_job("verify"), extra=("--truncation", N))
    assert code == 64
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedInput" and "n + deg Q - 1 = 8" in err["detail"]
    code, rep = run_cli(tmp_path, t6_job("verify"), extra=("--truncation", "8"))
    assert code == 0 and rep["report"]["verdict"] is True
