import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polymoment
from polymoment.cli import _TOL_TARGETS, main
from polymoment.poly import chebyshev, poly_to_json

SQ3 = math.sqrt(3)


def run_cli(tmp_path, job, extra=()):  # returns (exit code, report dict)
    inp = tmp_path / "job.json"
    out = tmp_path / "report.json"
    inp.write_text(json.dumps(job))
    # the CLI's tolerance overrides are process-local by design (one job per
    # process); in the shared pytest process they must be rolled back
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in _TOL_TARGETS.values()]
    try:
        code = main(["--input", str(inp), "--output", str(out), *extra])
    finally:
        for mod, attr, val in saved:
            setattr(mod, attr, val)
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


def test_tol_cluster_reaches_monodromy(tmp_path, monkeypatch):
    # --tol-cluster must set the radius of the critical-value clustering in
    # monodromy, not only the root clustering in poly
    mono = sys.modules["polymoment.monodromy"]  # the package attribute is a function
    seen = []
    cluster = mono._cluster_values

    def spy(vals, radius):
        seen.append((radius, max(abs(v) for v in vals)))
        return cluster(vals, radius)

    monkeypatch.setattr(mono, "_cluster_values", spy)
    code, rep = run_cli(tmp_path, t6_job("analyze", with_q=False), extra=("--tol-cluster", "1e-6"))
    assert code == 0
    assert rep["options"]["tolerances"]["tol-cluster"] == 1e-6
    assert seen
    assert all(r == pytest.approx(1e-6 * (1.0 + top)) for r, top in seen)
