"""polymoment benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a checkout: the program is imported from ./src.  Jobs
run closed loop, one after another, in this one process.  `analyze` and
`decompose_recursive` jobs enter through the CLI (`polymoment.cli.main`, JSON
in on stdin, JSON out on stdout); `queries` calls the library on instances
built before the timed loop.  Every output is checked by oracle.py.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
each job runs untraced and then traced (tracing.py), and the last line
carries the per-layer metrics.  The line before it is the full result, also
written to perfbench/results/, with every job id, verdict and output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("analyze", "queries", "decompose_recursive")
SETUP_PROBES = 5
# A run makes round(--seconds / PASS_SECONDS) whole passes over the
# workload's templates: 5, 2 and 3 at --seconds 30, which took 23-60 s with
# set-up on a 2-vCPU x86_64 host.  The count depends on --seconds only, so
# every later commit runs exactly the same jobs: the job count, and with it
# the rank of the tail percentile, does not move with speed.
PASS_SECONDS = {"analyze": 6.0, "queries": 15.0, "decompose_recursive": 10.0}


def declared(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares (end_to_end, per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def bootstrap():
    """Import the program from the checkout's src/ and nothing else."""
    if not (SRC / "polymoment" / "__init__.py").is_file():
        raise SystemExit(f"error: no polymoment sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polymoment
    import polymoment.cli  # noqa: F401  (the package does not import it)

    if Path(polymoment.__file__).resolve().parent != SRC / "polymoment":
        raise SystemExit(f"error: imported polymoment from {polymoment.__file__}")


# ---------------------------------------------------------------------------
# executing one job
# ---------------------------------------------------------------------------


def _cjson(z: complex) -> list[float]:
    return [z.real, z.imag]


def _pjson(p) -> dict:
    return {"coeffs": [_cjson(complex(c)) for c in p]}


def cli_text(job) -> str:
    inst = job.inst
    body = {"command": job.kind, "P": _pjson(inst.P), "a": _cjson(inst.a), "b": _cjson(inst.b)}
    if job.Q is not None:
        body["Q"] = _pjson(job.Q)
    return json.dumps(body)


def call_cli(text: str):
    """The CLI entry point in process, with the job on stdin."""
    cli = sys.modules["polymoment.cli"]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def call_library(job, inst):
    from polymoment import ComplexPoly

    solver = sys.modules["polymoment.solver"]
    Q = ComplexPoly(job.Q.tolist())
    if job.kind == "verify":
        return inst.verify(Q)
    return solver.decompose_solution(inst, Q)


class Runner:
    """Executes a workload's jobs and checks them.

    corpus, oracle and tracing import numpy, so they are imported only after
    bootstrap(): setup_s then counts numpy as part of the polymoment import.
    """

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        import corpus

        self.workload = workload
        self.instances = {}
        self.setup_errors = {}
        if workload == "analyze":
            self.jobs = lambda: corpus.analyze_jobs(seed, smoke)
        elif workload == "decompose_recursive":
            self.jobs = lambda: corpus.recursive_jobs(seed, smoke)
        else:
            self.specs = corpus.queries_instances(seed, smoke)
            self.jobs = lambda: corpus.query_jobs(seed, self.specs, smoke)

    def build_instances(self):
        """queries only: build each instance once, outside the timed jobs."""
        from polymoment import ComplexPoly, MomentProblemError, build_instance

        for spec in self.specs:
            try:
                self.instances[spec.name] = build_instance(
                    ComplexPoly(spec.P.tolist()), spec.a, spec.b
                )
            except MomentProblemError as exc:
                self.setup_errors[spec.name] = f"{type(exc).__name__}: {exc}"

    def execute(self, job):
        """Run one job; returns (raw output, error string or None)."""
        try:
            if self.workload == "queries":
                inst = self.instances.get(job.inst.name)
                if inst is None:
                    return None, f"instance build failed: {self.setup_errors[job.inst.name]}"
                return call_library(job, inst), None
            return call_cli(cli_text(job)), None
        except SystemExit as exc:
            return None, f"SystemExit: {exc.code}"
        except Exception as exc:  # a job that raises is a failure, not a crash
            return None, f"{type(exc).__name__}: {str(exc)[:300]}"

    def check(self, job, raw) -> dict:
        """Oracle verdict, digest and margin of one job's raw output."""
        import numpy as np
        import oracle

        series = sys.modules["polymoment.series"]
        rec = {"problems": [], "digest": None, "margin": None, "report_bytes": None}
        if self.workload == "queries":
            if job.kind == "verify":
                rep = raw.to_json()
                rec["problems"] = oracle.check_verify(job, rep["verdict"])
                rec["digest"] = oracle.digest({"verdict": rep["verdict"]})
                if job.expect_solution and rep["verdict"]:
                    tols = {"tol-moment": series.TOL_MOMENT, "tol-phi": series.TOL_PHI}
                    rec["margin"] = oracle.margin_decades(rep, tols)
            else:
                summands = [
                    {k: np.array(getattr(s, attr).coeffs, dtype=complex)
                     for k, attr in (("Q_j", "Q"), ("W_j", "W"),
                                     ("A_tilde_j", "A_tilde"), ("Q_tilde_j", "Q_tilde"))}
                    for s in raw
                ]
                rec["problems"] = oracle.check_decompose(job, summands)
                rec["digest"] = oracle.decompose_digest(summands)
            return rec
        code, out, err = raw
        rec["report_bytes"] = len(out.encode())
        if code != 0 or not out:
            rec["problems"] = [f"exit code {code}: {(err or out).strip()[:300]}"]
            return rec
        report = json.loads(out)["report"]
        if job.kind == "analyze":
            rec["problems"] = oracle.check_analyze(job, code, report)
            rec["digest"] = oracle.analyze_digest(report)
        else:
            summands = oracle.summands_from_json(report)
            if report["count"] != len(summands):
                rec["problems"].append("count differs from the number of summands")
            rec["problems"] += oracle.check_decompose(job, summands)
            rec["digest"] = oracle.decompose_digest(summands)
        return rec

    def run_job(self, job):
        t0 = time.perf_counter()
        raw, error = self.execute(job)
        return raw, error, time.perf_counter() - t0

    def warm_up(self):
        """One untimed job first: lazy imports and first-call costs are
        setup_s, not job time."""
        warm = Runner(self.workload, 0, smoke=True)
        if self.workload == "queries":
            warm.build_instances()
        return warm.run_job(next(warm.jobs()))

    def timed_loop(self, passes: int, tracer=None):
        """Jobs back to back, `passes` whole passes over the templates."""
        records = []
        started = 0
        start = time.perf_counter()
        for job in self.jobs():
            started += job.cycle_start
            if started > passes:
                break
            raw, error, dt = self.run_job(job)
            rec = {"id": job.id, "time_s": dt, "error": error, "digest": None}
            if tracer is not None:
                tracer.install()
                try:
                    traced = tracer.job_span(job.id, self.execute, job)
                finally:
                    tracer.uninstall()
                rec["traced_error"] = traced[1]
            rec["_job"], rec["_raw"] = job, raw
            records.append(rec)
        return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with >= 10 jobs beyond it
    (the smallest time when there are 10 jobs or fewer)."""
    s = sorted(times)
    rank = max(1, len(s) - 10)
    return s[rank - 1], 100.0 * rank / len(s)


def measure_setup(workload: str) -> list[float]:
    """Import plus first-job excess in fresh interpreters, SETUP_PROBES times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def setup_probe(workload: str):
    t0 = time.perf_counter()
    bootstrap()
    t1 = time.perf_counter()
    runner = Runner(workload, 0, smoke=True)
    first = runner.warm_up()[2]
    second = runner.warm_up()[2]
    print(json.dumps({"import_s": t1 - t0, "first_s": first, "second_s": second,
                      "setup_s": (t1 - t0) + max(0.0, first - second)}))


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                threads = getattr(handle, fn)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    bootstrap()
    from tracing import Tracer

    runner = Runner(workload, seed, smoke)
    t = time.perf_counter()
    if workload == "queries":
        runner.build_instances()
    build_s = time.perf_counter() - t
    runner.warm_up()
    tracer = Tracer() if trace else None
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    if trace:  # every job runs twice, untraced and traced
        passes = max(1, passes // 2)
    if smoke:
        passes = 1
    records, wall = runner.timed_loop(passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = tracer.per_job() if trace else {}
    for rec in records:
        job, raw = rec.pop("_job"), rec.pop("_raw")
        if rec["error"] is None:
            rec.update(runner.check(job, raw))
        else:
            rec["problems"] = [rec["error"]]
        if trace:
            rec["traced_time_s"] = spans[job.id]["time"]
            rec["self_sum_s"] = spans[job.id]["self_sum"]
        rec["passed"] = not rec["problems"]

    failed = sum(not r["passed"] for r in records)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "trace": int(trace),
        "environment": environment(),
        "attempted": len(records),
        "failed": failed,
        "failing_jobs": {r["id"]: r["problems"] for r in records if not r["passed"]},
        "queries_build_s": build_s if workload == "queries" else None,
        "jobs": records,
    }
    if trace:
        result.update(_per_layer(workload, records, tracer, spans))
        # the trace must close: self times add up to the traced job time
        result["correct"] = result["trace_check"]["max_abs_gap_self_sum_vs_job_s"] < 1e-6
        if not smoke:
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"{workload}_seed{seed}_spans.jsonl")
    else:
        result.update(_end_to_end(workload, records, wall, peak_rss_mb))
        result["correct"] = True
    return result


def _end_to_end(workload: str, records: list, wall: float, peak_rss_mb: float) -> dict:
    times = [r["time_s"] for r in records]
    passed = sum(r["passed"] for r in records)
    tail_s, tail_pct = tail(times)
    setups = measure_setup(workload)
    margins = [r["margin"] for r in records if r.get("margin") is not None]
    values = {
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "jobs_per_s": passed / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    units = declared("end_to_end")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    metrics["fail_share"] = {"value": 1.0 - passed / len(records), "unit": "ratio"}
    metrics["margin_decades_min"] = {"value": min(margins) if margins else None, "unit": "decades"}
    if not margins:
        metrics["margin_decades_min"]["note"] = (
            "absent: the jobs of this workload return no moment or relation residual"
        )
    return {
        "metrics": metrics,
        "job_s_tail_percentile": tail_pct,
        "job_count": len(times),
        "setup_s_samples": setups,
    }


def _per_layer(workload: str, records: list, tracer, spans: dict) -> dict:
    layer, notes = tracer.layer_metrics(spans)
    traced = sum(r["traced_time_s"] for r in records)
    layer["trace.overhead_share"] = traced / sum(r["time_s"] for r in records) - 1.0
    sizes = [r["report_bytes"] for r in records if r.get("report_bytes") is not None]
    layer["cli.report_bytes"] = statistics.mean(sizes) if sizes else 0.0
    if not sizes:
        notes["cli.report_bytes"] = "absent: no CLI report on this workload"
    return {
        "trace_check": {
            "max_abs_gap_self_sum_vs_job_s": max(
                abs(r["traced_time_s"] - r["self_sum_s"]) for r in records
            ),
            "unattributed_share": sum(j["self"].get("job", 0.0) for j in spans.values()) / traced,
        },
        "layer_metrics": layer,
        "layer_notes": notes,
        "layer_self_s_per_job": _self_table(spans),
    }


def _self_table(jobs: dict) -> dict:
    """name -> [self seconds per job, calls per job], largest first."""
    n = max(len(jobs), 1)
    acc = {}
    for j in jobs.values():
        for name, v in j["self"].items():
            s = acc.setdefault(name, [0.0, 0.0])
            s[0] += v / n
            s[1] += j["calls"][name] / n
    return dict(sorted(acc.items(), key=lambda kv: -kv[1][0]))


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> dict:
    """How many job digests differ between two result files (same job ids)."""
    with open(path_a) as fh:
        a = {j["id"]: j.get("digest") for j in json.load(fh)["jobs"]}
    with open(path_b) as fh:
        b = {j["id"]: j.get("digest") for j in json.load(fh)["jobs"]}
    common = sorted(set(a) & set(b))
    differ = [i for i in common if a[i] != b[i]]
    return {"compared": len(common), "differ": len(differ), "differing_jobs": differ,
            "only_in_a": len(set(a) - set(b)), "only_in_b": len(set(b) - set(a))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        print(json.dumps(compare(*args.compare)))
        return 0
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({k: v for k, v in result.items() if k != "jobs"}, default=str))
    if args.trace:
        units = declared("per_layer")
        metrics = {k: {"value": result["layer_metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: result["metrics"][k] for k in declared("end_to_end")}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
