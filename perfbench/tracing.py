"""Spans around the public functions of each polymoment module.

Tracer.install() replaces every public function of the traced modules, in
every polymoment module namespace that holds it, by a wrapper that records a
span (job id, span id, parent span id, name, start, end).  Callers resolve
those names at call time (solver calls `monodromy`, monodromy calls `roots`),
so the wrapper sees every call, intra-module and recursive ones included.
The modules are reached through sys.modules because `polymoment.monodromy`
on the package is the re-exported function, not the module.

Spans stay in memory; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("poly", "monodromy", "rational", "permgroup", "series", "solver", "cli")
JOB = "job"

# span name -> what to keep from (bound arguments, result)
_OBSERVE = {
    "solver.build_instance": lambda args, res: {"M_dim": res.M.dim},
    "series.puiseux_inverse": lambda args, res: {"N": args["N"]},
    "series.quadrature_moments": lambda args, res: {
        "exact": math.ceil((args["I"] * args["P"].degree + max(args["Q"].degree, 0)) / 2)
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [job, parent, name, start, end, extra]
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVE.get(name)
        sig = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [self.job, stack[-1] if stack else None, name, time.perf_counter(), 0.0, None]
            spans.append(rec)
            stack.append(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = {**(rec[5] or {}), **observe(bound.arguments, res)}
            return res

        traced.__wrapped__ = fn
        return traced

    def _count_nodes(self, fn):
        """leggauss keeps no span (its time stays in the caller's self time);
        the node count is attached to the calling span."""
        spans, stack = self.spans, self._stack

        def counted(deg, *args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                rec[5] = dict(rec[5] or {}, nodes=(rec[5] or {}).get("nodes", 0) + int(deg))
            return fn(deg, *args, **kwargs)

        return counted

    def job_span(self, job_id: str, fn, *args):
        """Run fn as the root span of job job_id."""
        self.job = job_id
        try:
            return self._wrap(JOB, fn)(*args)
        finally:
            self.job = None

    # -- patching ----------------------------------------------------------

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"polymoment.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "polymoment" and not name.startswith("polymoment."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        leg = np.polynomial.legendre
        self._patches.append((leg, "leggauss", leg.leggauss))
        leg.leggauss = self._count_nodes(leg.leggauss)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (job, parent, name, t0, t1, extra) in enumerate(self.spans):
                fh.write(json.dumps([job, sid, parent, name, t0, t1, extra]) + "\n")

    def per_job(self):
        """job id -> {"time": root duration, "self": {name: s}, "calls": {name: k},
        "self_sum": sum of all self times}."""
        child_time = defaultdict(float)
        for job, parent, name, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        jobs = {}
        for sid, (job, parent, name, t0, t1, _) in enumerate(self.spans):
            j = jobs.setdefault(job, {"time": 0.0, "self": defaultdict(float),
                                      "calls": defaultdict(int), "self_sum": 0.0})
            own = (t1 - t0) - child_time[sid]
            j["self"][name] += own
            j["calls"][name] += 1
            j["self_sum"] += own
            if parent is None:
                j["time"] += t1 - t0
        return jobs

    def layer_metrics(self, jobs: dict) -> tuple[dict, dict]:
        """Per-layer metrics averaged over traced jobs, plus notes on the
        ones that are absent from this workload."""
        njobs = max(len(jobs), 1)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for j in jobs.values():
            for name, v in j["self"].items():
                self_s[name] += v
            for name, v in j["calls"].items():
                calls[name] += v

        def mean_self(name):
            return self_s.get(name, 0.0) / njobs

        def per_job(name):
            return calls.get(name, 0) / njobs

        names = [s[2] for s in self.spans]
        extras = [s[5] or {} for s in self.spans]
        parents = [s[1] for s in self.spans]

        loops = sum(
            1 for nm, p in zip(names, parents)
            if nm == "monodromy.continue_branches" and p is not None
            and names[p] == "monodromy.monodromy"
        )
        mono_calls = calls.get("monodromy.monodromy", 0)
        m_dims = [e["M_dim"] for e in extras if "M_dim" in e]
        truncs = [e["N"] for e in extras if "N" in e]
        quad = [e for nm, e in zip(names, extras) if nm == "series.quadrature_moments"]
        node_counts = [e["nodes"] for e in quad if "nodes" in e]
        over_exact = [e["nodes"] / e["exact"] for e in quad if "nodes" in e and e["exact"]]
        seen, repeats = set(), 0
        for c in node_counts:
            repeats += c in seen
            seen.add(c)

        depth_max = 0
        for sid, nm in enumerate(names):
            if nm != "solver.decompose_solution":
                continue
            depth, p = 0, parents[sid]
            while p is not None:
                depth += names[p] == "solver.decompose_solution"
                p = parents[p]
            depth_max = max(depth_max, depth)

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        cli_self = sum(v for k, v in self_s.items() if k.startswith("cli.")) / njobs
        out = {
            "monodromy.monodromy.self_s": mean_self("monodromy.monodromy"),
            "monodromy.continue_branches.self_s": mean_self("monodromy.continue_branches"),
            "monodromy.continue_branches.calls": per_job("monodromy.continue_branches"),
            "monodromy.build_cactus.self_s": mean_self("monodromy.build_cactus"),
            "monodromy.loops_per_instance": loops / mono_calls if mono_calls else 0.0,
            "poly.roots.self_s": mean_self("poly.roots"),
            "poly.decompose_right.self_s": mean_self("poly.decompose_right"),
            "poly.decompose_right.calls": per_job("poly.decompose_right"),
            "poly.decompose_outer.self_s": mean_self("poly.decompose_outer"),
            "rational.invariant_closure.self_s": mean_self("rational.invariant_closure"),
            "rational.contains.self_s": mean_self("rational.contains"),
            "permgroup.divisor_lattice.self_s": mean_self("permgroup.divisor_lattice"),
            "permgroup.minimal_projector_rows.self_s": mean_self("permgroup.minimal_projector_rows"),
            "permgroup.minimal_projector_rows.calls": per_job("permgroup.minimal_projector_rows"),
            "solver.decompose_M.self_s": mean_self("solver.decompose_M"),
            "instance.M_dim": mean(m_dims),
            "series.quadrature_moments.self_s": mean_self("series.quadrature_moments"),
            "series.quadrature_nodes": mean(node_counts),
            "series.nodes_over_exact": mean(over_exact),
            "series.nodes_repeat_share": repeats / len(node_counts) if node_counts else 0.0,
            "series.puiseux_inverse.self_s": mean_self("series.puiseux_inverse"),
            "series.puiseux_inverse.calls_per_job": per_job("series.puiseux_inverse"),
            "series.q_of_inverse.self_s": mean_self("series.q_of_inverse"),
            "series.branch_samples.self_s": mean_self("series.branch_samples"),
            "series.recover_polynomial.self_s": mean_self("series.recover_polynomial"),
            "series.truncation_N": mean(truncs),
            "solver.build_instance.calls_per_job": per_job("solver.build_instance"),
            "solver.verify_vanishing.calls_per_job": per_job("series.verify_vanishing"),
            "solver.right_factor_for.calls": per_job("solver.right_factor_for"),
            "solver.decompose_solution.self_s": mean_self("solver.decompose_solution"),
            "solver.recursion_depth_max": float(depth_max),
            "cli.run_job.self_s": cli_self,
        }
        # derived metrics and the span they need; the rest are named after it
        source = {
            "monodromy.loops_per_instance": "monodromy.monodromy",
            "instance.M_dim": "solver.build_instance",
            "series.quadrature_nodes": "series.quadrature_moments",
            "series.nodes_over_exact": "series.quadrature_moments",
            "series.nodes_repeat_share": "series.quadrature_moments",
            "series.truncation_N": "series.puiseux_inverse",
            "solver.verify_vanishing.calls_per_job": "series.verify_vanishing",
            "solver.recursion_depth_max": "solver.decompose_solution",
            "cli.run_job.self_s": "cli.main",
        }
        notes = {}
        for metric in out:
            span = source.get(metric, metric.rsplit(".", 1)[0])
            if span not in calls:
                notes[metric] = f"absent: no {span} call on this workload"
        return out, notes
