"""Spans around the public functions of each scalarflat module.

``Tracer.install`` replaces every traced function by a wrapper in every
loaded ``scalarflat`` module that holds a binding of it (``dirichlet`` and
``meancurv`` each import their own ``solve_linear``, for instance), so calls
between modules and inside one module are all seen.  Spans stay in memory
and are written out by ``Tracer.dump``.  Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

#: traced functions, as <module>.<function>
TRACED = (
    "cli.run_job", "report.emit_report", "report.emit_fields",
    "dirichlet.solve_scalar_flat_dirichlet", "dirichlet.lambda_sweep",
    "meancurv.prescribe_mean_curvature", "meancurv.reduce_to_minimal",
    "meancurv.harmonic_unit", "meancurv.build_sub_super",
    "meancurv.monotone_iterate",
    "elliptic.solve_linear", "elliptic.assemble", "elliptic.solve_system",
    "metrics.metric_from_spec", "metrics.scalar_curvature",
    "metrics.build_laplace_matrix", "metrics.boundary_mean_curvature",
    "metrics.conformal_transform", "metrics.laplace_beltrami",
    "metrics.check_asymptotic_flatness",
    "weighted.decay_fit", "weighted.mass_coefficient",
    "weighted.weighted_norm",
)


def _assemble_counts(args, result):
    return {"nnz": result.matrix.nnz, "unknowns": result.matrix.shape[0]}


def _solve_system_counts(args, result):
    history = result.residual_history
    tol = args["tol"]
    useful = next((k + 1 for k, r in enumerate(history) if r <= tol),
                  len(history))
    return {"krylov_iters": len(history), "useful_iters": useful,
            "backward_error": result.residual}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


#: counts read from a traced call's bound arguments and return value
COUNTS = {
    "elliptic.assemble": _assemble_counts,
    "elliptic.solve_system": _solve_system_counts,
    "meancurv.monotone_iterate":
        lambda args, result: {"steps": result.report.iterations["monotone"]},
    "dirichlet.lambda_sweep": lambda args, result: {"solves": len(result)},
    "report.emit_report": _file_bytes,
    "report.emit_fields": _file_bytes,
}

#: per-layer metrics besides <name>.calls and <name>.self_s, with units
COUNT_METRICS = (
    ("elliptic.assemble.nnz", "count"),
    ("elliptic.assemble.unknowns", "count"),
    ("elliptic.solve_system.krylov_iters", "count"),
    ("elliptic.solve_system.backward_error_max", "1"),
    ("elliptic.solve_system.useful_iter_share", "1"),
    ("meancurv.monotone_iterate.steps", "count"),
    ("dirichlet.lambda_sweep.solves", "count"),
    ("report.emit_report.bytes", "B"),
    ("report.emit_fields.bytes", "B"),
)


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in a fixed order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_METRICS)
    return units


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, job id, counts]
        self.spans = []
        self.job = None
        self._stack = []

    def install(self):
        """Wrap every traced function; ``scalarflat.cli`` must be loaded."""
        for name in TRACED:
            mod_name, func_name = name.split(".")
            original = getattr(sys.modules[f"scalarflat.{mod_name}"],
                               func_name)
            wrapper = self._wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod is None or not (mod_key == "scalarflat"
                                       or mod_key.startswith("scalarflat.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, func):
        signature = inspect.signature(func)
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = count(bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k]
                for k, (_, start, end, _, _, _) in enumerate(self.spans)]

    def per_layer(self, jobs) -> dict:
        """Per-layer metric values over the spans of the given job ids."""
        jobs = set(jobs)
        n_jobs = max(len(jobs), 1)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        bwd_max = 0.0
        for span, st in zip(self.spans, self.self_times()):
            name, _, _, _, job, counts = span
            if job not in jobs:
                continue
            calls[name] += 1
            self_s[name] += st
            if counts:
                for key, value in counts.items():
                    sums[f"{name}.{key}"] += value
                if "backward_error" in counts:
                    bwd_max = max(bwd_max, counts["backward_error"])
        values = {}
        for name in TRACED:
            values[f"{name}.calls"] = calls[name] / n_jobs
            values[f"{name}.self_s"] = self_s[name] / n_jobs
        n_asm = max(calls["elliptic.assemble"], 1)
        krylov = sums["elliptic.solve_system.krylov_iters"]
        values.update({
            # sizes: mean per call; work: total per job
            "elliptic.assemble.nnz": sums["elliptic.assemble.nnz"] / n_asm,
            "elliptic.assemble.unknowns":
                sums["elliptic.assemble.unknowns"] / n_asm,
            "elliptic.solve_system.krylov_iters": krylov / n_jobs,
            "elliptic.solve_system.backward_error_max": bwd_max,
            "elliptic.solve_system.useful_iter_share":
                (sums["elliptic.solve_system.useful_iters"] / krylov
                 if krylov else 1.0),
            "meancurv.monotone_iterate.steps":
                sums["meancurv.monotone_iterate.steps"] / n_jobs,
            "dirichlet.lambda_sweep.solves":
                sums["dirichlet.lambda_sweep.solves"] / n_jobs,
            "report.emit_report.bytes":
                sums["report.emit_report.bytes"] / n_jobs,
            "report.emit_fields.bytes":
                sums["report.emit_fields.bytes"] / n_jobs,
        })
        return values

    def dump(self, path: str):
        """Write the spans as JSON: one object per span, start order."""
        self_t = self.self_times()
        doc = [{"name": name, "start": start, "end": end, "parent": parent,
                "job": job, "self_s": st, "counts": counts}
               for (name, start, end, parent, job, counts), st
               in zip(self.spans, self_t)]
        with open(path, "w") as fh:
            json.dump(doc, fh)
