"""Command-line entry point: the job's flags, orchestration, and export.

Exit status: 0 on success with all report checks green, 2 on configuration
errors, 3 on solver failures, 4 when the run completes but a report check
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .chart import RADIAL, BoundaryField, Chart, ScalarField
from .dirichlet import solve_scalar_flat_dirichlet
from .errors import ChartError, ConfigError, MetricError, ScalarFlatError
from .meancurv import prescribe_mean_curvature, solve_nonlinear_robin
from .metrics import metric_from_spec
from .oracle import radial_dirichlet_yamabe, radial_mean_curvature
from .quotient import (TRIALS, estimate_sobolev_quotient, resolved_trials,
                       trial)
from .report import (SolveReport, default_output_dir, emit_fields, emit_report)
from .weighted import MIN_S_NODES

MODES = ("dirichlet", "meancurv", "quotient", "oracle", "convergence-study")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process; parsing does not change
    it."""
    p = argparse.ArgumentParser(
        prog="scalarflat",
        description="Scalar-flat conformal factors on exterior domains")
    p.add_argument("--mode", choices=MODES, default="dirichlet")
    p.add_argument("--grid", default="201",
                   help="Ns (radial) or NsxNtheta (axisymmetric)")
    p.add_argument("--n-dim", type=int, dest="n", default=3,
                   help="ambient dimension")
    p.add_argument("--metric", default="flat",
                   help='"flat", "conformal:c0,c1,...", or a JSON file path')
    p.add_argument("--f", dest="f",
                   help='boundary datum: number, "cos:c0,c1,...", '
                        'or "csv:path"')
    p.add_argument("--beta", type=float, help="boundary nonlinearity exponent")
    p.add_argument("--target", type=float,
                   help="target boundary mean curvature (meancurv pipeline)")
    p.add_argument("--out", help="output directory "
                                 "(default $SCALARFLAT_OUTDIR or ./scalarflat-out)")
    return p


def check_args(args: argparse.Namespace) -> dict:
    """The job as a dict of its flags, once each value that argparse
    accepts but the job cannot use is rejected with ``ConfigError``."""
    job = vars(args)
    for key, val in job.items():
        if val == []:  # argparse's value for a flag given as "--flag=--"
            raise ConfigError(f"{key} needs a value, got '--'")
    if job["n"] < 3:
        raise ConfigError(f"n must be an integer >= 3, got {job['n']!r}")
    beta, target, f = job["beta"], job["target"], job["f"]
    if beta is not None and not 0.0 < beta < math.inf:
        raise ConfigError(f"beta must be a number in (0, inf), got {beta!r}")
    if target is not None and not math.isfinite(target):
        raise ConfigError(f"target must be finite, got {target!r}")
    try:
        finite = f is None or math.isfinite(float(f))
    except ValueError:
        finite = True  # a "cos:" or "csv:" spec: parse_f checks its values
    if not finite:
        raise ConfigError(f"f must be a finite number or a cos:/csv: spec, "
                          f"got {f!r}")
    # a mode reads one of these sets of the boundary data, or none
    reads = {"meancurv": (["target"], ["beta", "f"]),
             "oracle": (["beta", "f"],)}.get(job["mode"], ())
    given = [k for k in ("beta", "f", "target") if job[k] is not None]
    if given and given not in reads:
        raise ConfigError(f"{job['mode']} mode does not read {given}; it "
                          f"reads {' or '.join(map(str, reads)) or 'none'}")
    return job


@contextlib.contextmanager
def _building():
    """A grid or metric that cannot be built is a configuration error."""
    try:
        yield
    except (ChartError, MetricError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_grid(text, n: int) -> Chart:
    parts = str(text).lower().split("x")
    try:
        sizes = [int(t) for t in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    if sizes[0] < MIN_S_NODES or min(sizes) < 0:
        raise ConfigError(f"bad grid spec {text!r}: the far-field fit needs "
                          f"at least {MIN_S_NODES} nodes in s, and no size "
                          "may be negative")
    if len(sizes) == 1:
        return Chart.radial(n, sizes[0])
    if len(sizes) == 2:
        if n != 3:
            raise ConfigError("axisymmetric grids require n=3")
        return Chart.axisymmetric(sizes[0], sizes[1])
    raise ConfigError(f"bad grid spec {text!r}")


def parse_metric(spec, chart: Chart):
    if isinstance(spec, str) and spec.endswith(".json"):
        try:
            with open(spec) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: not UTF-8 or not JSON; RecursionError: too deep
            raise ConfigError(f"cannot read metric file {spec}: {exc}") from exc
        return metric_from_spec(doc, chart)
    return metric_from_spec(spec, chart)


def parse_f(spec, chart: Chart) -> BoundaryField:
    """Boundary datum: constant, "cos:c0,c1,..." (sum of c_k cos^k theta),
    or "csv:path" with one value per boundary node.  A datum that cannot be
    read, or that has a value that is not finite, is a ``ConfigError``."""
    text = str(spec).strip()
    if text.startswith("cos:") and chart.theta is None:
        raise ConfigError("cos-series f requires an axisymmetric grid")
    try:
        if text.startswith("cos:"):
            mu = np.cos(chart.theta)
            with np.errstate(all="ignore"):  # BoundaryField rejects inf, nan
                vals = sum(float(c) * mu ** k
                           for k, c in enumerate(text[4:].split(",")))
        elif text.startswith("csv:"):
            with open(text[4:], newline="") as fh:
                vals = [float(row[0]) for row in csv.reader(fh) if row]
        else:
            vals = np.full(chart.boundary_shape, float(spec))
        return BoundaryField(chart, np.asarray(vals))
    except (OSError, ValueError, ScalarFlatError) as exc:
        raise ConfigError(f"bad f spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# mode drivers; each returns (SolveReport, fields-to-export dict)
# ---------------------------------------------------------------------------

def _run_dirichlet(job, chart, g):
    sol = solve_scalar_flat_dirichlet(g)
    return sol.report, {"phi": sol.phi}


def _run_meancurv(job, chart, g):
    if job["target"] is not None:
        target = BoundaryField.constant(chart, job["target"])
        sol = prescribe_mean_curvature(g, target)
    else:
        if job["f"] is None or job["beta"] is None:
            raise ConfigError("meancurv mode needs --target, or --f and "
                              "--beta for the Robin subproblem")
        f = parse_f(job["f"], chart)
        sol = solve_nonlinear_robin(g, f, job["beta"])
    return sol.report, {"u": sol.u}


def _run_quotient(job, chart, g):
    # 7 of the 12 trials are resolved at MIN_S_NODES nodes
    skipped = len(TRIALS) - len(resolved_trials(chart))
    q, params, positive = estimate_sobolev_quotient(g)
    report = SolveReport(mode="quotient")
    report.residuals = {"quotient_upper_bound": q}
    report.iterations = {"trials_skipped": skipped}
    report.extrema = {"argmin_center": params[0], "argmin_width": params[1]}
    report.checks = {"positivity_evidence": bool(positive)}
    best = trial(chart, *params)
    return report, {"best_trial": best}


def _run_oracle(job, chart, g):
    if chart.mode != RADIAL:
        raise ConfigError("oracle mode is radial")
    report = SolveReport(mode="oracle")
    fields = {}
    if job["f"] is not None:
        fval = float(parse_f(job["f"], chart).values[0])
        res = radial_mean_curvature(fval, job["beta"], chart.n)
        if res is None:
            report.checks = {"root_exists": False}
        else:
            a, profile = res
            report.extrema = {"a_coefficient": a, "u_boundary": 1.0 + a}
            report.checks = {"root_exists": True}
            vals = np.where(chart.s > 0, 1.0 + a * chart.s ** (chart.n - 2),
                            1.0)
            fields["u_oracle"] = ScalarField(chart, vals)
    elif g.u0_coeffs is not None:
        phi = radial_dirichlet_yamabe(g.u0_coeffs, chart.n, chart.s)
        fields["phi_oracle"] = ScalarField(chart, phi)
        report.extrema = {"min_phi": float(np.min(phi)),
                          "max_phi": float(np.max(phi))}
    else:
        raise ConfigError("oracle mode needs --f/--beta or a conformal "
                          "coefficient metric")
    return report, fields


def _run_convergence(job, chart, g):
    if chart.mode != RADIAL:
        raise ConfigError("convergence-study mode is radial")
    if g.u0_coeffs is None:
        raise ConfigError("convergence-study needs a conformal coefficient "
                          "metric with a closed-form reference")
    # the job's grid of N nodes and its nested refinements, which halve h
    num = chart.s.size
    grids = [num, 2 * num - 1, 4 * num - 3]
    spec = {"kind": "conformal", "coeffs": list(g.u0_coeffs)}
    with _building():
        metrics = [g] + [metric_from_spec(spec, Chart.radial(chart.n, k))
                         for k in grids[1:]]
    errors = []
    for gi in metrics:
        sol = solve_scalar_flat_dirichlet(gi)
        phi_ref = radial_dirichlet_yamabe(g.u0_coeffs, chart.n, gi.chart.s)
        errors.append(float(np.max(np.abs(sol.phi.values - phi_ref))))
    ratios = [errors[i] / errors[i + 1] if errors[i + 1] > 0 else float("inf")
              for i in range(len(errors) - 1)]
    orders = [float(np.log2(r)) if np.isfinite(r) and r > 0 else float("inf")
              for r in ratios]
    report = SolveReport(mode="convergence-study")
    report.iterations = {"grids": grids}
    report.residuals = {f"error_{n}": e for n, e in zip(grids, errors)}
    report.extrema = {"ratios": ratios, "observed_orders": orders}
    report.checks = {"second_order": all(3.2 <= r <= 4.8 for r in ratios)}
    return report, {}


def run_job(job: dict):
    """Execute one job; returns (SolveReport, fields dict).  A report whose
    solver did not time itself gets the mode driver's wall time."""
    with _building():
        chart = parse_grid(job["grid"], job["n"])
        g = parse_metric(job["metric"], chart)
    driver = {
        "dirichlet": _run_dirichlet,
        "meancurv": _run_meancurv,
        "quotient": _run_quotient,
        "oracle": _run_oracle,
        "convergence-study": _run_convergence,
    }[job["mode"]]
    t0 = time.perf_counter()
    report, fields = driver(job, chart, g)
    report.timing.setdefault("wall_s", time.perf_counter() - t0)
    return report, fields


def _write_outputs(outdir, report, fields) -> None:
    """``report.json``, and ``fields.csv`` when there are fields, in
    ``outdir``; a directory or file that cannot be written is a
    ``ConfigError``."""
    try:
        os.makedirs(outdir, exist_ok=True)
        emit_report(report, os.path.join(outdir, "report.json"))
        if fields:
            emit_fields(os.path.join(outdir, "fields.csv"), **fields)
    except OSError as exc:
        raise ConfigError(f"cannot write output to {outdir}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = check_args(args)
        report, fields = run_job(job)
        outdir = job["out"] or default_output_dir()
        _write_outputs(outdir, report, fields)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScalarFlatError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 3
    print(f"mode={report.mode} passed={report.passed} out={outdir}")
    return 0 if report.passed else 4


if __name__ == "__main__":
    sys.exit(main())
