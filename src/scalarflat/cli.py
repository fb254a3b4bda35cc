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
import math
import os
import sys
import time

import numpy as np
import orjson

from .chart import RADIAL, BoundaryField, Chart, ScalarField
from .dirichlet import solve_scalar_flat_dirichlet
from .elliptic import BACKWARD_ERROR_TOL
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
    p.add_argument("--target",
                   help="target boundary mean curvature (meancurv pipeline), "
                        'a boundary datum like --f')
    p.add_argument("--out", help="output directory "
                                 "(default $SCALARFLAT_OUTDIR or ./scalarflat-out)")
    return p


def check_args(args: argparse.Namespace) -> dict:
    """The job as a dict of its flags, once the inputs that nothing
    downstream checks are rejected with ``ConfigError``: a flag given as
    ``--flag=--``, a beta outside (0, inf), and boundary data that the mode
    does not read.  ``Chart`` checks n and the grid's counts, and
    ``parse_f`` each datum's values."""
    job = vars(args)
    for key, val in job.items():
        if val == []:  # argparse's value for a flag given as "--flag=--"
            raise ConfigError(f"{key} needs a value, got '--'")
    beta = job["beta"]
    if beta is not None and not 0.0 < beta < math.inf:
        raise ConfigError(f"beta must be a number in (0, inf), got {beta!r}")
    # the sets of the boundary data that a mode reads; [] is none
    reads = {"meancurv": (["target"], ["beta", "f"]),
             "oracle": (["beta", "f"], [])}.get(job["mode"], ([],))
    given = [k for k in ("beta", "f", "target") if job[k] is not None]
    if given not in reads:
        raise ConfigError(f"{job['mode']} mode reads the boundary data "
                          f"{' or '.join(map(str, reads))}, not {given}")
    return job


@contextlib.contextmanager
def _building():
    """A grid or metric that cannot be built is a configuration error."""
    try:
        yield
    except (ChartError, MetricError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_grid(text, n: int) -> Chart:
    """The chart of the grid spec ``text``, Ns (radial) or NsxNtheta
    (axisymmetric), in dimension n; a spec of another form, or with fewer
    than ``MIN_S_NODES`` nodes in s, which the far-field fit needs, is a
    ``ConfigError``, as is a chart that ``Chart`` does not build."""
    try:
        sizes = [int(t) for t in str(text).lower().split("x")]
    except ValueError:
        sizes = []
    if len(sizes) not in (1, 2) or sizes[0] < MIN_S_NODES:
        raise ConfigError(f"bad grid spec {text!r}: not Ns or NsxNtheta "
                          f"with the far-field fit's Ns >= {MIN_S_NODES}")
    with _building():
        return Chart(n, *sizes)


#: deepest nesting of arrays and objects read from a metric file.  A metric
#: nests three deep; orjson 3.8 recurses once per level on the C stack and
#: crashes with a segfault near 130,000 levels (131,250 nested arrays on an
#: 8 MB stack)
MAX_JSON_DEPTH = 4096

#: the bytes that open (+1) and close (-1) a JSON array or object
_NESTING = np.zeros(256, dtype=np.int8)
_NESTING[[ord("["), ord("{")]] = 1
_NESTING[[ord("]"), ord("}")]] = -1


def _json_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text ``data``;
    brackets in strings do not count.  Past an error in ``data`` the count
    may be off, but a parser stops at the error."""
    # in a string the escapes \\ and \" can hide a quote: blanked left to
    # right, they leave a quote only where a string starts or ends (out of
    # strings a backslash is an error)
    plain = data.replace(b"\\\\", b"__").replace(b'\\"', b"__")
    codes = np.frombuffer(plain, dtype=np.uint8)
    marks = np.flatnonzero((_NESTING[codes] != 0) | (codes == ord('"')))
    step = _NESTING[codes[marks]]
    in_string = np.cumsum(codes[marks] == ord('"')) % 2 == 1
    step[in_string] = 0
    return int(np.max(np.cumsum(step, dtype=np.int64), initial=0))


def _read_metric_file(path):
    """The document in the metric file at ``path``: strict UTF-8 JSON whose
    arrays and objects nest at most ``MAX_JSON_DEPTH`` deep, else
    ``ConfigError``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # the brackets bound the depth; only a text with many of them is
        # scanned for its depth
        if (data.count(b"[") + data.count(b"{") > MAX_JSON_DEPTH
                and _json_depth(data) > MAX_JSON_DEPTH):
            raise ValueError(f"arrays and objects nest deeper than "
                             f"{MAX_JSON_DEPTH}")
        return orjson.loads(data)
    except (OSError, ValueError) as exc:
        # ValueError: not UTF-8 or not JSON (orjson.JSONDecodeError), or
        # too deep
        raise ConfigError(f"cannot read metric file {path}: {exc}") from exc


def parse_metric(spec, chart: Chart):
    if isinstance(spec, str) and spec.endswith(".json"):
        return metric_from_spec(_read_metric_file(spec), chart)
    return metric_from_spec(spec, chart)


def parse_f(spec, chart: Chart, name: str = "f") -> BoundaryField:
    """Boundary datum ``name``: constant, "cos:c0,c1,..." (sum of c_k
    cos^k theta), or "csv:path" with one value per boundary node.  A datum
    that cannot be read, or that has a value that is not finite, is a
    ``ConfigError``."""
    text = str(spec).strip()
    if text.startswith("cos:") and chart.theta is None:
        raise ConfigError(f"cos-series {name} requires an axisymmetric grid")
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
        raise ConfigError(f"bad {name} spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# mode drivers; each returns (SolveReport, fields-to-export dict)
# ---------------------------------------------------------------------------

def _run_dirichlet(job, chart, g):
    sol = solve_scalar_flat_dirichlet(g)
    return sol.report, {"phi": sol.phi}


def _run_meancurv(job, chart, g):
    if job["target"] is not None:
        target = parse_f(job["target"], chart, "target")
        sol = prescribe_mean_curvature(g, target)
    else:
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
        # a reference that the job's grid reproduces to rounding (phi = 1,
        # for one) has no order to measure
        if gi is g and errors[0] <= BACKWARD_ERROR_TOL * np.max(
                np.abs(phi_ref)):
            raise ConfigError(
                f"convergence-study: the {num}-node grid reproduces the "
                f"reference to rounding (max error {errors[0]:.3g} <= "
                f"{BACKWARD_ERROR_TOL:g} max |phi_ref|), so there is no "
                "order to measure")
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
    """Execute one job; returns (SolveReport, fields dict).  The report's
    ``timing.wall_s`` is the mode driver's wall time."""
    chart = parse_grid(job["grid"], job["n"])
    with _building():
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
    report.timing["wall_s"] = time.perf_counter() - t0
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
