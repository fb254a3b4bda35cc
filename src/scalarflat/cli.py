"""Command-line entry point: configuration, orchestration, and export.

Exit status: 0 on success with all report checks green, 2 on configuration
errors, 3 on solver failures, 4 when the run completes but a report check
fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .chart import RADIAL, BoundaryField, Chart, ScalarField
from .dirichlet import solve_scalar_flat_dirichlet
from .errors import ChartError, ConfigError, MetricError, ScalarFlatError
from .meancurv import prescribe_mean_curvature, solve_nonlinear_robin
from .metrics import metric_from_spec
from .oracle import radial_dirichlet_yamabe, radial_mean_curvature
from .quotient import (MIN_TRIAL_CELLS, TrialFamily,
                       estimate_sobolev_quotient)
from .report import (SolveReport, default_output_dir, emit_fields, emit_report)
from .weighted import MIN_S_NODES

MODES = ("dirichlet", "meancurv", "quotient", "oracle", "convergence-study")

DEFAULTS = {
    "mode": "dirichlet",
    "n": 3,
    "grid": "201",
    "metric": "flat",
    "f": None,
    "beta": None,
    "target": None,
    "out": None,
    "family": None,
    "grids": [100, 200, 400],
}

#: keys of the quotient mode's "family" config object (see parse_family)
FAMILY_KEYS = ("centers", "widths", "r_in", "r_out", "cutoff_width")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process; parsing does not change
    it."""
    p = argparse.ArgumentParser(
        prog="scalarflat",
        description="Scalar-flat conformal factors on exterior domains")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--grid", help="Ns (radial) or NsxNtheta (axisymmetric)")
    p.add_argument("--n-dim", type=int, dest="n", help="ambient dimension")
    p.add_argument("--metric",
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


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(load_config(args.config))
    for key in DEFAULTS:  # flags override the config file
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["mode"] not in MODES:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    if type(cfg["n"]) is not int or cfg["n"] < 3:
        raise ConfigError(f"n must be an integer >= 3, got {cfg['n']!r}")
    for key, low in (("beta", 0.0), ("target", -math.inf)):
        val = cfg[key]
        if val is None:
            continue  # beta and target are optional
        if type(val) not in (int, float) or not low < val < math.inf:
            raise ConfigError(f"{key} must be a number in ({low:g}, inf), "
                              f"got {val!r}")
    f = cfg["f"]
    if type(f) is str:
        try:
            f = float(f)
        except ValueError:
            f = None  # a "cos:" or "csv:" spec: parse_f checks its values
    if f is not None and not _finite(f):
        raise ConfigError(f"f must be a finite number or a cos:/csv: spec, "
                          f"got {cfg['f']!r}")
    # a mode reads one of these sets of the boundary data, or none
    reads = {"meancurv": (["target"], ["beta", "f"]),
             "oracle": (["beta", "f"],)}.get(cfg["mode"], ())
    given = [k for k in ("beta", "f", "target") if cfg[k] is not None]
    if given and given not in reads:
        raise ConfigError(f"{cfg['mode']} mode does not read {given}; it "
                          f"reads {' or '.join(map(str, reads)) or 'none'}")
    grids = cfg["grids"]
    if (type(grids) is not list or len(grids) < 2
            or any(type(x) is not int or x < MIN_S_NODES for x in grids)
            or any(a >= b for a, b in zip(grids, grids[1:]))):
        raise ConfigError(f"grids must be a strictly increasing list of at "
                          f"least two integers >= {MIN_S_NODES}, got "
                          f"{grids!r}")
    parse_family(cfg["family"])
    return cfg


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def parse_family(family):
    """TrialFamily from a ``family`` config value: None for the defaults,
    or an object of ``FAMILY_KEYS`` whose centers and widths are lists of
    finite numbers and whose other values are finite numbers.  The
    defaults and ranges are ``TrialFamily``'s; every violation is a
    ``ConfigError``."""
    if family is None:
        family = {}
    if type(family) is not dict:
        raise ConfigError(f"family must be an object, got {family!r}")
    unknown = set(family) - set(FAMILY_KEYS)
    if unknown:
        raise ConfigError(f"unknown family keys: {sorted(unknown)}")
    fields = {}
    for key, val in family.items():
        if key in ("centers", "widths"):
            ok = type(val) is list and all(map(_finite, val))
        else:
            ok = _finite(val)
        if not ok:
            raise ConfigError(f"bad family {key}: {val!r}")
        fields[key] = tuple(val) if type(val) is list else val
    try:
        return TrialFamily(**fields)
    except ScalarFlatError as exc:
        raise ConfigError(f"bad family: {exc}") from exc


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
        except (OSError, json.JSONDecodeError) as exc:
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

def _run_dirichlet(cfg, chart, g):
    sol = solve_scalar_flat_dirichlet(g)
    return sol.report, {"phi": sol.phi}


def _run_meancurv(cfg, chart, g):
    if cfg["target"] is not None:
        target = BoundaryField.constant(chart, float(cfg["target"]))
        sol = prescribe_mean_curvature(g, target)
    else:
        if cfg["f"] is None or cfg["beta"] is None:
            raise ConfigError("meancurv mode needs --target, or --f and "
                              "--beta for the Robin subproblem")
        f = parse_f(cfg["f"], chart)
        sol = solve_nonlinear_robin(g, f, float(cfg["beta"]))
    return sol.report, {"u": sol.u}


def _run_quotient(cfg, chart, g):
    family = parse_family(cfg["family"])
    resolved = family.resolved(chart)
    if not resolved:
        raise ConfigError(f"no trial of the family spans {MIN_TRIAL_CELLS} "
                          f"cells in s on a grid of {chart.s.size} nodes")
    skipped = len(family.parameters()) - len(resolved)
    q, params, positive = estimate_sobolev_quotient(g, family)
    report = SolveReport(mode="quotient")
    report.residuals = {"quotient_upper_bound": q}
    report.iterations = {"trials_skipped": skipped}
    report.extrema = {"argmin_center": params[0], "argmin_width": params[1]}
    report.checks = {"positivity_evidence": bool(positive)}
    best = family.evaluate(chart, *params)
    return report, {"best_trial": best}


def _run_oracle(cfg, chart, g):
    if chart.mode != RADIAL:
        raise ConfigError("oracle mode is radial")
    report = SolveReport(mode="oracle")
    fields = {}
    if cfg["f"] is not None:
        fval = float(parse_f(cfg["f"], chart).values[0])
        res = radial_mean_curvature(fval, float(cfg["beta"]), chart.n)
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


def _run_convergence(cfg, chart, g):
    if chart.mode != RADIAL:
        raise ConfigError("convergence-study mode is radial")
    if g.u0_coeffs is None:
        raise ConfigError("convergence-study needs a conformal coefficient "
                          "metric with a closed-form reference")
    coeffs = g.u0_coeffs
    grids = cfg["grids"]
    errors = []
    for num in grids:
        ci = Chart.radial(chart.n, num)
        gi = metric_from_spec({"kind": "conformal", "coeffs": list(coeffs)},
                              ci)
        sol = solve_scalar_flat_dirichlet(gi)
        phi_ref = radial_dirichlet_yamabe(coeffs, chart.n, ci.s)
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


def run_job(cfg: dict):
    """Execute one configured job; returns (SolveReport, fields dict).

    A grid or metric that cannot be built is a configuration error.
    """
    try:
        chart = parse_grid(cfg["grid"], cfg["n"])
        g = parse_metric(cfg["metric"], chart)
    except (ChartError, MetricError) as exc:
        raise ConfigError(str(exc)) from exc
    driver = {
        "dirichlet": _run_dirichlet,
        "meancurv": _run_meancurv,
        "quotient": _run_quotient,
        "oracle": _run_oracle,
        "convergence-study": _run_convergence,
    }[cfg["mode"]]
    return driver(cfg, chart, g)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        report, fields = run_job(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScalarFlatError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 3

    outdir = cfg["out"] or default_output_dir()
    os.makedirs(outdir, exist_ok=True)
    emit_report(report, os.path.join(outdir, "report.json"))
    if fields:
        emit_fields(os.path.join(outdir, "fields.csv"), **fields)
    print(f"mode={report.mode} passed={report.passed} out={outdir}")
    return 0 if report.passed else 4


if __name__ == "__main__":
    sys.exit(main())
