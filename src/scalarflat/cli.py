"""Command-line entry point: configuration, orchestration, and export.

Exit status: 0 on success with all report checks green, 2 on configuration
errors, 3 on solver failures, 4 when the run completes but a report check
fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .chart import RADIAL, BoundaryField, Chart, ScalarField
from .dirichlet import lambda_sweep, solve_scalar_flat_dirichlet, sweep_certificate
from .errors import ChartError, ConfigError, MetricError, ScalarFlatError
from .meancurv import (CONVENTIONS, MAX_MONOTONE_STEPS,
                       prescribe_mean_curvature, solve_nonlinear_robin)
from .metrics import metric_from_spec
from .oracle import radial_dirichlet_yamabe, radial_mean_curvature
from .quotient import TrialFamily, estimate_sobolev_quotient
from .report import (SolveReport, default_output_dir, emit_fields, emit_report)
from .weighted import decay_fit

MODES = ("dirichlet", "meancurv", "quotient", "oracle", "convergence-study")

DEFAULTS = {
    "mode": "dirichlet",
    "n": 3,
    "grid": "201",
    "metric": "flat",
    "tol": 1e-10,
    "max_iter": MAX_MONOTONE_STEPS,
    "f": None,
    "beta": None,
    "target": None,
    "lambda_steps": 11,
    "convention": "transformation-law",
    "out": None,
    "family": None,
    "grids": [100, 200, 400],
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scalarflat",
        description="Scalar-flat conformal factors on exterior domains")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--tol", type=float, help="linear backward-error bound")
    p.add_argument("--max-iter", type=int, dest="max_iter",
                   help="step cap of the monotone iteration (meancurv)")
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
    p.add_argument("--lambda-steps", type=int, dest="lambda_steps")
    p.add_argument("--coefficient-convention", dest="convention",
                   choices=CONVENTIONS)
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
    for key in ("mode", "tol", "max_iter", "grid", "n", "metric", "f",
                "beta", "target", "lambda_steps", "convention", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["mode"] not in MODES:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    for key, least in (("max_iter", 1), ("lambda_steps", 0)):
        if type(cfg[key]) is not int or cfg[key] < least:
            raise ConfigError(f"{key} must be an integer >= {least}, got "
                              f"{cfg[key]!r}")
    for key, low in (("tol", 0.0), ("beta", 0.0), ("target", -math.inf)):
        val = cfg[key]
        if val is None and key != "tol":
            continue  # beta and target are optional
        if type(val) not in (int, float) or not low < val < math.inf:
            raise ConfigError(f"{key} must be a number in ({low:g}, inf), "
                              f"got {val!r}")
    return cfg


def parse_grid(text, n: int) -> Chart:
    parts = str(text).lower().split("x")
    try:
        sizes = [int(t) for t in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    if sizes[0] < 4 or min(sizes) < 0:
        raise ConfigError(f"bad grid spec {text!r}: the solvers need at "
                          "least 4 nodes in s and no negative size")
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
    or "csv:path" with one value per boundary node."""
    if isinstance(spec, (int, float)):
        return BoundaryField.constant(chart, float(spec))
    text = str(spec).strip()
    if text.startswith("cos:"):
        if chart.theta is None:
            raise ConfigError("cos-series f requires an axisymmetric grid")
        try:
            coeffs = [float(t) for t in text[4:].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad f spec {spec!r}") from exc
        mu = np.cos(chart.theta)
        vals = sum(c * mu ** k for k, c in enumerate(coeffs))
        return BoundaryField(chart, vals)
    if text.startswith("csv:"):
        path = text[4:]
        try:
            with open(path, newline="") as fh:
                vals = [float(row[0]) for row in csv.reader(fh) if row]
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read f from {path}: {exc}") from exc
        try:
            return BoundaryField(chart, np.asarray(vals))
        except ScalarFlatError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return BoundaryField.constant(chart, float(text))
    except ValueError as exc:
        raise ConfigError(f"bad f spec {spec!r}") from exc


# ---------------------------------------------------------------------------
# mode drivers; each returns (SolveReport, fields-to-export dict)
# ---------------------------------------------------------------------------

def _run_dirichlet(cfg, chart, g):
    sol = solve_scalar_flat_dirichlet(g, tol=cfg["tol"])
    report = sol.report
    steps = int(cfg["lambda_steps"])
    if steps >= 2:
        sweep = lambda_sweep(g, steps=steps, tol=cfg["tol"])
        report.iterations["lambda_sweep_min_phi"] = [m for _, m, _ in sweep]
        report.checks["lambda_sweep_positive"] = sweep_certificate(sweep)
    fields = {"phi": sol.phi}
    return report, fields


def _run_meancurv(cfg, chart, g):
    if cfg["target"] is not None:
        target = BoundaryField.constant(chart, float(cfg["target"]))
        sol = prescribe_mean_curvature(g, target, tol=cfg["tol"],
                                       convention=cfg["convention"],
                                       max_iter=cfg["max_iter"])
    else:
        if cfg["f"] is None or cfg["beta"] is None:
            raise ConfigError("meancurv mode needs --target, or --f and "
                              "--beta for the Robin subproblem")
        f = parse_f(cfg["f"], chart)
        sol = solve_nonlinear_robin(g, f, float(cfg["beta"]), tol=cfg["tol"],
                                    max_iter=cfg["max_iter"])
    report = sol.report
    if chart.mode == RADIAL:
        fit = decay_fit(sol.u)
        report.decay = {"u_inf": fit.u_inf, "a": fit.a, "q": fit.q,
                        "residual": fit.residual, "status": fit.status}
    return report, {"u": sol.u}


def _run_quotient(cfg, chart, g):
    fam_cfg = cfg["family"] or {}
    family = TrialFamily(
        centers=tuple(fam_cfg.get("centers", (2.0, 3.0, 5.0, 8.0))),
        widths=tuple(fam_cfg.get("widths", (0.5, 1.0, 2.0))),
        r_in=float(fam_cfg.get("r_in", 1.5)),
        r_out=float(fam_cfg.get("r_out", min(20.0, 0.5 / chart.s[1]))),
        cutoff_width=float(fam_cfg.get("cutoff_width", 0.5)))
    budget = int(fam_cfg.get("budget", 100))
    q, params, positive = estimate_sobolev_quotient(g, family, budget=budget)
    report = SolveReport(mode="quotient")
    report.residuals = {"quotient_upper_bound": q}
    report.extrema = {"argmin_center": params[0], "argmin_width": params[1]}
    report.checks = {"positivity_evidence": bool(positive)}
    best = family.evaluate(chart, *params)
    return report, {"best_trial": best}


def _u0_function(coeffs):
    """u0(r) = sum_k c_k r^{-k}, with the limit c_0 at r = inf."""
    def u0(r):
        if not np.isfinite(r):
            return coeffs[0]
        return sum(c * r ** (-k) for k, c in enumerate(coeffs))
    return u0


def _run_oracle(cfg, chart, g):
    report = SolveReport(mode="oracle")
    fields = {}
    if cfg["f"] is not None and cfg["beta"] is not None:
        try:
            fval = float(cfg["f"])
        except ValueError:
            raise ConfigError("oracle mode needs a constant --f, got "
                              f"{cfg['f']!r}") from None
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
    elif g.is_conformally_flat and g.u0_coeffs is not None:
        s, phi = radial_dirichlet_yamabe(_u0_function(g.u0_coeffs), chart.n,
                                         num=chart.s.size)
        fields["phi_oracle"] = ScalarField(chart, np.interp(chart.s, s, phi))
        report.extrema = {"min_phi": float(np.min(phi)),
                          "max_phi": float(np.max(phi))}
        report.checks = {"phi_positive": bool(np.min(phi) > 0)}
    else:
        raise ConfigError("oracle mode needs --f/--beta or a conformal "
                          "coefficient metric")
    return report, fields


def _run_convergence(cfg, chart, g):
    if chart.mode != RADIAL:
        raise ConfigError("convergence-study mode is radial")
    if not (g.is_conformally_flat and g.u0_coeffs is not None):
        raise ConfigError("convergence-study needs a conformal coefficient "
                          "metric with a closed-form reference")
    coeffs = g.u0_coeffs
    u0 = _u0_function(coeffs)
    grids = [int(x) for x in cfg["grids"]]
    if len(grids) < 2:
        raise ConfigError("need at least two grid sizes")
    errors = []
    for num in grids:
        ci = Chart.radial(chart.n, num)
        gi = metric_from_spec({"kind": "conformal", "coeffs": list(coeffs)},
                              ci)
        sol = solve_scalar_flat_dirichlet(gi, tol=cfg["tol"])
        s_ref, phi_ref = radial_dirichlet_yamabe(u0, chart.n, num=num)
        errors.append(float(np.max(np.abs(sol.phi.values
                                          - np.interp(ci.s, s_ref, phi_ref)))))
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
        chart = parse_grid(cfg["grid"], int(cfg["n"]))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
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
