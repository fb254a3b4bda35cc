"""Scalar-flat conformal factor with the metric fixed on the boundary.

Solves (4(n-1)/(n-2)) Delta_g v - R v = R, v = 0 at r=1 and at infinity,
and sets phi = 1 + v.  This one solve certifies positivity along the whole
discrete family M(lambda) = (4(n-1)/(n-2)) L_g - lambda R, lambda in [0, 1].
The interior rows of M have positive off-diagonals by construction
(``MetricField`` components are positive, so every stencil flux and pole
coefficient is; lambda moves only the diagonal; the s = 0 and r = 1 rows
are identity rows).  So if min phi_1 > 0, the interior block -M_int(1) is
a nonsingular M-matrix (Berman & Plemmons, Nonnegative Matrices in the
Mathematical Sciences, ch. 6), as is -M_int(0) (L_g 1 = 0 on interior
rows).  The spectral abscissa is convex in the diagonal (J. E. Cohen,
Proc. AMS 81 (1981) 657-658), so every -M_int(lambda) is one too, and
every phi_lambda > 0.  This is exact for the discrete family up to the
backward error of the solve; ``lambda_sweep`` samples it as a cross-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chart import RADIAL, BoundaryField, ScalarField
from .elliptic import DirichletBC, LinearProblem, solve_linear
from .errors import PositivityError, ScalarFlatError
from .metrics import (MetricField, check_asymptotic_flatness,
                      conformal_transform)
from .weighted import WeightedNormSpec, decay_fit, mass_coefficient, weighted_norm
from .report import SolveReport


@dataclass
class ConformalSolution:
    phi: ScalarField
    metric: MetricField
    report: SolveReport


def _yamabe_linear_problem(g: MetricField, lam: float) -> LinearProblem:
    n = g.chart.n
    R = g.scalar_curvature()
    a = 4.0 * (n - 1.0) / (n - 2.0)
    c = ScalarField(g.chart, -lam * R.values)
    src = ScalarField(g.chart, lam * R.values)
    return LinearProblem(metric=g, a=a, c=c, src=src,
                         bc=DirichletBC(BoundaryField.constant(g.chart, 0.0)),
                         limit=0.0)


def solve_scalar_flat_dirichlet(g: MetricField,
                                tol: float = 1e-10) -> ConformalSolution:
    """Conformal factor phi with R(phi^{4/(n-2)} g) = 0, phi = 1 on r=1.

    min phi > 0 certifies the whole discrete lambda-family (module
    docstring).  Fails loudly if phi is not positive, which is numerical
    evidence against positivity of the Sobolev quotient.
    """
    t0 = time.perf_counter()
    check_asymptotic_flatness(g)
    n = g.chart.n

    result = solve_linear(_yamabe_linear_problem(g, 1.0), tol=tol)
    phi = ScalarField(g.chart, 1.0 + result.solution.values)
    min_phi = float(np.min(phi.values))
    if min_phi <= 0.0:
        raise PositivityError(
            f"positivity violated (min phi = {min_phi:.3g}): Sobolev "
            "quotient may be nonpositive")
    g_new = conformal_transform(g, phi)
    R_new = g_new.scalar_curvature()

    report = SolveReport(mode="dirichlet")
    delta = 2.5 - n
    # residual measured away from the one-sided boundary row
    report.residuals = {
        "linear_relative": result.residual,
        "scalar_curvature_Linf_interior": float(
            np.max(np.abs(R_new.values[1:-1]))),
        f"scalar_curvature_{WeightedNormSpec(2, delta - 2)}": weighted_norm(
            ScalarField(g.chart, R_new.values), WeightedNormSpec(2, delta - 2)),
    }
    bnd_dev = float(np.max(np.abs(phi.boundary_values() - 1.0)))
    report.checks = {"phi_positive": min_phi > 0.0,
                     "boundary_exact": bnd_dev == 0.0}
    report.extrema = {"min_phi": min_phi,
                      "max_phi": float(np.max(phi.values))}
    report.iterations = {"linear": result.iterations}
    if g.chart.mode == RADIAL:
        fit = decay_fit(ScalarField(g.chart, phi.values - 1.0))
        report.decay = {"u_inf": fit.u_inf, "a": fit.a, "q": fit.q,
                        "residual": fit.residual, "status": fit.status,
                        "target_harmonic_q": n - 2.0,
                        "target_weight_q": n - 2.5}
        report.mass_coefficient = (0.0 if fit.status == "constant"
                                   else mass_coefficient(phi))
    report.timing = {"wall_s": time.perf_counter() - t0}
    return ConformalSolution(phi=phi, metric=g_new, report=report)


def lambda_sweep(g: MetricField, steps: int = 11, tol: float = 1e-10):
    """min phi_lambda along the positivity continuation family.

    The sampled cross-check of the one-solve certificate: for each lambda
    on a uniform grid in [0, 1] solves the lambda-weighted problem (so
    phi_lambda = 1 on the boundary and at infinity) and records min
    phi_lambda.  Per-lambda failures are reported in place and the sweep
    continues.  Returns a list of (lambda, min phi or None, error or None).
    """
    if steps < 2:
        raise ScalarFlatError("lambda sweep needs at least 2 steps")
    out = []
    for lam in np.linspace(0.0, 1.0, steps):
        try:
            res = solve_linear(_yamabe_linear_problem(g, float(lam)), tol=tol)
            out.append((float(lam),
                        float(np.min(1.0 + res.solution.values)), None))
        except ScalarFlatError as exc:
            out.append((float(lam), None, str(exc)))
    return out


def sweep_certificate(sweep) -> bool:
    """True when every sampled lambda solved and stayed positive."""
    return all(err is None and m is not None and m > 0.0
               for _, m, err in sweep)
