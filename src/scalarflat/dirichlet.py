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

``solve_conformal_factor`` is the conformal change both problems make:
this one, and the mean-curvature reduction to a minimal boundary.  The same
M-matrix fact backs both: the reduction's interior rows are those of M(1),
and its min phi > 0 makes their -M_int a nonsingular M-matrix, the maximum
principle behind the barrier and the sub/supersolution certificate that
``meancurv`` reads off the reduction's LU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chart import BoundaryField, ScalarField
from .elliptic import DirichletBC, Factorization, LinearProblem, solve_linear
from .errors import PositivityError, ScalarFlatError
from .metrics import (MetricField, check_asymptotic_flatness,
                      conformal_transform)
from .weighted import (WeightedNormSpec, decay_report, mass_coefficient,
                       weighted_norm)
from .report import SolveReport


@dataclass
class ConformalSolution:
    phi: ScalarField
    metric: MetricField
    report: SolveReport


def _yamabe_linear_problem(g: MetricField, lam: float) -> LinearProblem:
    n = g.chart.n
    R = g.scalar_curvature
    a = 4.0 * (n - 1.0) / (n - 2.0)
    c = ScalarField(g.chart, -lam * R.values)
    src = ScalarField(g.chart, lam * R.values)
    return LinearProblem(metric=g, a=a, c=c, src=src,
                         bc=DirichletBC(BoundaryField.constant(g.chart, 0.0)),
                         limit=0.0)


def solve_conformal_factor(problem: LinearProblem, offset: float, mode: str,
                           lu: Factorization | None = None):
    """The conformal change shared by both problems.

    Checks that the problem's metric g is asymptotically flat, solves the
    problem (on ``lu``, a factorization of its assembled system, when one is
    given, else by ``solve_linear``) and sets phi = offset + solution
    (offset 1 for the v-form of the Dirichlet problem, 0 for a problem
    posed for phi itself).  Fails loudly unless min phi > 0, which is
    numerical evidence against positivity of the Sobolev quotient.  Returns
    phi, phi^{4/(n-2)} g and a report of its interior R, the phi extrema and
    the solve.
    """
    g = problem.metric
    check_asymptotic_flatness(g)
    result = solve_linear(problem) if lu is None else lu.solve(lu.system.rhs)
    phi = ScalarField(g.chart, offset + result.solution.values)
    min_phi = float(np.min(phi.values))
    if min_phi <= 0.0:
        raise PositivityError(
            f"positivity violated (min phi = {min_phi:.3g}): Sobolev "
            "quotient may be nonpositive")
    g_new = conformal_transform(g, phi)
    report = SolveReport(mode=mode)
    # residual measured away from the one-sided boundary row
    report.residuals = {
        "linear_relative": result.residual,
        "scalar_curvature_Linf_interior": float(
            np.max(np.abs(g_new.scalar_curvature.values[1:-1]))),
    }
    report.extrema = {"min_phi": min_phi,
                      "max_phi": float(np.max(phi.values))}
    report.iterations = {"linear": len(result.residual_history)}
    return phi, g_new, report


def solve_scalar_flat_dirichlet(g: MetricField) -> ConformalSolution:
    """Conformal factor phi with R(phi^{4/(n-2)} g) = 0, phi = 1 on r=1.

    min phi > 0 certifies the whole discrete lambda-family (module
    docstring); a nonpositive phi raises ``PositivityError``.
    """
    t0 = time.perf_counter()
    phi, g_new, report = solve_conformal_factor(
        _yamabe_linear_problem(g, 1.0), offset=1.0, mode="dirichlet")
    n = g.chart.n
    delta = 2.5 - n
    spec = WeightedNormSpec(2, delta - 2)
    report.residuals[f"scalar_curvature_{spec}"] = weighted_norm(
        g_new.scalar_curvature, spec)
    report.decay = decay_report(phi)
    # the stencil divides rounding by h^{n-2}; a constant phi has no mass
    report.mass_coefficient = (0.0 if report.decay["status"] == "constant"
                               else mass_coefficient(phi))
    report.timing = {"wall_s": time.perf_counter() - t0}
    return ConformalSolution(phi=phi, metric=g_new, report=report)


def lambda_sweep(g: MetricField, steps: int = 11):
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
            res = solve_linear(_yamabe_linear_problem(g, float(lam)))
            out.append((float(lam),
                        float(np.min(1.0 + res.solution.values)), None))
        except ScalarFlatError as exc:
            out.append((float(lam), None, str(exc)))
    return out


def sweep_certificate(sweep) -> bool:
    """True when every sampled lambda solved and stayed positive."""
    return all(err is None and m is not None and m > 0.0
               for _, m, err in sweep)
