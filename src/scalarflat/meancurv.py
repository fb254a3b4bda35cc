"""Prescribed boundary mean curvature via barriers and monotone iteration.

Pipeline: conformally deform to a scalar-flat metric with minimal-surface
boundary, build the harmonic barrier v, construct explicit sub- and
supersolutions u_{+/-} = 1 - v + alpha v, then run a stabilized monotone
iteration on the nonlinear Robin condition du/deta = f u^beta.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chart import BoundaryField, ScalarField
from .dirichlet import solve_conformal_factor
from .elliptic import (DirichletBC, Factorization, LinearProblem, RobinBC,
                       assemble, constant_field, solve_linear)
from .errors import (BarrierError, NoSupersolutionError, NonConvergenceError,
                     PositivityError, ScalarFlatError, SolveError, StageError)
from .metrics import (MetricField, boundary_mean_curvature,
                      conformal_law_coefficient, conformal_transform,
                      laplace_beltrami, normal_derivative)
from .report import SolveReport

#: datum conventions for prescribe_mean_curvature; "transformation-law" is
#: consistent with the sum-of-principal-curvatures normalization used by
#: boundary_mean_curvature, "paper-eq7" keeps the (n-2)/n coefficient.
CONVENTIONS = ("transformation-law", "paper-eq7")

#: step cap of the monotone iteration, for the library and the CLI alike;
#: targets near the largest feasible mean curvature take a few hundred steps
MAX_MONOTONE_STEPS = 500


@dataclass
class SubSuperPair:
    """Barrier data for the nonlinear boundary problem."""

    v: ScalarField
    dv_deta: BoundaryField
    beta: float
    f: BoundaryField
    alpha_minus: float
    alpha_plus: float
    u_minus: ScalarField
    u_plus: ScalarField
    rho: BoundaryField | None

    def validate(self, tol: float = 1e-8):
        vv = self.v.values
        # strict positivity holds away from the s=0 node, where v -> 0
        if not (np.all(vv[1:] > 0.0) and np.all(vv >= 0.0)
                and np.all(vv <= 1.0 + tol)):
            raise BarrierError("barrier v must satisfy 0 < v <= 1")
        if not np.all(self.dv_deta.values > 0.0):
            raise BarrierError("dv/deta must be positive on the boundary")
        if not (0.0 < self.alpha_minus <= 1.0 <= self.alpha_plus):
            raise BarrierError(
                f"need 0 < alpha_- <= 1 <= alpha_+, got "
                f"({self.alpha_minus}, {self.alpha_plus})")
        if np.any(self.u_minus.values > self.u_plus.values + tol):
            raise BarrierError("u_- <= u_+ violated")
        sub = boundary_defect(self.alpha_minus, self.dv_deta.values,
                              self.f.values, self.beta)
        sup = boundary_defect(self.alpha_plus, self.dv_deta.values,
                              self.f.values, self.beta)
        if np.max(sub) > tol:
            raise BarrierError(f"subsolution defect positive ({np.max(sub):.3g})")
        if np.min(sup) < -tol:
            raise BarrierError(f"supersolution defect negative "
                               f"({np.min(sup):.3g})")


@dataclass
class MeanCurvatureSolution:
    u: ScalarField
    metric: MetricField
    report: SolveReport
    pair: SubSuperPair | None = None


def boundary_defect(alpha, dv_deta, f, beta):
    """(alpha - 1) dv/deta - f alpha^beta on the boundary.

    Nonpositive: alpha gives a subsolution; nonnegative: a supersolution.
    """
    return (alpha - 1.0) * dv_deta - f * alpha ** beta


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def reduce_to_minimal(g: MetricField, tol: float = 1e-10):
    """Conformal factor making the metric scalar-flat with H = 0 boundary.

    Solves (4(n-1)/(n-2)) Delta_g phi - R phi = 0 with the Robin condition
    equivalent to vanishing transformed mean curvature,

        (2(n-1)/(n-2)) dphi/deta + H phi = 0,

    and phi -> 1 at infinity.  Returns (reduced metric, phi, report).
    """
    chart = g.chart
    n = chart.n
    gamma = boundary_mean_curvature(g).values / conformal_law_coefficient(n)
    problem = LinearProblem(
        metric=g, a=4.0 * (n - 1.0) / (n - 2.0),
        c=ScalarField(chart, -g.scalar_curvature().values),
        src=constant_field(chart, 0.0),
        bc=RobinBC(gamma=BoundaryField(chart, gamma),
                   h=BoundaryField.constant(chart, 0.0)),
        limit=1.0)
    phi, ghat, report = solve_conformal_factor(problem, offset=0.0, tol=tol,
                                               mode="reduce")
    report.residuals["boundary_H_Linf"] = float(
        np.max(np.abs(boundary_mean_curvature(ghat).values)))
    return ghat, phi, report


def harmonic_unit(g: MetricField, tol: float = 1e-10):
    """Harmonic barrier: Delta_g v = 0, v = 1 at r=1, v -> 0 at infinity.

    Requires the metric to be (numerically) scalar-flat.  Enforces the
    maximum-principle bounds 0 < v <= 1 and dv/deta > 0; violations signal
    discretization error.
    """
    chart = g.chart
    problem = LinearProblem(
        metric=g, a=1.0, c=constant_field(chart, 0.0),
        src=constant_field(chart, 0.0),
        bc=DirichletBC(BoundaryField.constant(chart, 1.0)),
        limit=0.0)
    result = solve_linear(problem, tol=tol)
    v = result.solution
    vals = v.values
    eps = 1e-12
    if np.min(vals[1:]) <= 0.0 or np.max(vals) > 1.0 + 1e-8:
        raise SolveError(
            "harmonic barrier violates the maximum principle "
            f"(range [{vals.min():.3g}, {vals.max():.3g}]); refine the grid")
    if np.max(np.abs(vals[0])) > eps:
        raise SolveError("harmonic barrier limit at infinity not met")
    dv = normal_derivative(g, v)
    if np.min(dv.values) <= 0.0:
        raise SolveError("dv/deta not positive; refine the grid")
    return v, dv


def rho_threshold(dv_deta: BoundaryField, beta: float):
    """Sufficient threshold rho for the boundary datum.

    For beta > 1: rho = dv/deta * (1/(beta-1))^{1-beta} * beta^{-beta}; this
    equals dv/deta * max_{alpha>0} (alpha-1) alpha^{-beta}.  For beta <= 1
    the barrier family covers any f <= 0 instead and None is returned as the
    negative-f-regime marker.
    """
    if not np.all(dv_deta.values > 0.0):
        raise BarrierError("dv/deta must be positive")
    if beta <= 1.0:
        return None
    factor = (1.0 / (beta - 1.0)) ** (1.0 - beta) * beta ** (-beta)
    return BoundaryField(dv_deta.chart, dv_deta.values * factor)


def build_sub_super(v: ScalarField, dv_deta: BoundaryField, f: BoundaryField,
                    beta: float, bisect_tol: float = 1e-12) -> SubSuperPair:
    """Construct the explicit barrier pair u_{+/-} = 1 - v + alpha v.

    The supersolution parameter is alpha_+ = beta/(beta-1) for beta > 1
    (requires f < rho nodewise); for f <= 0 any alpha_+ > 1 works and 2 is
    used.  The subsolution parameter is the largest admissible alpha in
    (0, 1], located by bisection on the worst-case boundary defect.
    """
    if beta <= 0.0:
        raise BarrierError("beta must be positive")
    fv = f.values
    dv = dv_deta.values
    rho = rho_threshold(dv_deta, beta)

    if beta > 1.0 and np.any(fv > 0.0):
        margin = rho.values - fv
        if np.min(margin) <= 0.0:
            raise NoSupersolutionError(
                "no supersolution in the barrier family: f >= rho somewhere "
                f"(min rho - f = {np.min(margin):.3g}); rho is a sufficient "
                "threshold only, this is not a nonexistence proof",
                rho_min=float(np.min(rho.values)), f_max=float(np.max(fv)))
        alpha_plus = beta / (beta - 1.0)
    elif np.all(fv <= 0.0):
        alpha_plus = 2.0
    else:
        # beta <= 1 with positive f: no supersolution in this family
        raise NoSupersolutionError(
            "no supersolution in the barrier family: beta <= 1 requires "
            "f <= 0", f_max=float(np.max(fv)))

    def worst(alpha):
        return float(np.max(boundary_defect(alpha, dv, fv, beta)))

    if worst(1.0) <= 0.0:
        alpha_minus = 1.0
    else:
        lo = 1e-8
        while worst(lo) > 0.0:
            lo /= 8.0
            if lo < 1e-300:
                raise BarrierError(
                    "bisection failure: no admissible subsolution parameter; "
                    f"defect at alpha->0 is {worst(1e-300):.3g}")
        hi = 1.0
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            if worst(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        alpha_minus = lo

    chart = v.chart
    u_minus = ScalarField(chart, 1.0 - v.values + alpha_minus * v.values)
    u_plus = ScalarField(chart, 1.0 - v.values + alpha_plus * v.values)
    pair = SubSuperPair(v=v, dv_deta=dv_deta, beta=beta, f=f,
                        alpha_minus=alpha_minus, alpha_plus=alpha_plus,
                        u_minus=u_minus, u_plus=u_plus, rho=rho)
    pair.validate()
    return pair


def monotone_iterate(pair: SubSuperPair, g: MetricField, tol: float = 1e-9,
                     max_iter: int = MAX_MONOTONE_STEPS,
                     linear_tol: float = 1e-11,
                     monotone_slack: float = 1e-9) -> MeanCurvatureSolution:
    """Monotone iteration from the subsolution toward the solution.

    Each step solves Delta_g u = 0 with the linearized-stabilized boundary
    condition du/deta + c u = h(u_k), h(u) = f u^beta + c u, and u -> 1 at
    infinity.  The weight c is at least 1 and dominates the slope of
    f u^beta where f > 0 over the barrier range.

    Only the boundary datum changes between steps, and it enters linearly:
    every iterate is x0 + X h, where x0 solves the system with h = 0 and
    the columns of the N x nt block X are the responses to unit Robin data.
    One factorization and one block solve of nt + 1 columns give both.
    The first step starts from u_-, which is not of that form, and runs on
    the whole grid.  Later steps update only the boundary values,
    u_b <- x0_b + X_b h(u_b), at O(nt^2) each, and one more solve with the
    last datum gives the full u.

    X >= 0 (up to the slack), the inverse positivity that with an
    increasing h makes the iteration order preserving, is asserted once.
    The first step's nodal increment and both sides of the barrier
    sandwich are checked on the whole grid.  From then on the nodal step
    X (h(u_k) - h(u_{k-1})) is discrete-harmonic: the interior rows have
    positive off-diagonals and zero row sums, so each interior value is a
    convex combination of its neighbours, and the step is 0 at s = 0.  Its
    extremes therefore lie on the r = 1 row: a nonnegative boundary step is
    a nonnegative nodal step whose maximum is on r = 1.  So each later step
    checks its size, its increment and both sandwich bounds on the
    boundary values.  The sequence increases, so the final u bounds every
    iterate; the upper sandwich and positivity are checked on it.
    """
    t0 = time.perf_counter()
    chart = g.chart
    beta = pair.beta
    fv = pair.f.values
    nt = fv.size
    lo = float(np.min(pair.u_minus.values))
    hi = float(np.max(pair.u_plus.values))
    fplus = np.maximum(fv, 0.0)
    slope = beta * fplus * max(lo, 1e-300) ** (beta - 1.0)
    slope = np.maximum(slope, beta * fplus * hi ** (beta - 1.0))
    c_weight = max(1.0, float(np.max(slope)))

    system = assemble(LinearProblem(
        metric=g, a=1.0, c=constant_field(chart, 0.0),
        src=constant_field(chart, 0.0),
        bc=RobinBC(gamma=BoundaryField.constant(chart, c_weight),
                   h=BoundaryField.constant(chart, 0.0)),
        limit=1.0))
    lu = Factorization(system)
    block = np.zeros((system.rhs.size, nt + 1))
    block[:, 0] = system.rhs
    block[-nt:, 1:] = np.eye(nt)  # unit data on the Robin rows
    responses = lu.solve(block, tol=linear_tol)
    x0, X = responses.solution[:, 0], responses.solution[:, 1:]
    if np.min(X) < -monotone_slack:
        raise SolveError(
            f"monotonicity violated: Robin response {np.min(X):.3g} < 0; "
            "discretization or stabilization-weight error")

    # step 1 runs on the whole grid, later steps on the boundary values
    lower, upper = pair.u_minus.values.ravel(), pair.u_plus.values.ravel()
    u, base, rows = lower, x0, X
    history = []
    min_increment = math.inf
    for it in range(1, max_iter + 1):
        h = fv * u[-nt:] ** beta + c_weight * u[-nt:]
        u_next = base + rows @ h
        step = float(np.max(np.abs(u_next - u)))
        history.append(step)
        increment = float(np.min(u_next - u))
        min_increment = min(min_increment, increment)
        if increment < -monotone_slack:
            raise SolveError(
                "monotonicity violated at iteration "
                f"{it} (min increment {increment:.3g}); "
                "discretization or stabilization-weight error")
        if (np.min(u_next - lower) < -monotone_slack
                or np.max(u_next - upper) > monotone_slack):
            raise SolveError(
                f"barrier sandwich violated at iteration {it}")
        u = u_next
        if step < tol:
            break
        if it == 1:
            u, base, rows, lower, upper = (
                a[-nt:] for a in (u, x0, X, lower, upper))
    else:
        raise NonConvergenceError(
            f"monotone iteration did not converge in {max_iter} steps "
            f"(last increment {history[-1]:.3g})", history=history)

    rhs = system.rhs.copy()
    rhs[-nt:] = h  # the Robin rows
    final = lu.solve(rhs, tol=linear_tol)
    u = final.solution
    if np.max(u.values - pair.u_plus.values) > monotone_slack:
        raise SolveError("barrier sandwich violated by the final iterate")
    if np.any(u.values <= 0.0):
        raise PositivityError("iterate lost positivity")
    g_new = conformal_transform(g, u)
    lap = (solve_residual_harmonicity(g, u))
    robin_resid = float(np.max(np.abs(
        normal_derivative(g, u).values - fv * u.boundary_values() ** beta)))

    report = SolveReport(mode="meancurv")
    report.residuals = {
        "harmonicity_Linf_interior": lap,
        "robin_Linf": robin_resid,
    }
    report.iterations = {
        "monotone": len(history),
        "linear": responses.iterations * (nt + 1) + final.iterations,
        "increments": history}
    report.extrema = {"min_u": float(np.min(u.values)),
                      "max_u": float(np.max(u.values)),
                      "u_boundary_min": float(np.min(u.boundary_values())),
                      "u_boundary_max": float(np.max(u.boundary_values()))}
    report.barrier = {
        "alpha_minus": pair.alpha_minus,
        "alpha_plus": pair.alpha_plus,
        "rho_min": None if pair.rho is None else float(np.min(pair.rho.values)),
        "rho_max": None if pair.rho is None else float(np.max(pair.rho.values)),
        "sandwich_margin_low": float(np.min(u.values - pair.u_minus.values)),
        "sandwich_margin_high": float(np.max(u.values - pair.u_plus.values)),
        "min_increment": min_increment,
        "monotone": min_increment >= -monotone_slack,
    }
    report.checks = {
        "u_positive": bool(np.all(u.values > 0.0)),
        "sandwich": bool(
            np.min(u.values - pair.u_minus.values) >= -monotone_slack
            and np.max(u.values - pair.u_plus.values) <= monotone_slack),
        "monotone": min_increment >= -monotone_slack,
    }
    report.timing = {"wall_s": time.perf_counter() - t0}
    return MeanCurvatureSolution(u=u, metric=g_new, report=report, pair=pair)


def solve_residual_harmonicity(g: MetricField, u: ScalarField) -> float:
    """Interior sup norm of Delta_g u (the iteration only moves boundary
    rows, so this should stay at solver tolerance)."""
    return float(np.max(np.abs(laplace_beltrami(g, u).values[1:-1])))


def solve_nonlinear_robin(g: MetricField, f: BoundaryField, beta: float,
                          tol: float = 1e-9,
                          max_iter: int = MAX_MONOTONE_STEPS,
                          ) -> MeanCurvatureSolution:
    """Barriers plus monotone iteration for du/deta = f u^beta on a
    scalar-flat background (the post-reduction subproblem)."""
    v, dv = harmonic_unit(g)
    if float(np.max(np.abs(f.values))) == 0.0:
        # f == 0 shortcut: u == 1 solves the problem exactly
        u = constant_field(g.chart, 1.0)
        report = SolveReport(mode="meancurv")
        report.residuals = {"harmonicity_Linf_interior": 0.0, "robin_Linf": 0.0}
        report.iterations = {"monotone": 1, "increments": [0.0]}
        report.extrema = {"min_u": 1.0, "max_u": 1.0,
                          "u_boundary_min": 1.0, "u_boundary_max": 1.0}
        report.checks = {"u_positive": True, "sandwich": True,
                         "monotone": True}
        return MeanCurvatureSolution(u=u, metric=conformal_transform(g, u),
                                     report=report, pair=None)
    pair = build_sub_super(v, dv, f, beta)
    return monotone_iterate(pair, g, tol=tol, max_iter=max_iter)


def datum_coefficient(n: int, convention: str) -> float:
    """Factor mapping the target mean curvature to the Robin datum f."""
    if convention == "transformation-law":
        return 1.0 / conformal_law_coefficient(n)  # (n-2) / (2(n-1))
    if convention == "paper-eq7":
        return (n - 2.0) / n
    raise ScalarFlatError(f"unknown coefficient convention {convention!r}")


def prescribe_mean_curvature(g: MetricField, f_target: BoundaryField,
                             tol: float = 1e-9,
                             convention: str = "transformation-law",
                             max_iter: int = MAX_MONOTONE_STEPS,
                             ) -> MeanCurvatureSolution:
    """Scalar-flat metric conformal to g with prescribed boundary mean
    curvature.

    Stages: reduction to R = 0, H = 0; harmonic barrier; mapping of the
    target to the Robin datum f = coeff * f_target with beta = n/(n-2);
    barrier construction; monotone iteration; final finite-difference check
    of the transformed mean curvature against the target.
    """
    t0 = time.perf_counter()
    n = g.chart.n
    beta = n / (n - 2.0)

    try:
        ghat, phi_red, red_report = reduce_to_minimal(g, tol=min(tol, 1e-10))
    except ScalarFlatError as exc:
        raise StageError("reduce_to_minimal", exc) from exc
    try:
        f = BoundaryField(g.chart,
                          datum_coefficient(n, convention) * f_target.values)
        sol = solve_nonlinear_robin(ghat, f, beta, tol=tol, max_iter=max_iter)
    except ScalarFlatError as exc:
        if isinstance(exc, StageError):
            raise
        stage = ("build_sub_super" if isinstance(exc, BarrierError)
                 else "monotone_iterate")
        raise StageError(stage, exc) from exc

    H_final = boundary_mean_curvature(sol.metric)
    err = float(np.max(np.abs(H_final.values - f_target.values)))
    sol.report.residuals["reduction_H_Linf"] = \
        red_report.residuals["boundary_H_Linf"]
    sol.report.residuals["reduction_R_Linf_interior"] = \
        red_report.residuals["scalar_curvature_Linf_interior"]
    sol.report.residuals["target_H_Linf"] = err
    sol.report.extrema["min_phi_reduction"] = red_report.extrema["min_phi"]
    sol.report.checks["target_H"] = err <= 50.0 * g.chart.ds
    sol.report.timing = {"wall_s": time.perf_counter() - t0}
    return sol
