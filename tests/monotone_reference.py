"""Full-grid reference for ``meancurv.monotone_iterate``.

The loop form of the monotone iteration that the boundary iteration
replaced: one LU solve on all nodes per step, with the nodal increment and
both sides of the barrier sandwich checked on the whole grid at every step.
Tests compare the boundary iteration against it.
"""

import math

import numpy as np

from scalarflat.chart import BoundaryField
from scalarflat.elliptic import (Factorization, LinearProblem, RobinBC,
                                 assemble, constant_field)
from scalarflat.errors import NonConvergenceError, SolveError
from scalarflat.meancurv import MAX_MONOTONE_STEPS


def full_grid_monotone_loop(pair, g, tol=1e-9, max_iter=MAX_MONOTONE_STEPS,
                            linear_tol=1e-11, monotone_slack=1e-9):
    """Returns (u, increments, min_increment) of the full-grid loop."""
    chart = g.chart
    beta = pair.beta
    fv = pair.f.values
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

    u = pair.u_minus
    history = []
    min_increment = math.inf
    for it in range(1, max_iter + 1):
        ub = u.boundary_values()
        rhs = system.rhs.copy()
        rhs[-fv.size:] = fv * ub ** beta + c_weight * ub  # the Robin rows
        u_next = lu.solve(rhs, tol=linear_tol).solution
        step = float(np.max(np.abs(u_next.values - u.values)))
        history.append(step)
        increment = float(np.min(u_next.values - u.values))
        min_increment = min(min_increment, increment)
        if increment < -monotone_slack:
            raise SolveError(f"monotonicity violated at iteration {it}")
        if (np.min(u_next.values - pair.u_minus.values) < -monotone_slack
                or np.max(u_next.values - pair.u_plus.values)
                > monotone_slack):
            raise SolveError(f"barrier sandwich violated at iteration {it}")
        u = u_next
        if step < tol:
            return u, history, min_increment
    raise NonConvergenceError(
        f"monotone iteration did not converge in {max_iter} steps",
        history=history)
