"""Full-grid Picard reference for ``meancurv.monotone_iterate``.

The stabilized monotone (Picard) iteration that Newton on the boundary map
replaced: one LU solve on all nodes per step, u_{k+1} solving the Robin
problem with datum h(u_k), with the nodal increment and both sides of the
barrier sandwich checked on the whole grid at every step.  It converges
linearly, at a rate of 0.90-0.96 on targets near the largest feasible mean
curvature, so a step below ``tol`` leaves an error of up to ~20 tol: tests
run it at tol = 1e-13 to compare against Newton's converged answer.  On a
reduced background it runs on ``robin_reference.reference_system`` for
w = phi u of the metric g that was reduced.
"""

import math

import numpy as np

from scalarflat.chart import ScalarField
from scalarflat.elliptic import Factorization
from scalarflat.errors import NonConvergenceError, SolveError
from scalarflat.meancurv import stabilization_weight
from robin_reference import reference_system


def full_grid_monotone_loop(pair, g, tol=1e-9, max_iter=5000,
                            linear_tol=1e-11, monotone_slack=1e-9, phi=None):
    """Returns (u, increments, min_increment) of the full-grid loop on g,
    or, given the reduction's phi, on phi^{4/(n-2)} g."""
    beta = pair.beta
    fv = pair.f.values
    c_weight = stabilization_weight(pair)

    system = reference_system(g, c_weight, phi)
    lu = Factorization(system)

    u = pair.u_minus
    history = []
    min_increment = math.inf
    for it in range(1, max_iter + 1):
        ub = u.boundary_values()
        rhs = system.rhs.copy()
        rhs[-fv.size:] = fv * ub ** beta + c_weight * ub  # the Robin rows
        u_next = lu.solve(rhs, tol=linear_tol).solution
        if phi is not None:
            u_next = ScalarField(g.chart, u_next.values / phi.values)
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
