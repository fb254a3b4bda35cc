"""References for the barrier and the boundary map of ``meancurv``.

``dirichlet_harmonic_unit`` solves the harmonic barrier as its own
Dirichlet system, and ``boundary_responses`` gets x0_b and X_b of the
c-Robin system from nt + 1 refined solves on a minimum-degree LU, checking
X >= -slack on every node.  Both are what the one boundary-last LU of
``meancurv.robin_factors`` replaced; tests compare it against them.
"""

import numpy as np

from scalarflat.chart import BoundaryField
from scalarflat.elliptic import (DirichletBC, Factorization, LinearProblem,
                                 RobinBC, assemble, constant_field,
                                 solve_linear)
from scalarflat.errors import SolveError
from scalarflat.metrics import normal_derivative

#: values (rows x columns) per block of the unit-data solve, 8 MB a copy:
#: radial grids and axisymmetric grids up to 201x65 take one block, 401x129
#: seven blocks of up to 20 columns
BLOCK_VALUES = 1 << 20


def dirichlet_harmonic_unit(g, tol=1e-10):
    """v with Delta_g v = 0, v = 1 at r = 1 and v -> 0 at infinity, from
    the Dirichlet system, and dv/deta by ``normal_derivative``."""
    chart = g.chart
    v = solve_linear(LinearProblem(
        metric=g, a=1.0, c=constant_field(chart, 0.0),
        src=constant_field(chart, 0.0),
        bc=DirichletBC(BoundaryField.constant(chart, 1.0)),
        limit=0.0), tol=tol).solution
    return v, normal_derivative(g, v)


def robin_system(g, c):
    """The assembled harmonic Robin system du/deta + c u = 0, limit 1."""
    chart = g.chart
    return assemble(LinearProblem(
        metric=g, a=1.0, c=constant_field(chart, 0.0),
        src=constant_field(chart, 0.0),
        bc=RobinBC(gamma=BoundaryField.constant(chart, c),
                   h=BoundaryField.constant(chart, 0.0)),
        limit=1.0))


def boundary_responses(lu, rhs, nt, tol, slack):
    """Boundary rows of the answers to the zero-datum system and to unit
    Robin data on each boundary node: x0_b (nt,) and X_b (nt, nt).

    The nt + 1 right-hand sides are solved in blocks of at most
    ``BLOCK_VALUES`` values, and only each block's last nt rows are kept,
    so memory does not grow as N nt.  Each block checks X >= -slack on
    every node.  Returns (x0_b, X_b, LU solves).
    """
    N = rhs.size
    width = max(1, BLOCK_VALUES // N)
    kept = np.empty((nt, nt + 1))
    solves = 0
    for start in range(0, nt + 1, width):
        cols = np.arange(start, min(start + width, nt + 1))
        block = np.zeros((N, cols.size))
        units = cols[cols > 0]  # column j is unit data on Robin row j - 1
        block[N - nt - 1 + units, units - start] = 1.0
        if start == 0:
            block[:, 0] = rhs
        result = lu.solve(block, tol=tol)
        x = result.solution
        if units.size and np.min(x[:, units - start]) < -slack:
            raise SolveError(
                f"monotonicity violated: Robin response "
                f"{np.min(x[:, units - start]):.3g} < 0; "
                "discretization or stabilization-weight error")
        kept[:, cols] = x[-nt:]
        solves += result.iterations * cols.size
    return kept[:, 0], kept[:, 1:], solves


def reference_responses(g, c, tol=1e-11, slack=1e-9):
    """x0_b and X_b of the c-Robin system on g by ``boundary_responses``."""
    system = robin_system(g, c)
    x0, X, _ = boundary_responses(Factorization(system), system.rhs,
                                  g.chart.nt, tol, slack)
    return x0, X
