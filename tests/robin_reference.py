"""References for the barrier and the boundary map of ``meancurv``.

Each takes the metric g and, for a reduced background, the reduction's
factor phi; phi None means g's own system, as for ``--f/--beta`` runs.

* ``reference_harmonic_unit`` solves the harmonic barrier as its own
  Dirichlet system: Delta_g v = 0 on g, or for a reduced background
  v = w / phi with (4(n-1)/(n-2)) Delta_g w - R w = 0, w = phi_b on r = 1.
* ``reference_system`` assembles the harmonic c-Robin system
  du/deta + c u = datum, u -> 1, on g itself, or on w = phi u for
  ghat = phi^{4/(n-2)} g: the reduction's interior rows and, on r = 1,
  ghat's one-sided normal derivative of w / phi plus c w / phi.
* ``boundary_responses`` gets x0_b and X_b of such a system from nt + 1
  refined solves on a minimum-degree LU, checking X >= -slack on every node.

They are what the one boundary-last LU of ``meancurv.BoundaryMap``
replaced; tests compare it against them.
"""

import numpy as np

from scalarflat.chart import BoundaryField, ScalarField
from scalarflat.elliptic import (DirichletBC, Factorization, LinearProblem,
                                 LinearSystem, RobinBC, assemble,
                                 constant_field, solve_linear)
from scalarflat.errors import SolveError
from scalarflat.metrics import conformal_transform, normal_derivative

#: values (rows x columns) per block of the unit-data solve, 8 MB a copy:
#: radial grids and axisymmetric grids up to 201x65 take one block, 401x129
#: seven blocks of up to 20 columns
BLOCK_VALUES = 1 << 20


def _interior_problem(g, phi, bc, limit):
    """Delta_g on g itself (phi None), else the reduction's
    (4(n-1)/(n-2)) Delta_g - R, with the r = 1 condition ``bc``."""
    chart = g.chart
    n = chart.n
    a, c = 1.0, constant_field(chart, 0.0)
    if phi is not None:
        a = 4.0 * (n - 1.0) / (n - 2.0)
        c = ScalarField(chart, -g.scalar_curvature.values)
    return LinearProblem(metric=g, a=a, c=c, src=constant_field(chart, 0.0),
                         bc=bc, limit=limit)


def reference_harmonic_unit(g, phi=None):
    """v with Delta v = 0, v = 1 at r = 1 and v -> 0 at infinity, on g or on
    ghat = phi^{4/(n-2)} g, from a Dirichlet system, and dv/deta by
    ``normal_derivative`` on that metric."""
    chart = g.chart
    one = np.ones(chart.nt) if phi is None else phi.boundary_values()
    w = solve_linear(_interior_problem(g, phi, DirichletBC(
        BoundaryField(chart, one)), 0.0)).solution
    if phi is None:
        return w, normal_derivative(g, w)
    v = ScalarField(chart, w.values / phi.values)
    return v, normal_derivative(conformal_transform(g, phi), v)


def reference_system(g, c, phi=None):
    """The assembled harmonic Robin system du/deta + c u = 0, limit 1, on g
    or, for w = phi u, on ghat = phi^{4/(n-2)} g."""
    chart = g.chart
    if phi is None:
        return assemble(_interior_problem(g, None, RobinBC(
            gamma=BoundaryField.constant(chart, c),
            h=BoundaryField.constant(chart, 0.0)), 1.0))
    nt, N, n = chart.nt, chart.num_nodes, chart.n
    system = assemble(_interior_problem(g, phi, DirichletBC(
        BoundaryField.constant(chart, 0.0)), 1.0))
    A = system.matrix.tolil()
    p = phi.values.reshape(-1)
    inv = 1.0 / (2.0 * chart.ds * np.sqrt(
        g.boundary_a_rr() * phi.boundary_values() ** (4.0 / (n - 2.0))))
    for j in range(nt):
        row = N - nt + j
        cols = [row - 2 * nt, row - nt, row]
        vals = [inv[j] / p[cols[0]], -4.0 * inv[j] / p[cols[1]],
                (3.0 * inv[j] + c) / p[row]]
        A.rows[row], A.data[row] = cols, vals
    return LinearSystem(matrix=A.tocsr(), rhs=system.rhs, chart=chart)


def boundary_responses(lu, rhs, nt, tol, slack, phi=None):
    """Boundary rows of the answers to the zero-datum system and to unit
    Robin data on each boundary node: x0_b (nt,) and X_b (nt, nt), divided
    by the N values ``phi`` when given (the answers are then w = phi u).

    The nt + 1 right-hand sides are solved in blocks of at most
    ``BLOCK_VALUES`` values, and only each block's last nt rows are kept,
    so memory does not grow as N nt.  Each block checks X >= -slack on
    every node.  Returns (x0_b, X_b, LU solves).
    """
    N = rhs.size
    scale = np.ones(N) if phi is None else phi
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
        x = result.solution / scale[:, None]
        if units.size and np.min(x[:, units - start]) < -slack:
            raise SolveError(
                f"monotonicity violated: Robin response "
                f"{np.min(x[:, units - start]):.3g} < 0; "
                "discretization or stabilization-weight error")
        kept[:, cols] = x[-nt:]
        solves += len(result.residual_history) * cols.size
    return kept[:, 0], kept[:, 1:], solves


def reference_responses(g, c, phi=None, tol=1e-11, slack=1e-9):
    """x0_b and X_b of the c-Robin system on g, or on ghat for phi, by
    ``boundary_responses``."""
    system = reference_system(g, c, phi)
    x0, X, _ = boundary_responses(
        Factorization(system), system.rhs, g.chart.nt, tol, slack,
        None if phi is None else phi.values.reshape(-1))
    return x0, X
