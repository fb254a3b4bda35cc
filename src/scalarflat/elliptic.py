"""Assembly and solution of linear elliptic problems on the chart.

Problems have the form  a * Delta_g u + c * u = src  with one inner-boundary
condition at r=1 (Dirichlet value or Robin du/deta + gamma u = h) and an
exact limit row u = L at s=0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chart import BoundaryField, Chart, ScalarField
from .errors import (ChartError, DiscreteIsomorphismError,
                     NonConvergenceError)
from .metrics import MetricField

#: bound on the final normwise backward error of every linear solve; one
#: refinement step leaves it at rounding level (R. D. Skeel, Math. Comp. 35
#: (1980) 817-832)
BACKWARD_ERROR_TOL = 1e-10


@dataclass(frozen=True)
class DirichletBC:
    """u = value on the r=1 slice."""

    value: BoundaryField


@dataclass(frozen=True)
class RobinBC:
    """du/deta + gamma * u = h on the r=1 slice, eta away from infinity."""

    gamma: BoundaryField
    h: BoundaryField


@dataclass
class LinearProblem:
    """a * Delta_g u + c * u = src, with inner BC and limit L at infinity."""

    metric: MetricField
    a: float
    c: ScalarField
    src: ScalarField
    bc: DirichletBC | RobinBC
    limit: float

    def __post_init__(self):
        chart = self.metric.chart
        for f in (self.c, self.src):
            if f.chart != chart:
                raise ChartError("coefficient fields must share the metric's "
                                 "chart")
        bfs = ((self.bc.value,) if isinstance(self.bc, DirichletBC)
               else (self.bc.gamma, self.bc.h))
        for f in bfs:
            if f.chart != chart:
                raise ChartError("boundary fields must share the metric's "
                                 "chart")


@dataclass
class LinearSystem:
    """Assembled sparse system with bookkeeping for the residual check."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    chart: Chart


@dataclass
class LinearSolveResult:
    """A solve's answer (a field, or an (N, k) array for a block of
    right-hand sides) and its backward error after each refinement pass."""

    solution: ScalarField | np.ndarray
    residual: float
    iterations: int
    residual_history: list = field(default_factory=list)


def assemble(problem: LinearProblem) -> LinearSystem:
    """Build the sparse system.

    Interior rows: conservative second-order stencil for a*Delta_g plus the
    diagonal c term.  s=0: exact row u = limit.  r=1: Dirichlet row or Robin
    row with a second-order one-sided normal derivative.  The CSR arrays
    are sliced from the metric's Laplacian, whose interior rows each store
    their diagonal, and the boundary rows are put around them.
    """
    g = problem.metric
    chart = g.chart
    nt = chart.nt
    N = chart.num_nodes
    h = chart.ds

    L = g.laplacian()
    lo, hi = L.indptr[nt], L.indptr[N - nt]
    indices = L.indices[lo:hi]
    data = problem.a * L.data[lo:hi]
    rows = np.repeat(np.arange(nt, N - nt), np.diff(L.indptr[nt:N - nt + 1]))
    diag = indices == rows
    if np.count_nonzero(diag) != N - 2 * nt:
        raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                       "interior row without a diagonal")
    data[diag] += problem.c.values.ravel()[nt:N - nt]
    rhs = problem.src.values.ravel().copy()

    # identity rows: the exact limit at s=0, Dirichlet data at s=1
    rhs[:nt] = problem.limit
    last = np.arange(N - nt, N)[:, None]
    if isinstance(problem.bc, DirichletBC):
        tail_cols, tail_vals = last, np.ones((nt, 1))
        rhs[-nt:] = problem.bc.value.values
    else:
        # du/deta = (1/sqrt g_rr) * (3u_N - 4u_{N-1} + u_{N-2}) / (2h)
        inv = 1.0 / np.sqrt(g.boundary_a_rr())
        tail_cols = np.hstack([last - 2 * nt, last - nt, last])
        tail_vals = np.column_stack([
            inv * 1.0 / (2 * h), inv * -4.0 / (2 * h),
            inv * 3.0 / (2 * h) + problem.bc.gamma.values])
        rhs[-nt:] = problem.bc.h.values
    indptr = np.concatenate([
        np.arange(nt), nt + L.indptr[nt:N - nt] - lo,
        nt + (hi - lo) + tail_cols.shape[1] * np.arange(nt + 1)])
    matrix = sp.csr_matrix(
        (np.concatenate([np.ones(nt), data, tail_vals.ravel()]),
         np.concatenate([np.arange(nt), indices, tail_cols.ravel()]),
         indptr), shape=(N, N))
    return LinearSystem(matrix=matrix, rhs=rhs, chart=chart)


def solve_linear(problem: LinearProblem) -> LinearSolveResult:
    """Assemble and solve by a sparse LU factorization.  Deterministic for
    fixed inputs."""
    return solve_system(assemble(problem))


def solve_system(system: LinearSystem,
                 tol: float = BACKWARD_ERROR_TOL) -> LinearSolveResult:
    return Factorization(system).solve(system.rhs, tol=tol)


class Factorization:
    """Sparse LU factors of an assembled matrix, reusable for many
    right-hand sides.

    Rows are equilibrated first: the compactified operator rows vary over
    many orders of magnitude in scale, which would otherwise ruin both the
    pivoting and the backward-error normalization.  Columns are ordered by
    minimum degree on the pattern of A^T + A: the stencils are symmetric in
    pattern except for the one-sided boundary rows.  On radial grids it
    gives the same LU fill as scipy's default COLAMD; on axisymmetric grids
    from 41x9 to 401x129 it gives 0.56-0.80x the fill (0.57x at 201x65),
    so both the factorization and each solve get cheaper.  No grid tried
    favours COLAMD, so the ordering is a constant, not an option.

    SuperLU's supernode relaxation is off (``relax=1``, ``panel_size=1``):
    the fill is unchanged, and a factorization takes 0.95 / 0.88 of the
    default settings' time on radial 1601 (Dirichlet / Robin), 0.73 / 0.80
    at 101x33, 0.66 / 0.73 at 201x65 and 0.63 / 0.72 at 401x129 (2 vCPUs).
    No grid tried favours the defaults, so both are constants too.  The
    scales, the scaled matrix and its infinity norm are computed on the
    CSR arrays of ``system.matrix``.

    With ``boundary_last`` the order is ``Chart.boundary_last_order``,
    kept by SuperLU (``NATURAL``) with diagonal pivots
    (``diag_pivot_thresh=0``); an LU that pivots anyway raises.  The
    trailing blocks of L and U then factor the Schur complement onto the
    last three s levels (``boundary_inverse``).  The fill is 1.37x minimum
    degree's at 201x65 and 1.28x at 401x129, the factor time within 10%.
    The factored ``system`` is kept for its right-hand side and rows.
    """

    def __init__(self, system: LinearSystem, boundary_last: bool = False):
        A = system.matrix
        self.system, self.chart = system, system.chart
        counts = np.diff(A.indptr)
        # checked first: reduceat gives an empty row the next row's value
        if np.any(counts == 0):
            raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                           "zero matrix row")
        starts = A.indptr[:-1]
        self.scale = np.maximum.reduceat(np.abs(A.data), starts)
        if np.any(self.scale == 0.0):
            raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                           "zero matrix row")
        data = A.data * np.repeat(1.0 / self.scale, counts)
        self.norm = float(np.max(np.add.reduceat(np.abs(data), starts)))
        M = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
        self.order, options = None, {"permc_spec": "MMD_AT_PLUS_A"}
        if boundary_last:
            order = self.chart.boundary_last_order
            if np.any(order != np.arange(order.size)):
                self.order, self.unorder = order, np.argsort(order)
                M = M[order][:, order]
            options = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
        self.matrix = M.tocsc()
        try:
            self.lu = spla.splu(self.matrix, relax=1, panel_size=1, **options)
        except RuntimeError as exc:
            raise DiscreteIsomorphismError(
                f"discrete isomorphism failure: {exc}") from exc
        if boundary_last and np.any(
                np.stack([self.lu.perm_r, self.lu.perm_c])
                != np.arange(self.scale.size)):
            raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                           "the boundary-last LU pivoted")

    def boundary_inverse(self) -> np.ndarray:
        """The 3nt x nt block of A^-1 of a ``boundary_last`` LU with rows on
        the last three s levels (r = 1 last) and columns on the r = 1 rows;
        its r = 1 rows are X_b.  It is (L33 U33)^-1 [0; 0; D_b^-1], with L33
        and U33 the trailing blocks of the factors, read from their CSC
        arrays, and D_b the r = 1 row scales.  Unrefined: up to ~3e-11
        relative error (the reduction's system on radial 1601)."""
        nt = self.chart.nt
        m = 3 * nt
        k = self.scale.size - m
        L33, U33 = np.zeros((2, m, m))
        for T, B in ((self.lu.L, L33), (self.lu.U, U33)):
            rows = T.indices[T.indptr[k]:] - k
            cols = np.repeat(np.arange(m), np.diff(T.indptr[k:]))
            keep = rows >= 0  # U's columns hold rows above the block too
            B[rows[keep], cols[keep]] = T.data[T.indptr[k]:][keep]
        data = np.zeros((m, nt))
        data[-nt:] = np.diag(1.0 / self.scale[-nt:])
        return sla.solve_triangular(U33, sla.solve_triangular(L33, data,
                                                              lower=True))

    def solve(self, rhs: np.ndarray,
              tol: float = BACKWARD_ERROR_TOL) -> LinearSolveResult:
        """One LU solve plus one refinement step, which takes the forward
        error from ~1e-12 to ~1e-14 at condition ~1e6 (1601 radial nodes).

        ``rhs`` is a vector of N values or an (N, k) block of k right-hand
        sides; a vector is the k = 1 block.  Each pass is one SuperLU solve
        over the whole block.  ``residual_history`` holds, after each pass,
        the normwise backward error |A x - b| / (|A| |x| + |b|) of the worst
        column; the last must be <= tol.  The solution is a ``ScalarField``
        for a vector and the (N, k) array of solutions for a block.
        """
        b = np.reshape(rhs, (self.scale.size, -1)) / self.scale[:, None]
        if self.order is not None:
            b = b[self.order]
        bnorm = np.linalg.norm(b, axis=0)
        x, r, history = np.zeros_like(b), b, []
        for _ in range(2):
            x = x + self.lu.solve(r)
            r = b - self.matrix @ x
            backward = np.linalg.norm(r, axis=0) / np.maximum(
                self.norm * np.linalg.norm(x, axis=0) + bnorm, 1e-300)
            history.append(float(np.max(backward)))
        if not np.all(np.isfinite(x)):
            raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                           "non-finite solution")
        if not history[-1] <= tol:
            raise NonConvergenceError(
                f"linear solve did not reach tol={tol:g} (backward error "
                f"{history[-1]:.3g})", history=history)
        if self.order is not None:
            x = x[self.unorder]
        sol = (x if np.ndim(rhs) == 2
               else ScalarField(self.chart, x.reshape(self.chart.shape)))
        return LinearSolveResult(solution=sol, residual=history[-1],
                                 iterations=len(history),
                                 residual_history=history)


def constant_field(chart: Chart, value: float) -> ScalarField:
    return ScalarField(chart, np.full(chart.shape, float(value)))
