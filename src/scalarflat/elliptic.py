"""Assembly and solution of linear elliptic problems on the chart.

Problems have the form  a * Delta_g u + c * u = src  with one inner-boundary
condition at r=1 (Dirichlet value or Robin du/deta + gamma u = h) and an
exact limit row u = L at s=0.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Assembled sparse system with bookkeeping for the residual check.

    ``pattern`` names the sparsity pattern of ``matrix`` in
    ``chart.layouts``, where the layouts of its LUs are kept; ``assemble``
    sets it.  A matrix built elsewhere has None: its LUs share nothing."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    chart: Chart
    pattern: tuple | None = None


@dataclass
class LinearSolveResult:
    """A solve's answer (a field, or an (N, k) array for a block of
    right-hand sides) and its backward error after each refinement pass."""

    solution: ScalarField | np.ndarray
    residual_history: list

    @property
    def residual(self) -> float:
        """The backward error after the last pass."""
        return self.residual_history[-1]


def assemble(problem: LinearProblem) -> LinearSystem:
    """Build the sparse system.

    Interior rows: conservative second-order stencil for a*Delta_g plus the
    diagonal c term.  s=0: exact row u = limit.  r=1: Dirichlet row or Robin
    row with a second-order one-sided normal derivative.  The CSR data are
    the interior rows of the metric's Laplacian, scaled by a, with c added
    to their stored diagonals, and the boundary rows put around them.  The
    index arrays are the chart's, one pair for each kind of r = 1 row
    (``_system_layout``), so every system of a kind shares its pattern.
    """
    g = problem.metric
    chart = g.chart
    nt = chart.nt
    N = chart.num_nodes
    h = chart.ds
    robin = isinstance(problem.bc, RobinBC)

    L = g.laplacian
    pattern = ("system", "robin" if robin else "dirichlet")
    layout = chart.layouts.get(pattern)
    if layout is None:
        layout = chart.layouts[pattern] = _system_layout(L, nt, robin)
    indptr, indices, diag = layout
    lo, hi = L.indptr[nt], L.indptr[N - nt]
    data = np.empty(indices.size)
    data[:nt] = 1.0
    np.multiply(problem.a, L.data[lo:hi], out=data[nt:nt + hi - lo])
    data[diag] += problem.c.values.ravel()[nt:N - nt]
    rhs = problem.src.values.ravel().copy()

    # identity rows: the exact limit at s=0, Dirichlet data at s=1
    rhs[:nt] = problem.limit
    if robin:
        # du/deta = (1/sqrt g_rr) * (3u_N - 4u_{N-1} + u_{N-2}) / (2h)
        inv = 1.0 / np.sqrt(g.boundary_a_rr())
        data[nt + hi - lo:] = np.column_stack([
            inv * 1.0 / (2 * h), inv * -4.0 / (2 * h),
            inv * 3.0 / (2 * h) + problem.bc.gamma.values]).ravel()
        rhs[-nt:] = problem.bc.h.values
    else:
        data[-nt:] = 1.0
        rhs[-nt:] = problem.bc.value.values
    matrix = sp.csr_matrix((data, indices, indptr), shape=(N, N))
    return LinearSystem(matrix=matrix, rhs=rhs, chart=chart, pattern=pattern)


def _system_layout(L, nt: int, robin: bool):
    """(indptr, indices, diag), read-only: the CSR pattern of the systems
    ``assemble`` builds on the Laplacian L, with nt identity rows at s = 0,
    L's interior rows and nt r = 1 rows of 3 (Robin) or 1 (Dirichlet)
    entries; ``diag`` holds the positions of the interior diagonals in the
    data."""
    N = L.shape[0]
    lo, hi = L.indptr[nt], L.indptr[N - nt]
    rows = np.repeat(np.arange(nt, N - nt), np.diff(L.indptr[nt:N - nt + 1]))
    diag = nt + np.flatnonzero(L.indices[lo:hi] == rows)
    if diag.size != N - 2 * nt:
        raise DiscreteIsomorphismError("discrete isomorphism failure: "
                                       "interior row without a diagonal")
    last = np.arange(N - nt, N)[:, None]
    tail = np.hstack([last - 2 * nt, last - nt, last]) if robin else last
    indptr = np.concatenate([
        np.arange(nt), nt + L.indptr[nt:N - nt] - lo,
        nt + (hi - lo) + tail.shape[1] * np.arange(nt + 1)])
    indices = np.concatenate([np.arange(nt), L.indices[lo:hi], tail.ravel()])
    layout = (indptr.astype(L.indptr.dtype), indices.astype(L.indices.dtype),
              diag)
    for a in layout:
        a.flags.writeable = False
    return layout


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

    The ordering depends on the pattern alone, so it is computed once per
    pattern.  The first LU of a ``system.pattern`` on a chart is ordered by
    SuperLU (``MMD_AT_PLUS_A``), and its column order ``lu.perm_c`` is kept
    in ``Chart.layouts``.  Later LUs of the pattern are handed the matrix
    with its columns in that order and factored with
    ``permc_spec="NATURAL"``: SuperLU's postorder of the elimination tree
    keeps that order, the rows are not permuted, and the factors, pivots
    and solutions are bitwise those of a fresh ordering.  A system with no
    ``pattern`` is ordered afresh.

    With ``boundary_last`` the order is ``Chart.boundary_last_order``,
    kept by SuperLU (``NATURAL``) with diagonal pivots
    (``diag_pivot_thresh=0``); an LU that pivots raises.  The trailing
    blocks of L and U then factor the Schur complement onto the last three
    s levels (``boundary_inverse``).  The fill is 1.37x minimum degree's at
    201x65 and 1.28x at 401x129, the factor time within 10%.

    Each LU has one permutation pair, None for the identity: ``rows``, the
    order right-hand sides are gathered in (the boundary-last order), and
    ``cols``, each unknown's position in the factored order (the inverse
    of that order, or a later LU's kept column order).  Where SuperLU does
    not order the columns itself, the CSC it factors is gathered from the
    CSR data through a layout of that pair (``_csc_layout``), kept per
    pattern from the first LU that needs it on.  (One built while a first
    LU's factors are alive raised the peak memory of a run of 201x65 jobs
    by 6 MB.)  ``matrix`` is the equilibrated CSR, in natural order, that
    refinement multiplies by for every LU.  The factored ``system`` is
    kept for its right-hand side and rows, and ``passes`` counts the
    SuperLU solve passes made on the factors.
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
        self.matrix = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
        self.rows = self.cols = None
        self.passes = 0
        # a system that names no pattern keeps its layouts to itself
        layouts = {} if system.pattern is None else self.chart.layouts
        if boundary_last:
            order = self.chart.boundary_last_order
            if np.any(order != np.arange(order.size)):
                self.rows, self.cols = order, np.argsort(order)
            key, options = "boundary-last-csc", {"permc_spec": "NATURAL",
                                                 "diag_pivot_thresh": 0.0}
        else:
            self.cols = layouts.get((system.pattern, "lu-order"))
            key, options = "lu-csc", {"permc_spec": "NATURAL" if self.cols
                                      is not None else "MMD_AT_PLUS_A"}
        if boundary_last or self.cols is not None:
            csc = _gathered(data, A.shape, layouts, (system.pattern, key),
                            lambda: _csc_layout(A, self.rows, self.cols))
        else:
            csc = self.matrix.tocsc()
        try:
            self.lu = spla.splu(csc, relax=1, panel_size=1, **options)
        except RuntimeError as exc:
            raise DiscreteIsomorphismError(
                f"discrete isomorphism failure: {exc}") from exc
        if boundary_last:
            if np.any(np.stack([self.lu.perm_r, self.lu.perm_c])
                      != np.arange(self.scale.size)):
                raise DiscreteIsomorphismError(
                    "discrete isomorphism failure: the boundary-last LU "
                    "pivoted")
        elif self.cols is None:
            perm = self.lu.perm_c.copy()
            perm.flags.writeable = False
            layouts[system.pattern, "lu-order"] = perm

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
        bnorm = np.linalg.norm(b, axis=0)
        x, r, history = np.zeros_like(b), b, []
        for _ in range(2):
            dx = self.lu.solve(r if self.rows is None else r[self.rows])
            x = x + (dx if self.cols is None else dx[self.cols])
            self.passes += 1
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
        sol = (x if np.ndim(rhs) == 2
               else ScalarField(self.chart, x.reshape(self.chart.shape)))
        return LinearSolveResult(solution=sol, residual_history=history)


def _gathered(data, shape, layouts, key, build):
    """The CSC matrix of the CSR data ``data`` in the layout that
    ``layouts`` keeps under ``key``, built by ``build()`` (a
    ``_csc_layout``) when it has none."""
    layout = layouts.get(key)
    if layout is None:
        layout = layouts[key] = build()
    indptr, indices, gather = layout
    return sp.csc_matrix((data[gather], indices, indptr), shape=shape)


def _csc_layout(A, rows, cols):
    """(indptr, indices, gather), read-only: the CSC pattern of the CSR
    matrix A with its rows taken in the order ``rows`` and its column j put
    at position ``cols[j]`` (natural when None), and the positions in A's
    data of that CSC data, read off the conversion of a CSR matrix whose
    values are their own positions."""
    P = sp.csr_matrix((np.arange(A.nnz, dtype=float), A.indices, A.indptr),
                      shape=A.shape)
    if rows is not None:
        P = P[rows]
    if cols is not None:
        P = P[:, np.argsort(cols)]
    P = P.tocsc()
    layout = (P.indptr, P.indices, P.data.astype(np.intp))
    for a in layout:
        a.flags.writeable = False
    return layout


def constant_field(chart: Chart, value: float) -> ScalarField:
    return ScalarField(chart, np.full(chart.shape, float(value)))
