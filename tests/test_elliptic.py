import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from scalarflat import (BoundaryField, Chart, ChartError, DirichletBC,
                        DiscreteIsomorphismError, LinearProblem,
                        NonConvergenceError, RobinBC, ScalarField, assemble,
                        constant_field, flat_metric, metric_from_spec,
                        solve_linear)
from scalarflat.dirichlet import _yamabe_linear_problem
from scalarflat.elliptic import Factorization, LinearSystem, solve_system
from scalarflat.metrics import build_laplace_matrix, normal_derivative


def flat_problem(chart, bc, limit=0.0, c=None, src=None):
    g = flat_metric(chart)
    return LinearProblem(metric=g, a=1.0,
                         c=c or constant_field(chart, 0.0),
                         src=src or constant_field(chart, 0.0),
                         bc=bc, limit=limit)


def test_dirichlet_harmonic_exact():
    # u(1)=1, u->0: u = 1/r, which the stencil reproduces to solver tolerance
    c = Chart.radial(3, 101)
    p = flat_problem(c, DirichletBC(BoundaryField.constant(c, 1.0)))
    res = solve_linear(p)
    assert res.residual <= 1e-10
    assert np.max(np.abs(res.solution.values - c.s)) < 1e-10


def test_robin_example():
    # gamma=1, h=0, limit=1: du/deta + u = 0 at r=1 gives u = 1 - (1/2) 1/r
    c = Chart.radial(3, 101)
    p = flat_problem(c, RobinBC(gamma=BoundaryField.constant(c, 1.0),
                                h=BoundaryField.constant(c, 0.0)), limit=1.0)
    res = solve_linear(p)
    assert np.max(np.abs(res.solution.values - (1.0 - 0.5 * c.s))) < 1e-10


def test_linearity():
    c = Chart.radial(3, 81)
    bc1 = DirichletBC(BoundaryField.constant(c, 1.0))
    bc2 = DirichletBC(BoundaryField.constant(c, 0.5))
    bc3 = DirichletBC(BoundaryField.constant(c, 1.5))
    u1 = solve_linear(flat_problem(c, bc1)).solution.values
    u2 = solve_linear(flat_problem(c, bc2)).solution.values
    u3 = solve_linear(flat_problem(c, bc3)).solution.values
    assert np.max(np.abs(u1 + u2 - u3)) < 1e-9


def test_discrete_maximum_principle_sample():
    # homogeneous operator, boundary data in [0,1]: solution stays in [0,1]
    c = Chart.axisymmetric(61, 17)
    vals = 0.5 + 0.5 * np.cos(c.theta) ** 2
    p = flat_problem(c, DirichletBC(BoundaryField(c, vals)))
    u = solve_linear(p).solution.values
    assert u.min() >= -1e-9
    assert u.max() <= 1.0 + 1e-9


def test_second_order_convergence():
    # manufactured non-polynomial solution u(s) = sin(pi s / 2):
    # Delta u = s^4 u_ss = -(pi^2/4) s^4 sin(pi s / 2) for n = 3
    errs = []
    for num in (51, 101, 201):
        c = Chart.radial(3, num)
        exact = np.sin(0.5 * np.pi * c.s)
        src = ScalarField(c, -(np.pi ** 2 / 4.0) * c.s ** 4 * exact)
        p = flat_problem(c, DirichletBC(BoundaryField.constant(c, 1.0)),
                         src=src)
        u = solve_linear(p).solution.values
        errs.append(np.max(np.abs(u - exact)))
    assert errs[0] / errs[1] > 3.2
    assert errs[1] / errs[2] > 3.2


def test_convergence_flag_implies_tolerance():
    c = Chart.radial(3, 101)
    p = flat_problem(c, DirichletBC(BoundaryField.constant(c, 1.0)))
    res = solve_system(assemble(p), tol=1e-12)
    assert res.residual <= 1e-12


def test_nonconvergence_has_history():
    c = Chart.radial(3, 401)
    p = flat_problem(c, DirichletBC(BoundaryField.constant(c, 1.0)))
    with pytest.raises(NonConvergenceError) as exc:
        solve_system(assemble(p), tol=1e-30)
    assert isinstance(exc.value.history, list)


def test_chart_mismatch_rejected():
    c1 = Chart.radial(3, 51)
    c2 = Chart.radial(3, 61)
    g = flat_metric(c1)
    with pytest.raises(ChartError):
        LinearProblem(metric=g, a=1.0, c=constant_field(c2, 0.0),
                      src=constant_field(c1, 0.0),
                      bc=DirichletBC(BoundaryField.constant(c1, 1.0)),
                      limit=0.0)


def test_exact_limit_row():
    # the s=0 row is the exact identity u = limit
    c = Chart.radial(3, 41)
    p = flat_problem(c, DirichletBC(BoundaryField.constant(c, 3.0)), limit=2.0)
    u = solve_linear(p).solution.values
    assert u[0] == pytest.approx(2.0, abs=1e-12)
    assert u[-1] == pytest.approx(3.0, abs=1e-12)


def test_factorization_reused_across_right_hand_sides():
    # one factor, several Robin data: each answer equals a fresh solve
    c = Chart.axisymmetric(41, 9)
    p = flat_problem(c, RobinBC(gamma=BoundaryField.constant(c, 2.0),
                                h=BoundaryField.constant(c, 0.0)), limit=1.0)
    system = assemble(p)
    lu = Factorization(system)
    for k in range(4):
        rhs = system.rhs.copy()
        rhs[-c.theta.size:] = 1.0 + k * np.cos(c.theta) ** 2
        reused = lu.solve(rhs, tol=1e-10)
        fresh = solve_system(LinearSystem(system.matrix, rhs, c), tol=1e-10)
        assert reused.residual <= 1e-10
        assert np.max(np.abs(reused.solution.values
                             - fresh.solution.values)) <= 1e-12


def test_block_solve_matches_vector_solves():
    # one SuperLU solve per pass over k Robin data gives the k answers of
    # k vector solves, and the worst column's backward error
    c = Chart.axisymmetric(41, 9)
    p = flat_problem(c, RobinBC(gamma=BoundaryField.constant(c, 2.0),
                                h=BoundaryField.constant(c, 0.0)), limit=1.0)
    system = assemble(p)
    lu = Factorization(system)
    block = np.repeat(system.rhs[:, None], 5, axis=1)
    for k in range(5):
        block[-c.nt:, k] = 1.0 + k * np.cos(c.theta) ** 2
    res = lu.solve(block, tol=1e-10)
    assert res.solution.shape == block.shape
    singles = [lu.solve(block[:, k], tol=1e-10) for k in range(5)]
    for k, single in enumerate(singles):
        assert np.max(np.abs(res.solution[:, k]
                             - single.solution.values.ravel())) <= 1e-14
    for i in range(2):
        assert res.residual_history[i] == pytest.approx(
            max(single.residual_history[i] for single in singles), rel=1e-6)


def test_block_solve_gates_every_column():
    # a zero column is solved exactly; the other misses tol, and so does
    # the block
    c = Chart.radial(3, 1601)
    g = metric_from_spec("conformal:1,0.9,1.8", c)
    system = assemble(_yamabe_linear_problem(g, 1.0))
    lu = Factorization(system)
    hard = lu.solve(system.rhs).residual
    assert 0.0 < hard and lu.solve(np.zeros_like(system.rhs),
                                   tol=0.5 * hard).residual == 0.0
    block = np.column_stack([np.zeros_like(system.rhs), system.rhs])
    with pytest.raises(NonConvergenceError) as exc:
        lu.solve(block, tol=0.5 * hard)
    assert exc.value.history[-1] == pytest.approx(hard, rel=1e-6)


def test_large_solution_small_rhs_solves_at_once():
    # radial N=1601 Dirichlet system whose solution is ~4e5 times larger
    # than its equilibrated right-hand side: a Krylov target relative to
    # |b| cannot be met there, and used to run to its 500-step cap
    c = Chart.radial(3, 1601)
    g = metric_from_spec("conformal:1,0.9,1.8", c)
    system = assemble(_yamabe_linear_problem(g, 1.0))
    res = solve_system(system, tol=1e-10)
    scale = np.abs(system.matrix).max(axis=1).toarray().ravel()
    assert (np.linalg.norm(res.solution.values)
            > 1e5 * np.linalg.norm(system.rhs / scale))
    # one LU solve and one refinement step
    assert len(res.residual_history) == 2
    assert res.residual <= 1e-10


def test_singular_systems_rejected():
    c = Chart.radial(3, 3)
    rhs = np.ones(3)
    zero_row = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1.0]]))
    singular = sp.csr_matrix(np.array([[1.0, 0, 0], [1.0, 2.0, 1.0],
                                       [1.0, 2.0, 1.0]]))
    for matrix in (zero_row, singular):
        with pytest.raises(DiscreteIsomorphismError):
            solve_system(LinearSystem(matrix, rhs, c))
        with pytest.raises(DiscreteIsomorphismError):
            Factorization(LinearSystem(matrix, rhs, c), boundary_last=True)


@pytest.mark.parametrize("data,indices,indptr", [
    ([1.0, 1.0], [1, 2], [0, 0, 1, 2]),
    ([1.0, 1.0], [0, 2], [0, 1, 1, 2]),
    ([1.0, 1.0], [0, 1], [0, 1, 2, 2]),
    ([1.0, 0.0, 0.0, 1.0], [0, 0, 2, 2], [0, 1, 3, 4]),
], ids=["empty-first", "empty-middle", "empty-last", "stored-zeros"])
def test_zero_row_rejected(data, indices, indptr):
    # an unstored row is caught before reduceat, which would give it the
    # next row's scale; a row of stored zeros has scale 0
    matrix = sp.csr_matrix((np.array(data), np.array(indices),
                            np.array(indptr)), shape=(3, 3))
    for boundary_last in (False, True):
        with pytest.raises(DiscreteIsomorphismError, match="zero matrix row"):
            Factorization(LinearSystem(matrix, np.ones(3), Chart.radial(3, 3)),
                          boundary_last=boundary_last)


def yamabe_systems(chart, spec):
    """The Yamabe system of ``spec`` on ``chart`` with its Dirichlet row
    and with a Robin row (gamma = 2, h = 0)."""
    if spec == "table":
        a = (1.0 + 0.9 * (chart.s ** 2)[:, None]
             * (1.0 + np.cos(chart.theta) ** 2)) ** 4
        spec = {"kind": "axisym", "a_rr": a, "a_theta": a, "a_phi": a,
                "decay": 2.0}
    d = _yamabe_linear_problem(metric_from_spec(spec, chart), 1.0)
    r = LinearProblem(metric=d.metric, a=d.a, c=d.c, src=d.src, limit=1.0,
                      bc=RobinBC(gamma=BoundaryField.constant(chart, 2.0),
                                 h=BoundaryField.constant(chart, 0.0)))
    return {"dirichlet": assemble(d), "robin": assemble(r)}


@pytest.mark.parametrize("chart,spec", [
    (Chart.radial(3, 401), "conformal:1,0.9,1.8"),
    (Chart.axisymmetric(61, 17), "table")], ids=["radial", "axisym"])
def test_equilibrated_matrix_matches_diagonal_product(chart, spec):
    # the scaled CSR data is bitwise the sparse product with diag(1/scale),
    # and the row-sum norm is scipy's to rounding
    for system in yamabe_systems(chart, spec).values():
        factors = Factorization(system)
        assert factors.matrix.format == "csr"
        M = factors.matrix.tocsc()
        ref = (sp.diags(1.0 / factors.scale) @ system.matrix).tocsc()
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert np.array_equal(M.data.view(np.int64), ref.data.view(np.int64))
        norm = spla.norm(M, np.inf)
        assert abs(factors.norm - norm) <= 4 * np.spacing(norm)


@pytest.mark.parametrize("chart,spec", [
    (Chart.radial(3, 1601), "conformal:1,0.9,1.8"),
    (Chart.axisymmetric(201, 65), "table")], ids=["radial", "axisym"])
def test_solution_matches_default_superlu_settings(chart, spec):
    # supernode relaxation off changes the rounding only: the same
    # equilibration and refinement on a default-settings splu agree
    for system in yamabe_systems(chart, spec).values():
        factors = Factorization(system)
        default = copy.copy(factors)
        default.lu = spla.splu(factors.matrix.tocsc(),
                               permc_spec="MMD_AT_PLUS_A")
        default.cols = None  # this LU reads its column order back itself
        x = factors.solve(system.rhs).solution.values
        ref = default.solve(system.rhs).solution.values
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def reference_assembly(problem):
    """Row-by-row dense assembly, the form the sparse assemble replaced."""
    g, chart = problem.metric, problem.metric.chart
    nt, h = chart.boundary_shape[0], chart.ds
    A = (problem.a * build_laplace_matrix(g).toarray()
         + np.diag(problem.c.values.ravel()))
    rhs = problem.src.values.ravel().copy()
    N = A.shape[0]
    inv = 1.0 / np.sqrt(g.boundary_a_rr())
    for j in range(nt):
        k = N - nt + j
        A[j], A[k] = 0.0, 0.0
        A[j, j], rhs[j] = 1.0, problem.limit
        if isinstance(problem.bc, DirichletBC):
            A[k, k], rhs[k] = 1.0, problem.bc.value.values[j]
        else:
            A[k, k - 2 * nt] = inv[j] * 1.0 / (2 * h)
            A[k, k - nt] = inv[j] * -4.0 / (2 * h)
            A[k, k] = inv[j] * 3.0 / (2 * h) + problem.bc.gamma.values[j]
            rhs[k] = problem.bc.h.values[j]
    return A, rhs


@pytest.mark.parametrize("chart", [Chart.radial(4, 33),
                                   Chart.axisymmetric(61, 9)],
                         ids=["radial", "axisym"])
def test_assemble_matches_row_by_row_reference(chart):
    if chart.mode == "radial-1D":
        g = metric_from_spec("conformal:1,0.4,0.7", chart)
    else:
        a = (1.0 + 0.3 * (chart.s ** 2)[:, None]
             * (1.0 + np.cos(chart.theta) ** 2)) ** 4
        g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                              "a_phi": a, "decay": 2.0}, chart)
    ramp = np.arange(chart.num_nodes).reshape(chart.shape)
    edge = 0.1 * np.arange(chart.boundary_shape[0])
    for bc in (DirichletBC(BoundaryField(chart, 1.0 + edge)),
               RobinBC(gamma=BoundaryField(chart, 0.5 + edge),
                       h=BoundaryField(chart, 2.0 - edge))):
        p = LinearProblem(metric=g, a=2.5,
                          c=ScalarField(chart, -0.3 * np.cos(ramp)),
                          src=ScalarField(chart, np.sin(ramp)), bc=bc,
                          limit=0.7)
        system = assemble(p)
        A, rhs = reference_assembly(p)
        assert np.array_equal(system.matrix.toarray(), A)
        assert np.array_equal(system.rhs, rhs)


@pytest.mark.parametrize("chart,spec", [
    (Chart.radial(3, 201), "conformal:1,0.4,0.7"),
    (Chart.axisymmetric(41, 9), "table")], ids=["radial-201", "axisym-41x9"])
def test_robin_rows_are_normal_derivative(chart, spec):
    # the Robin rows are the stencil of normal_derivative: on r = 1 the
    # assembled rows applied to u, less gamma u_b, are normal_derivative(g, u)
    if spec == "table":  # a_rr varies along r = 1
        a = (1.0 + 0.9 * chart.s_col ** 2
             * (1.0 + np.cos(chart.theta) ** 2)) ** 4
        spec = {"kind": "axisym", "a_rr": a, "a_theta": a, "a_phi": a,
                "decay": 2.0}
    g = metric_from_spec(spec, chart)
    rng = np.random.default_rng(7)
    u = ScalarField(chart, rng.standard_normal(chart.shape))
    gamma = BoundaryField(chart, rng.standard_normal(chart.boundary_shape))
    M = assemble(LinearProblem(
        metric=g, a=1.0, c=constant_field(chart, 0.0),
        src=constant_field(chart, 0.0), limit=0.0,
        bc=RobinBC(gamma=gamma, h=BoundaryField.constant(chart, 0.0))
    )).matrix[-chart.nt:]
    rows = M @ u.values.ravel() - gamma.values * u.boundary_values()
    scale = abs(M) @ np.abs(u.values.ravel())
    ref = normal_derivative(g, u).values
    assert np.all(np.abs(rows - ref) <= 1e-14 * scale)


def test_factorization_fill_below_colamd():
    c = Chart.axisymmetric(201, 65)
    a = (1.0 + 0.9 * (c.s ** 2)[:, None]
         * (1.0 + np.cos(c.theta) ** 2)) ** 4
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    factors = Factorization(assemble(_yamabe_linear_problem(g, 1.0)))
    colamd = spla.splu(factors.matrix.tocsc(), permc_spec="COLAMD")
    fill = factors.lu.L.nnz + factors.lu.U.nnz
    assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_boundary_last_lu_that_pivots_raises():
    # a zero diagonal makes SuperLU pivot off the boundary-last order, and
    # its trailing blocks would no longer factor the boundary block
    matrix = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 0, 1.0],
                                     [0, 1.0, 1.0]]))
    system = LinearSystem(matrix, np.ones(3), Chart.radial(3, 3))
    assert Factorization(system).solve(system.rhs).residual <= 1e-10
    with pytest.raises(DiscreteIsomorphismError, match="pivoted"):
        Factorization(system, boundary_last=True)


@pytest.mark.parametrize("chart", [Chart.radial(3, 1601),
                                   Chart.axisymmetric(41, 9),
                                   Chart.axisymmetric(201, 65)],
                         ids=["radial", "axisym-41x9", "axisym-201x65"])
def test_boundary_last_factorization(chart):
    # on the harmonic Robin system of the mean-curvature stage: fill at
    # most 1.4x minimum degree's (1.00x, 1.37x and 1.37x here), the same
    # answers, the answers to unit r = 1 data on the last three levels
    # equal to those rows of unit-data solves, and the shared
    # backward-error gate
    system = assemble(flat_problem(chart, RobinBC(
        gamma=BoundaryField.constant(chart, 1.0),
        h=BoundaryField.constant(chart, 0.0)), limit=1.0))
    mmd, last = Factorization(system), Factorization(system,
                                                     boundary_last=True)
    fill = [f.lu.L.nnz + f.lu.U.nnz for f in (mmd, last)]
    assert fill[1] <= 1.4 * fill[0]
    x = last.solve(system.rhs).solution.values
    ref = mmd.solve(system.rhs).solution.values
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    N, nt = chart.num_nodes, chart.nt
    units = np.zeros((N, nt))
    units[N - nt + np.arange(nt), np.arange(nt)] = 1.0
    X_ref = mmd.solve(units).solution[-3 * nt:]
    X = last.boundary_inverse()
    assert np.max(np.abs(X - X_ref)) <= 1e-11 * np.max(np.abs(X_ref))
    with pytest.raises(NonConvergenceError):
        last.solve(system.rhs, tol=1e-30)


def forget_lu_layouts(chart, pattern):
    """Drop what the LUs of ``pattern`` keep on ``chart``, so that its
    next LU is a first one."""
    for key in [k for k in chart.layouts if k[0] == pattern]:
        del chart.layouts[key]


def assert_same_factors(a, b):
    """The L and U factors and the row pivots of two SuperLU objects are
    bitwise equal."""
    assert np.array_equal(a.perm_r, b.perm_r)
    for A, B in ((a.L, b.L), (a.U, b.U)):
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


@pytest.mark.parametrize("chart,spec", [
    (Chart.radial(3, 1601), "conformal:1,0.9,1.8"),
    (Chart.axisymmetric(41, 9), "table"),
    (Chart.axisymmetric(201, 65), "table")],
    ids=["radial-1601", "axisym-41x9", "axisym-201x65"])
def test_later_lus_of_a_pattern_are_bitwise_the_first(chart, spec):
    # the first LU of a pattern orders its columns by minimum degree; a
    # later one is handed its columns in that order and keeps it: the same
    # factors, pivots and answers as the first LU and as a fresh splu, for
    # the matrix that set the order and for another one of its pattern
    other = yamabe_systems(chart, "conformal:1,0.5,0.5")
    for kind, system in yamabe_systems(chart, spec).items():
        for A in (system, other[kind]):
            forget_lu_layouts(chart, A.pattern)
            first, second, later = (Factorization(A) for _ in range(3))
            assert first.rows is first.cols is None
            for f in (second, later):
                assert f.rows is None
                assert np.array_equal(f.cols, first.lu.perm_c)
                assert np.array_equal(f.lu.perm_c,
                                      np.arange(chart.num_nodes))
                assert_same_factors(first.lu, f.lu)
            fresh = spla.splu(first.matrix.tocsc(), relax=1, panel_size=1,
                              permc_spec="MMD_AT_PLUS_A")
            assert np.array_equal(fresh.perm_c, first.lu.perm_c)
            assert_same_factors(first.lu, fresh)
            block = np.column_stack([A.rhs, np.roll(A.rhs, 1)])
            for rhs in (A.rhs, block):
                x, y = (f.solve(rhs) for f in (first, later))
                assert x.residual_history == y.residual_history
                assert same_bits(getattr(x.solution, "values", x.solution),
                                 getattr(y.solution, "values", y.solution))
        assert np.array_equal(chart.layouts[A.pattern, "lu-order"],
                              first.lu.perm_c)


@pytest.mark.parametrize("chart", [Chart.radial(3, 401),
                                   Chart.axisymmetric(41, 9),
                                   Chart.axisymmetric(41, 17)],
                         ids=["radial", "axisym-41x9", "axisym-41x17"])
def test_later_boundary_last_lus_are_bitwise_the_first(chart):
    # the boundary-last CSC is gathered from the CSR data on every LU: the
    # same factors and boundary block as M[order][:, order] gives, and one
    # permutation pair, the order and its inverse (None where it is the
    # identity, as on radial charts)
    system = yamabe_systems(chart, "conformal:1,0.5,0.5")["robin"]
    forget_lu_layouts(chart, system.pattern)
    first, later = (Factorization(system, boundary_last=True)
                    for _ in range(2))
    order = chart.boundary_last_order
    ref = spla.splu(((sp.diags(1.0 / first.scale) @ system.matrix)
                     [order][:, order]).tocsc(), permc_spec="NATURAL",
                    diag_pivot_thresh=0.0, relax=1, panel_size=1)
    identity = np.array_equal(order, np.arange(order.size))
    for f in (first, later):
        if identity:
            assert f.rows is f.cols is None
        else:
            assert np.array_equal(f.rows, order)
            assert np.array_equal(order[f.cols], np.arange(order.size))
        assert_same_factors(ref, f.lu)
    assert same_bits(first.boundary_inverse(), later.boundary_inverse())
    assert same_bits(first.solve(system.rhs).solution.values,
                     later.solve(system.rhs).solution.values)


@pytest.mark.parametrize("chart", [Chart.radial(3, 401),
                                   Chart.axisymmetric(41, 17)],
                         ids=["radial", "axisym-41x17"])
def test_matrix_is_the_equilibrated_csr_of_every_lu(chart):
    # refinement multiplies by the equilibrated CSR in natural order,
    # whatever order the LU factors in: a pattern's first LU, a later one
    # and a boundary-last one
    system = yamabe_systems(chart, "conformal:1,0.5,0.5")["robin"]
    forget_lu_layouts(chart, system.pattern)
    lus = [Factorization(system) for _ in range(2)]
    lus.append(Factorization(system, boundary_last=True))
    assert lus[0].cols is None and lus[1].cols is not None
    ref = sp.diags(1.0 / lus[0].scale) @ system.matrix
    ref.sort_indices()
    for f in lus:
        assert f.matrix.format == "csr"
        for a in ("indptr", "indices"):
            assert np.array_equal(getattr(f.matrix, a), getattr(ref, a))
        assert same_bits(f.matrix.data, ref.data)


def test_lu_orders_are_kept_per_pattern():
    # Dirichlet rows and Robin rows are two patterns on one chart, each
    # ordered by its own first LU; a system built by hand names no pattern,
    # so every LU of it is ordered afresh and nothing is kept for it
    chart = Chart.axisymmetric(41, 17)
    systems = yamabe_systems(chart, "table")
    for system in systems.values():
        forget_lu_layouts(chart, system.pattern)
        Factorization(system)
    perms = {}
    for kind, system in systems.items():
        f = Factorization(system)
        fresh = spla.splu(f.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert f.rows is None and np.array_equal(f.cols, fresh.perm_c)
        perms[kind] = f.cols
    assert not np.array_equal(perms["dirichlet"], perms["robin"])
    kept = dict(chart.layouts)
    robin = systems["robin"]
    small_chart = Chart.radial(3, 3)
    small = LinearSystem(sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                                 [1.0, 4.0, 0.0],
                                                 [0.0, 1.0, 4.0]])),
                         np.ones(3), small_chart)
    for system in (LinearSystem(robin.matrix, robin.rhs, chart), small):
        for _ in range(2):
            f = Factorization(system)
            assert f.rows is f.cols is None
            assert f.solve(system.rhs).residual <= 1e-10
    assert chart.layouts.keys() == kept.keys()
    assert all(chart.layouts[k] is kept[k] for k in kept)
    assert small_chart.layouts == {}


@pytest.mark.parametrize("boundary_last", [False, True])
def test_solve_counts_its_passes(boundary_last):
    # two SuperLU solve passes per solve, the solve and its refinement
    # step, for a vector or a block of right-hand sides
    chart = Chart.axisymmetric(41, 9)
    system = yamabe_systems(chart, "conformal:1,0.5,0.5")["robin"]
    lu = Factorization(system, boundary_last=boundary_last)
    assert lu.passes == 0
    lu.solve(system.rhs)
    lu.solve(np.column_stack([system.rhs] * 3))
    assert lu.passes == 4
