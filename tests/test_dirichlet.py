import numpy as np
import pytest

from scalarflat import (BoundaryField, Chart, PositivityError, ScalarField,
                        StageError, assemble, flat_metric, lambda_sweep,
                        metric_from_spec, prescribe_mean_curvature,
                        reduce_to_minimal, scalar_curvature,
                        solve_scalar_flat_dirichlet, sweep_certificate)
from scalarflat.dirichlet import _yamabe_linear_problem
import scalarflat.metrics as metrics
import scalarflat.weighted as weighted
from scalarflat.weighted import decay_fit

BENCH = {"kind": "conformal", "coeffs": [1.0, 0.0, 1.0]}  # u0 = 1 + r^-2


def test_flat_identity():
    c = Chart.radial(3, 201)
    sol = solve_scalar_flat_dirichlet(flat_metric(c))
    assert np.max(np.abs(sol.phi.values - 1.0)) <= 1e-10
    assert np.all(sol.phi.boundary_values() == 1.0)


def test_benchmark_phi():
    c = Chart.radial(3, 201)
    g = metric_from_spec(BENCH, c)
    sol = solve_scalar_flat_dirichlet(g)
    exact = (1.0 + c.s) / (1.0 + c.s ** 2)
    assert np.max(np.abs(sol.phi.values - exact)) < 1e-5
    # transformed metric is conformally flat with harmonic factor; the
    # curvature residual reflects the O(1e-6) solve error through the
    # discrete Laplacian
    R = scalar_curvature(sol.metric).values
    assert np.max(np.abs(R[1:-1])) < 5e-5


def test_benchmark_mass_and_decay():
    c = Chart.radial(3, 201)
    sol = solve_scalar_flat_dirichlet(metric_from_spec(BENCH, c))
    assert sol.report.mass_coefficient == pytest.approx(2.0, rel=0.01)
    assert sol.report.decay["status"] == "ok"
    assert sol.report.decay["q"] == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("c1,c2", [(0.0, 1.0), (0.8, 0.8), (0.9, 1.8)])
def test_mass_from_the_s0_row_converges(c1, c2):
    # u0 = 1 + c1 s + c2 s^2 gives phi = (1 + (c1 + c2) s) / u0, so m = 2 c2
    for num, bound in ((401, 5e-5), (1601, 5e-6)):
        c = Chart.radial(3, num)
        sol = solve_scalar_flat_dirichlet(
            metric_from_spec(f"conformal:1,{c1},{c2}", c))
        assert abs(sol.report.mass_coefficient - 2.0 * c2) <= bound


def _table_metric(c, A, B):
    """u0^4 flat, u0 = 1 + A s^2 (1 + B cos^2 theta), as frame tables: the
    table metric of the axisym-dirichlet benchmark, where m = 2A(1 + B/3)."""
    s = c.s[:, None]
    mu = np.cos(c.theta)[None, :]
    table = ((1.0 + A * s * s * (1.0 + B * mu * mu)) ** 4).tolist()
    return metric_from_spec({"kind": "axisym", "a_rr": table,
                             "a_theta": table, "a_phi": table,
                             "decay": 2.0}, c)


@pytest.mark.parametrize("grid", [(101, 33), (201, 65)])
def test_axisym_mass_and_decay(grid):
    c = Chart.axisymmetric(*grid)
    sol = solve_scalar_flat_dirichlet(_table_metric(c, 0.9, 1.0))
    assert abs(sol.report.mass_coefficient - 2.4) <= 1e-3
    assert sol.report.decay["status"] == "ok"
    assert sol.report.decay["q"] == pytest.approx(1.0, rel=0.01)


def test_axisym_flat_has_no_mass():
    sol = solve_scalar_flat_dirichlet(flat_metric(Chart.axisymmetric(41, 9)))
    assert sol.report.mass_coefficient == 0.0
    assert sol.report.decay["status"] == "constant"


def test_boundary_is_exact():
    c = Chart.radial(3, 151)
    sol = solve_scalar_flat_dirichlet(metric_from_spec(BENCH, c))
    assert float(sol.phi.boundary_values()[0]) == 1.0


def _bump_profile(c):
    """sin^2 bump in s on (0.35, 1], zero further out, on the (s, theta) grid."""
    s = c.s[:, None]
    return np.where(
        s > 0.35,
        np.sin(np.pi * np.clip((s - 0.35) / 0.65, 0.0, 1.0)) ** 2,
        0.0) * np.ones((1, c.nt))


def _negative_bump_metric(monkeypatch):
    """The flat 121x17 metric with R = -50 prof injected: a discrete
    problem with min phi = -0.85."""
    c = Chart.axisymmetric(121, 17)
    R = ScalarField(c, -50.0 * _bump_profile(c))
    monkeypatch.setattr(metrics.MetricField, "scalar_curvature",
                        property(lambda self: R))
    return flat_metric(c)


def _bump_metric(c, amplitude):
    """u^4 flat with u = 1 + amplitude prof, made anisotropic in theta."""
    prof = _bump_profile(c)
    base = (1.0 + amplitude * prof) ** 4
    aniso = 1.0 + 0.5 * prof * np.cos(c.theta)[None, :] ** 2
    return metric_from_spec({"kind": "axisym", "a_rr": base,
                             "a_theta": base * aniso, "a_phi": base * aniso,
                             "decay": 2.0}, c)


def _table_metric(c, A=0.9, B=1.0):
    """The benchmark's table metric u0^4 flat, u0 = 1 + A s^2 (1 + B cos^2)."""
    mu = np.cos(c.theta)[None, :]
    t = (1.0 + A * (c.s ** 2)[:, None] * (1.0 + B * mu * mu)) ** 4
    return metric_from_spec({"kind": "axisym", "a_rr": t, "a_theta": t,
                             "a_phi": t, "decay": 2.0}, c)


def test_positivity_failure_is_loud(monkeypatch):
    # a strongly negative curvature bump makes the discrete problem
    # nonpositive; the solver must refuse rather than return an unphysical
    # metric
    with pytest.raises(PositivityError) as exc:
        solve_scalar_flat_dirichlet(_negative_bump_metric(monkeypatch))
    assert "Sobolev quotient" in str(exc.value)


def test_reduction_positivity_failure_is_loud(monkeypatch):
    # the mean-curvature reduction goes through the same factor solve and
    # positivity gate (its phi dips to about -0.49 here)
    g = _negative_bump_metric(monkeypatch)
    with pytest.raises(PositivityError) as exc:
        reduce_to_minimal(g)
    assert "Sobolev quotient" in str(exc.value)
    with pytest.raises(StageError) as exc:
        prescribe_mean_curvature(g, BoundaryField.constant(g.chart, 0.03))
    assert exc.value.stage == "reduce_to_minimal"
    assert isinstance(exc.value.cause, PositivityError)


@pytest.mark.parametrize("grid", [(121, 17), (241, 33), (481, 65)])
def test_large_anisotropic_bump_stays_positive(grid):
    # phi stays positive (min phi near 0.03) on every grid, so the solve
    # must succeed
    sol = solve_scalar_flat_dirichlet(
        _bump_metric(Chart.axisymmetric(*grid), 30.0))
    assert sol.report.extrema["min_phi"] > 0.0


CERTIFICATE_CASES = {
    "conformal-1-0-1-radial-401":
        lambda mp: metric_from_spec("conformal:1,0,1", Chart.radial(3, 401)),
    "conformal-1-0-60-radial-401":
        lambda mp: metric_from_spec("conformal:1,0,60", Chart.radial(3, 401)),
    "conformal-1-0.9-1.8-radial-1601":
        lambda mp: metric_from_spec("conformal:1,0.9,1.8",
                                    Chart.radial(3, 1601)),
    "bench-table-201x65": lambda mp: _table_metric(Chart.axisymmetric(201, 65)),
    "bump-3-121x17": lambda mp: _bump_metric(Chart.axisymmetric(121, 17), 3.0),
    "bump-30-121x17":
        lambda mp: _bump_metric(Chart.axisymmetric(121, 17), 30.0),
    "injected-negative-R-121x17": _negative_bump_metric,
}


@pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
def test_one_solve_certificate_agrees_with_sweep(case, monkeypatch):
    # the certificate behind solve_scalar_flat_dirichlet: the interior rows
    # of the family matrix have positive off-diagonals (lambda moves only
    # the diagonal), so min phi_1 > 0 certifies every lambda in [0, 1]
    g = CERTIFICATE_CASES[case](monkeypatch)
    A = assemble(_yamabe_linear_problem(g, 1.0)).matrix.tocoo()
    nt, N = g.chart.nt, g.chart.num_nodes
    off = (A.row != A.col) & (A.row >= nt) & (A.row < N - nt)
    assert np.all(A.data[off] > 0.0)
    try:
        solve_scalar_flat_dirichlet(g)
        certified = True
    except PositivityError:
        certified = False
    assert certified == (case != "injected-negative-R-121x17")
    assert certified == sweep_certificate(lambda_sweep(g, steps=11))


def test_lambda_sweep_flat_and_benchmark():
    c = Chart.radial(3, 151)
    for g in (flat_metric(c), metric_from_spec(BENCH, c)):
        sweep = lambda_sweep(g, steps=11)
        assert len(sweep) == 11
        assert sweep_certificate(sweep)
        lam0, min0, err0 = sweep[0]
        assert lam0 == 0.0 and err0 is None
        assert min0 == pytest.approx(1.0, abs=1e-12)  # phi_0 == 1 exactly


def test_lambda_sweep_endpoint_matches_solution():
    c = Chart.radial(3, 151)
    g = metric_from_spec(BENCH, c)
    sweep = lambda_sweep(g, steps=11)
    sol = solve_scalar_flat_dirichlet(g)
    assert sweep[-1][1] == pytest.approx(float(np.min(sol.phi.values)),
                                         abs=1e-8)


def test_sweep_reports_failures_in_place():
    sweep = [(0.0, 1.0, None), (0.5, None, "boom"), (1.0, 1.0, None)]
    assert not sweep_certificate(sweep)


def test_axisymmetric_dirichlet():
    c = Chart.axisymmetric(121, 33)
    a = 1.0 + 0.05 * (c.s ** 2)[:, None] * (1.0 + 0.3 * np.cos(c.theta) ** 2)
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    sol = solve_scalar_flat_dirichlet(g)
    assert sol.report.extrema["min_phi"] > 0.0
    assert sol.report.residuals["scalar_curvature_Linf_interior"] < 1e-8


def test_one_far_field_fit_per_metric(monkeypatch):
    # the table's decay fit serves both its declared rate and the
    # n - 2.5 check; the second fit is the report's decay block of phi
    c = Chart.axisymmetric(41, 9)
    a = 1.0 + 0.05 * (c.s ** 2)[:, None] * (1.0 + 0.3 * np.cos(c.theta) ** 2)
    fitted = []

    def counting_fit(u):
        fitted.append(u)
        return decay_fit(u)

    for module in (metrics, weighted):
        monkeypatch.setattr(module, "decay_fit", counting_fit)
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    assert len(fitted) == 1
    solve_scalar_flat_dirichlet(g)
    assert len(fitted) == 2


def test_dirichlet_and_sweep_build_operators_once(monkeypatch):
    c = Chart.axisymmetric(41, 9)
    a = 1.0 + 0.05 * (c.s ** 2)[:, None] * (1.0 + 0.3 * np.cos(c.theta) ** 2)
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    seen = {"build_laplace_matrix": [], "scalar_curvature": []}

    def counting(name):
        original = getattr(metrics, name)

        def wrapper(metric, *args, **kwargs):
            seen[name].append(metric)
            return original(metric, *args, **kwargs)
        return wrapper

    for name in seen:
        monkeypatch.setattr(metrics, name, counting(name))
    solve_scalar_flat_dirichlet(g)
    lambda_sweep(g, steps=11)
    assert sum(m is g for m in seen["build_laplace_matrix"]) == 1
    assert sum(m is g for m in seen["scalar_curvature"]) == 1
