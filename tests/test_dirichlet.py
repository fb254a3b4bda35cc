import numpy as np
import pytest

from scalarflat import (Chart, PositivityError, ScalarField, flat_metric,
                        lambda_sweep, metric_from_spec, scalar_curvature,
                        solve_scalar_flat_dirichlet, sweep_certificate)
import scalarflat.metrics as metrics

BENCH = {"kind": "conformal", "coeffs": [1.0, 0.0, 1.0]}  # u0 = 1 + r^-2


def test_flat_identity():
    c = Chart.radial(3, 201)
    sol = solve_scalar_flat_dirichlet(flat_metric(c))
    assert np.max(np.abs(sol.phi.values - 1.0)) <= 1e-10
    assert sol.report.checks["phi_positive"]
    assert sol.report.checks["boundary_exact"]


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


def test_positivity_failure_is_loud(monkeypatch):
    # a strongly negative curvature bump makes the discrete problem
    # nonpositive (min phi = -0.85); the solver must refuse rather than
    # return an unphysical metric
    c = Chart.axisymmetric(121, 17)
    R = ScalarField(c, -50.0 * _bump_profile(c))
    monkeypatch.setattr(metrics.MetricField, "scalar_curvature",
                        lambda self, order=2: R)
    with pytest.raises(PositivityError) as exc:
        solve_scalar_flat_dirichlet(flat_metric(c))
    assert "Sobolev quotient" in str(exc.value)


@pytest.mark.parametrize("grid", [(121, 17), (241, 33), (481, 65)])
def test_large_anisotropic_bump_stays_positive(grid):
    # u^4 with u = 1 + 30 prof, made anisotropic: phi stays positive
    # (min phi near 0.03) on every grid, so the solve must succeed
    c = Chart.axisymmetric(*grid)
    prof = _bump_profile(c)
    base = (1.0 + 30.0 * prof) ** 4
    aniso = 1.0 + 0.5 * prof * np.cos(c.theta)[None, :] ** 2
    g = metric_from_spec({"kind": "axisym", "a_rr": base,
                          "a_theta": base * aniso, "a_phi": base * aniso,
                          "decay": 2.0}, c)
    sol = solve_scalar_flat_dirichlet(g)
    assert sol.report.extrema["min_phi"] > 0.0


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
    assert sol.report.checks["phi_positive"]
    assert sol.report.residuals["scalar_curvature_Linf_interior"] < 1e-8


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
