import numpy as np
import pytest

from scalarflat import (AXISYM, RADIAL, BarrierError, BoundaryField, Chart,
                        NoSupersolutionError, boundary_mean_curvature,
                        build_sub_super,
                        flat_metric, harmonic_unit, metric_from_spec,
                        monotone_iterate,
                        prescribe_mean_curvature, radial_mean_curvature,
                        reduce_to_minimal, rho_threshold, solve_nonlinear_robin)
import scalarflat.meancurv as meancurv
from scalarflat.meancurv import boundary_defect, datum_coefficient


def test_harmonic_unit_flat_n3():
    c = Chart.radial(3, 201)
    v, dv = harmonic_unit(flat_metric(c))
    assert np.max(np.abs(v.values - c.s)) < 1e-9
    assert dv.values[0] == pytest.approx(1.0, abs=5 * c.ds)


def test_harmonic_unit_flat_n4():
    c = Chart.radial(4, 201)
    v, dv = harmonic_unit(flat_metric(c))
    assert np.max(np.abs(v.values - c.s ** 2)) < 1e-8
    assert dv.values[0] == pytest.approx(2.0, abs=5 * c.ds)


def test_rho_threshold_formula():
    c = Chart.radial(3, 51)
    rho = rho_threshold(BoundaryField.constant(c, 1.0), 3.0)
    assert rho.values[0] == pytest.approx(4.0 / 27.0, abs=1e-12)
    assert rho_threshold(BoundaryField.constant(c, 1.0), 1.0) is None
    with pytest.raises(BarrierError):
        rho_threshold(BoundaryField.constant(c, -1.0), 3.0)


def test_boundary_defect_signs():
    # alpha = 1: defect = -f
    assert boundary_defect(1.0, 1.0, 0.1, 3.0) == pytest.approx(-0.1)
    # supersolution parameter beta/(beta-1) has nonnegative defect below rho
    alpha_p = 1.5
    assert boundary_defect(alpha_p, 1.0, 0.9 * 4.0 / 27.0, 3.0) > 0


def test_build_sub_super_flat():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    f = BoundaryField.constant(c, 0.1)
    pair = build_sub_super(v, dv, f, 3.0)
    assert pair.alpha_minus == pytest.approx(1.0)
    assert pair.alpha_plus == pytest.approx(1.5)
    assert np.all(pair.u_minus.values <= pair.u_plus.values + 1e-12)


def test_build_sub_super_negative_f_bisects():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    pair = build_sub_super(v, dv, BoundaryField.constant(c, -1.0), 3.0)
    assert 0.0 < pair.alpha_minus < 1.0
    assert pair.alpha_plus == pytest.approx(2.0)


def test_no_supersolution_above_rho():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    with pytest.raises(NoSupersolutionError) as exc:
        build_sub_super(v, dv, BoundaryField.constant(c, 0.16), 3.0)
    assert exc.value.rho_min == pytest.approx(4.0 / 27.0, abs=1e-3)
    assert exc.value.f_max == pytest.approx(0.16)
    assert "not a nonexistence proof" in str(exc.value)


def test_no_supersolution_sublinear_beta_positive_f():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    with pytest.raises(NoSupersolutionError):
        build_sub_super(v, dv, BoundaryField.constant(c, 0.5), 0.5)


def test_monotone_iteration_benchmark():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    sol = solve_nonlinear_robin(g, BoundaryField.constant(c, 0.1), 3.0)
    a, _ = radial_mean_curvature(0.1, 3.0, 3)
    assert np.max(np.abs(sol.u.values - (1.0 + a * c.s))) < 1e-6
    assert sol.report.checks["monotone"]
    assert sol.report.checks["sandwich"]
    incr = sol.report.iterations["increments"]
    assert all(x >= -1e-12 for x in incr)


def test_monotone_iteration_negative_f():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    sol = solve_nonlinear_robin(g, BoundaryField.constant(c, -1.0), 3.0)
    a, _ = radial_mean_curvature(-1.0, 3.0, 3)
    assert np.max(np.abs(sol.u.values - (1.0 + a * c.s))) < 1e-5
    assert np.all(sol.u.values > 0.0)


def test_zero_f_shortcut():
    c = Chart.radial(3, 101)
    sol = solve_nonlinear_robin(flat_metric(c),
                                BoundaryField.constant(c, 0.0), 3.0)
    assert np.all(sol.u.values == 1.0)
    assert sol.report.iterations["monotone"] == 1


def test_robin_residual_small():
    c = Chart.radial(3, 201)
    sol = solve_nonlinear_robin(flat_metric(c),
                                BoundaryField.constant(c, 0.1), 3.0)
    assert sol.report.residuals["robin_Linf"] < 10 * c.ds


def test_reduce_to_minimal_flat():
    # flat n=3: H = -2; the reduction factor is phi = 1 + 1/r
    # (Schwarzschild with minimal boundary)
    c = Chart.radial(3, 201)
    ghat, phi, report = reduce_to_minimal(flat_metric(c))
    assert np.max(np.abs(phi.values - (1.0 + c.s))) < 1e-4
    assert report.residuals["boundary_H_Linf"] < 1e-4
    H = boundary_mean_curvature(ghat)
    assert np.max(np.abs(H.values)) < 1e-4


def test_datum_coefficient_conventions():
    assert datum_coefficient(3, "transformation-law") == pytest.approx(0.25)
    assert datum_coefficient(3, "paper-eq7") == pytest.approx(1.0 / 3.0)
    assert datum_coefficient(4, "transformation-law") == pytest.approx(1.0 / 3.0)
    with pytest.raises(Exception):
        datum_coefficient(3, "bogus")


def test_prescribe_mean_curvature_pipeline():
    c = Chart.radial(3, 201)
    target = BoundaryField.constant(c, -1.0)
    sol = prescribe_mean_curvature(flat_metric(c), target)
    assert sol.report.checks["target_H"]
    assert sol.report.residuals["target_H_Linf"] < 50 * c.ds
    H = boundary_mean_curvature(sol.metric)
    assert H.values[0] == pytest.approx(-1.0, abs=50 * c.ds)


def test_pipeline_default_step_cap_reaches_bench_target():
    # t = 0.049 is near the largest feasible mean curvature; the monotone
    # iteration takes 229 steps, within the library default cap
    c = Chart.radial(3, 1601)
    g = metric_from_spec("conformal:1,0.8,0.8", c)
    sol = prescribe_mean_curvature(g, BoundaryField.constant(c, 0.049))
    assert sol.report.iterations["monotone"] == 229
    assert sol.report.checks["target_H"]


def test_axisym_pipeline_matches_radial_on_theta_independent_metric():
    sols = {}
    for c in (Chart.radial(3, 201), Chart.axisymmetric(201, 33)):
        g = metric_from_spec("conformal:1,0.5,0.5", c)
        sols[c.mode] = prescribe_mean_curvature(
            g, BoundaryField.constant(c, 0.03))
    rad, ax = sols[RADIAL], sols[AXISYM]
    assert (ax.report.iterations["monotone"]
            == rad.report.iterations["monotone"])
    assert np.max(np.abs(ax.u.values - rad.u.values[:, None])) < 1e-10


def test_monotone_iterate_validates_pair():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    pair = build_sub_super(v, dv, BoundaryField.constant(c, 0.1), 3.0)
    sol = monotone_iterate(pair, g)
    assert sol.pair is pair
    assert sol.report.barrier["alpha_plus"] == pytest.approx(1.5)
    assert sol.report.barrier["rho_min"] == pytest.approx(4.0 / 27.0,
                                                          abs=1e-3)


def test_monotone_iterate_factorizes_once(monkeypatch):
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    pair = build_sub_super(v, dv, BoundaryField.constant(c, 0.1), 3.0)
    calls = {"assemble": 0, "Factorization": 0}

    def counting(name):
        original = getattr(meancurv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(meancurv, name, counting(name))
    sol = monotone_iterate(pair, g)
    assert sol.report.iterations["monotone"] > 10
    assert calls == {"assemble": 1, "Factorization": 1}
    # the smallest nodal increment over all steps backs the monotone check
    barrier = sol.report.barrier
    assert -1e-9 <= barrier["min_increment"] <= min(
        sol.report.iterations["increments"])
    assert barrier["monotone"] and sol.report.checks["monotone"]
