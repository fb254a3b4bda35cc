import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from scalarflat import (AXISYM, RADIAL, BarrierError, BoundaryField, Chart,
                        NoSupersolutionError, ScalarField,
                        boundary_mean_curvature,
                        build_sub_super,
                        flat_metric, harmonic_unit, metric_from_spec,
                        monotone_iterate,
                        prescribe_mean_curvature, radial_mean_curvature,
                        reduce_to_minimal, rho_threshold, solve_nonlinear_robin)
import scalarflat.meancurv as meancurv
import scalarflat.metrics as metrics
from scalarflat.cli import parse_f
from scalarflat.elliptic import Factorization
from scalarflat.errors import SolveError, StageError
from scalarflat.meancurv import boundary_defect
from scalarflat.metrics import conformal_law_coefficient
from monotone_reference import full_grid_monotone_loop
import robin_reference
from robin_reference import (reference_harmonic_unit, reference_responses,
                             reference_system)


#: Picard stopping tolerance of the radial 1601 references: there the full
#: solve's rounding keeps Picard steps near 1e-12, so they never fall below
#: 1e-13; at a rate of 0.96 the stop leaves an error of a few 1e-11
REF_TOL_1601 = 1e-12


def assert_boundary_map_at_rounding(report):
    """max |F| within Newton's rounding stop, for f >= 0.  There x0, X and
    h are nonnegative and x0 + X h = u up to F, so the stop's scale
    max(|u| + |x0| + |X| |h|) is at most 2 max u_b."""
    bound = (meancurv.ROUNDING_ULPS * np.finfo(float).eps
             * 2.0 * report.extrema["u_boundary_max"])
    assert report.residuals["boundary_map_Linf"] <= bound


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


@pytest.mark.parametrize("beta", [150.0, 1000.0, 1e6, 1e300])
def test_rho_threshold_large_beta(beta):
    # (beta-1)^(beta-1) / beta^beta = (1 - 1/beta)^(beta-1) / beta, which
    # tends to 1/(e beta); the power form overflowed from beta ~ 144
    c = Chart.radial(3, 51)
    rho = rho_threshold(BoundaryField.constant(c, 1.0), beta).values[0]
    assert rho == pytest.approx(1.0 / (math.e * beta), rel=1.0 / beta)
    if beta <= 1000.0:  # exact in rationals
        b = int(beta)
        assert rho == pytest.approx(float(Fraction((b - 1) ** (b - 1),
                                                   b ** b)), rel=1e-14)


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


def _flat_pair_below_rho(share):
    """Pair on flat radial 201 for f = share * rho, nodewise."""
    c = Chart.radial(3, 201)
    v, dv = harmonic_unit(flat_metric(c))
    rho = rho_threshold(dv, 3.0).values
    return build_sub_super(v, dv, BoundaryField(c, share * rho), 3.0)


@pytest.mark.parametrize("make", [
    lambda: _pair(Chart.radial(3, 201), f=0.1)[0],
    lambda: _pair(Chart.radial(3, 201), f=-1.0)[0],
    lambda: _flat_pair_below_rho(0.99),
    lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6")[0],
], ids=["radial-201-f0.1", "radial-201-f-1", "radial-201-0.99rho",
        "axisym-81x17-mixed-sign"])
def test_pair_holds_by_construction(make):
    # build_sub_super checks only 0 <= v <= 1; the rest follows from how
    # it builds the pair, exactly and at every node
    pair = make()
    assert 0.0 < pair.alpha_minus <= 1.0 <= pair.alpha_plus
    assert np.all(pair.u_minus.values <= pair.u_plus.values)
    dv, fv = pair.dv_deta.values, pair.f.values
    assert np.all(boundary_defect(pair.alpha_minus, dv, fv, pair.beta) <= 0.0)
    assert np.all(boundary_defect(pair.alpha_plus, dv, fv, pair.beta) >= 0.0)
    # the s = 0 identity rows are eliminated first: v's limit is exact
    assert np.all(pair.v.values[0] == 0.0)


def test_build_sub_super_rejects_v_out_of_range():
    c = Chart.radial(3, 201)
    v, dv = harmonic_unit(flat_metric(c))
    f = BoundaryField.constant(c, 0.1)
    for bad in (v.values * 1.01, v.values - 0.5):
        with pytest.raises(BarrierError, match="0 < v <= 1"):
            build_sub_super(ScalarField(c, bad), dv, f, 3.0)


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
    assert_boundary_map_at_rounding(sol.report)
    assert sol.report.barrier["sandwich_margin_low"] >= -1e-9
    assert sol.report.barrier["sandwich_margin_high"] <= 1e-9
    incr = sol.report.iterations["increments"]
    assert all(x >= -1e-12 for x in incr)


def test_monotone_iteration_negative_f():
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    sol = solve_nonlinear_robin(g, BoundaryField.constant(c, -1.0), 3.0)
    a, _ = radial_mean_curvature(-1.0, 3.0, 3)
    assert np.max(np.abs(sol.u.values - (1.0 + a * c.s))) < 1e-5
    assert np.all(sol.u.values > 0.0)


def _report_keys(report):
    return {k: sorted(v) if isinstance(v, dict) else None
            for k, v in report.to_dict().items()}


@pytest.mark.parametrize("chart", [Chart.radial(3, 101),
                                   Chart.axisymmetric(41, 9)],
                         ids=["radial-101", "axisym-41x9"])
def test_zero_f_takes_no_newton_step(chart):
    # u_- = 1 already solves du/deta = 0: Newton stops before its first step
    g = flat_metric(chart)
    sol = solve_nonlinear_robin(g, BoundaryField.constant(chart, 0.0), 3.0)
    report = sol.report
    assert np.max(np.abs(sol.u.values - 1.0)) <= 1e-12
    assert report.iterations["monotone"] == 0
    assert report.iterations["increments"] == []
    assert report.barrier["min_increment"] is None
    assert_boundary_map_at_rounding(report)
    assert report.passed
    ref = solve_nonlinear_robin(g, BoundaryField.constant(chart, 0.1), 3.0)
    assert _report_keys(report) == _report_keys(ref.report)


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


def test_prescribe_mean_curvature_pipeline():
    c = Chart.radial(3, 201)
    target = BoundaryField.constant(c, -1.0)
    sol = prescribe_mean_curvature(flat_metric(c), target)
    assert sol.report.checks["target_H"]
    assert sol.report.residuals["target_H_Linf"] < 50 * c.ds
    H = boundary_mean_curvature(sol.metric)
    assert H.values[0] == pytest.approx(-1.0, abs=50 * c.ds)


def test_target_H_check_catches_a_wrong_datum(monkeypatch):
    # a Robin datum 30% too large misses the target by ~9e-3; the bound is
    # (n-1)^3 (1 + |target|)^2 h^2 = 2.1e-4 at n = 3, 201 nodes
    c = Chart.radial(3, 201)
    target = BoundaryField.constant(c, 0.03)
    sol = prescribe_mean_curvature(flat_metric(c), target)
    assert sol.report.checks["target_H"]
    real = meancurv.solve_nonlinear_robin
    monkeypatch.setattr(meancurv, "solve_nonlinear_robin",
                        lambda g, f, beta: real(
                            g, BoundaryField(c, 1.3 * f.values), beta))
    wrong = prescribe_mean_curvature(flat_metric(c), target)
    assert wrong.report.residuals["target_H_Linf"] > 5e-3
    assert wrong.report.checks["target_H"] is False


def test_target_H_check_passes_on_a_table_metric():
    # an anisotropic axisymmetric table metric: the error is second order,
    # 0.3-0.8 h^2 over these targets, against a bound of 8 (1 + |t|)^2 h^2
    c = Chart.axisymmetric(101, 17)
    s, mu = c.s[:, None], np.cos(c.theta)[None, :]
    u0 = (1.0 + 0.6 * s ** 2 * (1.0 + mu ** 2)) ** 4
    aniso = 1.0 + 0.5 * s ** 3 * (1.0 - mu ** 2)
    g = metric_from_spec({"kind": "axisym", "a_rr": u0,
                          "a_theta": u0 * aniso, "a_phi": u0 * aniso,
                          "decay": 2.0}, c)
    for t in (-1.0, 0.04):
        sol = prescribe_mean_curvature(g, BoundaryField.constant(c, t))
        assert sol.report.checks["target_H"]
        assert sol.report.residuals["target_H_Linf"] < 1.0 * c.ds ** 2


def test_pipeline_default_step_cap_reaches_bench_target():
    # t = 0.049 is the hardest bench stratum; Picard took 229 steps there,
    # Newton takes a few, well within the library default cap
    c = Chart.radial(3, 1601)
    g = metric_from_spec("conformal:1,0.8,0.8", c)
    sol = prescribe_mean_curvature(g, BoundaryField.constant(c, 0.049))
    assert sol.report.iterations["monotone"] <= 10
    assert sol.report.checks["target_H"]
    pair, _, (g, phi) = _pair(c, "conformal:1,0.8,0.8", target=0.049)
    u_ref = full_grid_monotone_loop(pair, g, tol=REF_TOL_1601, phi=phi)[0]
    assert np.max(np.abs(sol.u.values - u_ref.values)) <= 1e-10


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


def test_one_factorization_per_background(monkeypatch):
    # the barrier factors the harmonic system on g once; the boundary map
    # and the final solve reuse that LU, whatever the weight c
    c = Chart.radial(3, 201)
    calls = {"assemble": 0, "Factorization": 0}

    def counting(name):
        original = getattr(meancurv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(meancurv, name, counting(name))
    solve_nonlinear_robin(flat_metric(c), BoundaryField.constant(c, 0.1), 3.0)
    assert calls == {"assemble": 1, "Factorization": 1}
    g = flat_metric(c)
    v, dv = harmonic_unit(g)
    assert calls == {"assemble": 2, "Factorization": 2}
    pair = build_sub_super(v, dv, BoundaryField.constant(c, 0.1), 3.0)
    sol = monotone_iterate(pair, g)
    assert calls == {"assemble": 2, "Factorization": 2}
    u_ref = full_grid_monotone_loop(pair, g, tol=1e-13)[0]
    assert np.max(np.abs(sol.u.values - u_ref.values)) <= 1e-10
    # f >= 0: Newton from the subsolution increases at every step
    barrier = sol.report.barrier
    assert -1e-9 <= barrier["min_increment"] <= min(
        sol.report.iterations["increments"])
    assert "monotone" not in barrier
    assert_boundary_map_at_rounding(sol.report)
    # a pair whose weight is above 1 reuses the LU too
    neg = build_sub_super(v, dv, BoundaryField.constant(c, -1.0), 3.0)
    assert meancurv.stabilization_weight(neg) > 1.0
    monotone_iterate(neg, g)
    assert calls == {"assemble": 2, "Factorization": 2}


@pytest.mark.parametrize("chart", [Chart.radial(3, 201),
                                   Chart.axisymmetric(101, 33)],
                         ids=["radial-201", "axisym-101x33"])
def test_one_factorization_per_target_job(monkeypatch, chart):
    # a target job factors the reduction's system and reads every later
    # stage off that LU: g's Laplacian is built for it, the minimal
    # background's never; the chart's flat Laplacian is per-grid data,
    # built before counting
    metrics.flat_laplacian(chart)
    calls = {"Factorization": 0, "build_laplace_matrix": 0}
    init = Factorization.__init__
    build = metrics.build_laplace_matrix

    def counting_init(self, *args, **kwargs):
        calls["Factorization"] += 1
        init(self, *args, **kwargs)

    def counting_build(g):
        calls["build_laplace_matrix"] += 1
        return build(g)

    monkeypatch.setattr(Factorization, "__init__", counting_init)
    monkeypatch.setattr(metrics, "build_laplace_matrix", counting_build)
    g = metric_from_spec("conformal:1,0.8,0.8", chart)
    sol = prescribe_mean_curvature(g, BoundaryField.constant(chart, 0.035))
    assert all(sol.report.checks.values())
    assert calls["Factorization"] == 1
    assert calls["build_laplace_matrix"] <= 1


def _pair(chart, spec="flat", f=None, target=None):
    """Barrier pair (beta = 3) and background of the monotone stage: on the
    reduced metric for a target mean curvature, else on the metric itself;
    and the (metric, phi) the references pose it on: the metric and the
    reduction's phi, or the metric itself and None."""
    g = metric_from_spec(spec, chart)
    background, base = g, (g, None)
    if target is not None:
        background, phi, _ = reduce_to_minimal(g)
        base = (g, phi)
        f = target / conformal_law_coefficient(3)
    v, dv = harmonic_unit(background)
    return build_sub_super(v, dv, parse_f(f, chart), 3.0), background, base


@pytest.mark.parametrize("make,ref_tol", [
    (lambda: _pair(Chart.radial(3, 1601), "conformal:1,0.8,0.8",
                   target=0.049), REF_TOL_1601),
    (lambda: _pair(Chart.radial(3, 201), f=0.1), 1e-13),
    (lambda: _pair(Chart.axisymmetric(201, 33), f="cos:0.05,0.02"), 1e-13),
    (lambda: _pair(Chart.axisymmetric(41, 9), target=-1.0), 1e-13),
    (lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6"), 1e-13),
    (lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-1,1.05"), 1e-13),
], ids=["radial-1601-t0.049", "radial-201-f0.1", "axisym-201x33-cos",
        "axisym-41x9-target-1", "axisym-81x17-mixed-sign",
        "axisym-81x17-mixed-sign-wide"])
def test_boundary_iteration_matches_full_grid_loop(make, ref_tol):
    # Picard stops ~20 tol short of its fixed point, so the reference runs
    # at a tolerance far below the 1e-10 bound
    pair, g, (metric, phi) = make()
    sol = monotone_iterate(pair, g)
    u_ref = full_grid_monotone_loop(pair, metric, tol=ref_tol, phi=phi)[0]
    report = sol.report
    assert report.iterations["monotone"] <= 10
    assert len(report.iterations["increments"]) == \
        report.iterations["monotone"]
    assert np.max(np.abs(sol.u.values - u_ref.values)) <= 1e-10
    assert report.residuals["boundary_map_Linf"] <= 1e-14
    assert report.barrier["alpha_minus"] == pair.alpha_minus
    assert report.barrier["alpha_plus"] == pair.alpha_plus
    assert report.barrier["fold_margin"] > 0.0
    assert all(report.checks.values())
    fv = pair.f.values
    if np.all(fv >= 0.0):  # h convex: Newton from u_- increases
        assert report.barrier["min_increment"] >= -1e-9
    if np.any(fv < 0.0) and np.any(fv > 0.0):  # its first step decreases
        assert report.barrier["min_increment"] < -1e-3


@pytest.mark.parametrize("t,c1,c2", [
    (0.021, 0.5, 0.5), (0.028, 1.0, 0.2), (0.035, 0.2, 1.0),
    (0.042, 0.4, 0.6), (0.049, 0.8, 0.8)])
def test_newton_steps_on_bench_strata(t, c1, c2):
    # the centres of the meancurv bench strata, which took 150-370 Picard
    # steps
    c = Chart.radial(3, 1601)
    g = metric_from_spec(f"conformal:1,{c1},{c2}", c)
    sol = prescribe_mean_curvature(g, BoundaryField.constant(c, t))
    assert sol.report.iterations["monotone"] <= 10
    assert all(sol.report.checks.values())


def test_newton_converges_next_to_the_fold():
    # Picard hit its 500-step cap at t = 0.072 and 0.0735 (the fold of the
    # closed form is 2/27 = 0.0741); the Jacobian's smallest singular value
    # shrinks toward it
    c = Chart.radial(3, 1601)
    g = metric_from_spec("conformal:1,0.8,0.8", c)
    margins = []
    for t in (0.049, 0.072, 0.0735):
        sol = prescribe_mean_curvature(g, BoundaryField.constant(c, t))
        assert sol.report.iterations["monotone"] <= 10
        assert all(sol.report.checks.values())
        margins.append(sol.report.barrier["fold_margin"])
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_stabilization_weight_covers_negative_f():
    # where f < 0, f u^beta decreases at rate beta |f| u^(beta-1); the
    # weight must dominate it at max u_+ too, or h is not increasing
    pair, _, _ = _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6")
    hi = float(np.max(pair.u_plus.values))
    assert meancurv.stabilization_weight(pair) >= 3.0 * 0.5 * hi ** 2.0


@pytest.mark.parametrize("make", [
    lambda: _pair(Chart.radial(3, 201), f=0.1),
    lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6"),
], ids=["radial-201-f0.1", "axisym-81x17-mixed-sign"])
def test_weight_only_certifies(monkeypatch, make):
    # Newton and the final solve run on the boundary map D alone, so a
    # larger weight changes only the certificate, which it passes too
    pair, g, _ = make()
    sol = monotone_iterate(pair, g)
    weight = meancurv.stabilization_weight
    monkeypatch.setattr(meancurv, "stabilization_weight",
                        lambda pair: 2.0 * weight(pair))
    doubled = monotone_iterate(pair, g)
    assert np.array_equal(doubled.u.values, sol.u.values)
    reports = [r.to_dict() for r in (sol.report, doubled.report)]
    for r in reports:
        r.pop("timing")
    assert reports[0] == reports[1]


def test_blocked_responses_match_one_block(monkeypatch):
    # the reference's unit-data columns solved 3 at a time, keeping only
    # their boundary rows, give the x0_b and X_b of the one-block solve
    chart = Chart.axisymmetric(41, 9)
    N, nt = chart.num_nodes, chart.nt
    system = reference_system(flat_metric(chart), 2.0)
    lu = Factorization(system)
    x0, X, solves = robin_reference.boundary_responses(lu, system.rhs, nt,
                                                       1e-11, 1e-9)
    widths = []
    solve = Factorization.solve

    def counting(self, rhs, tol=1e-10):
        widths.append(np.shape(rhs)[1])
        return solve(self, rhs, tol=tol)

    monkeypatch.setattr(Factorization, "solve", counting)
    monkeypatch.setattr(robin_reference, "BLOCK_VALUES", 3 * N)
    x0_b, X_b, solves_b = robin_reference.boundary_responses(
        lu, system.rhs, nt, 1e-11, 1e-9)
    assert widths == [3, 3, 3, 1]
    assert solves_b == solves == 2 * (nt + 1)
    assert np.max(np.abs(x0_b - x0)) <= 1e-13
    assert np.max(np.abs(X_b - X)) <= 1e-13
    assert np.min(X) > 0.0


@pytest.mark.parametrize("chart,f", [
    (Chart.radial(3, 41), -1.0), (Chart.radial(3, 201), -1.0),
    (Chart.radial(3, 201), 0.1),
    (Chart.axisymmetric(201, 33), "cos:0.05,0.02")],
    ids=["radial-41", "radial-201-1-step", "radial-201-4-steps", "axisym"])
def test_monotone_iterate_linear_count(monkeypatch, chart, f):
    # two full solves for the final u, whatever the step count: the second
    # takes its r = 1 values to u_b
    pair, g, _ = _pair(chart, f=f)
    calls = []
    solve = Factorization.solve

    def counting(self, rhs, tol=1e-10):
        calls.append(np.shape(rhs))
        return solve(self, rhs, tol=tol)

    monkeypatch.setattr(Factorization, "solve", counting)
    sol = monotone_iterate(pair, g)
    assert calls == [(chart.num_nodes,)] * 2
    assert "corrections" not in sol.report.iterations
    assert sol.report.iterations["linear"] == 4


def test_negative_robin_response_raises():
    pair, g, _ = _pair(Chart.axisymmetric(41, 9), f=0.1)
    bmap = meancurv.boundary_map(g)
    shift = meancurv.stabilization_weight(pair) * np.eye(bmap.D.shape[0])
    bad = np.linalg.inv(bmap.D + shift)
    bad[3, 5] = -1e-6  # a response the barrier gate did not see
    g.boundary_map = dataclasses.replace(bmap, D=np.linalg.inv(bad) - shift)
    with pytest.raises(SolveError, match="Robin response"):
        monotone_iterate(pair, g)


@pytest.mark.parametrize("field", ["lu", "phi", "D", "data"])
def test_boundary_map_is_frozen(field):
    # one map per metric, shared by every stage of a job: no stage may
    # swap a field of it
    g = flat_metric(Chart.axisymmetric(41, 9))
    bmap = meancurv.boundary_map(g)
    assert meancurv.boundary_map(g) is bmap
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(bmap, field, None)
    assert not bmap.D.flags.writeable and not bmap.data.flags.writeable


def test_stage_tags_name_the_failing_stage(monkeypatch):
    # an inaccurate X_b fails the barrier, not Newton
    inverse = Factorization.boundary_inverse
    monkeypatch.setattr(Factorization, "boundary_inverse",
                        lambda self: inverse(self) * (1.0 + 1e-6))
    c = Chart.axisymmetric(41, 9)
    with pytest.raises(StageError) as exc:
        prescribe_mean_curvature(flat_metric(c),
                                 BoundaryField.constant(c, -1.0))
    assert exc.value.stage == "harmonic_unit"
    assert "boundary block X_b" in str(exc.value)


def test_inaccurate_boundary_block_raises(monkeypatch):
    # X_b comes from no gated solve: the barrier's r = 1 values catch it
    inverse = Factorization.boundary_inverse
    monkeypatch.setattr(Factorization, "boundary_inverse",
                        lambda self: inverse(self) * (1.0 + 1e-6))
    with pytest.raises(SolveError, match="boundary block X_b"):
        harmonic_unit(flat_metric(Chart.axisymmetric(41, 9)))


@pytest.mark.parametrize("make", [
    lambda: _pair(Chart.radial(3, 201), f=0.1),
    lambda: _pair(Chart.radial(3, 1601), "conformal:1,0.8,0.8",
                  target=0.049),
    lambda: _pair(Chart.axisymmetric(41, 9), target=-1.0),
    lambda: _pair(Chart.axisymmetric(201, 33), f="cos:0.05,0.02"),
    lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6"),
], ids=["radial-201", "radial-1601", "axisym-41x9", "axisym-201x33",
        "axisym-81x17"])
def test_barrier_and_responses_match_references(make):
    # v and dv/deta of the Dirichlet system; the certificate's
    # X_b(c) = (D + c I)^-1 and x0_b(c) = 1 - c X_b(c) 1 (constants solve
    # the problem with datum c) for the pair's weight and one above it,
    # against nt + 1 refined solves each; the reference's full N x nt
    # responses pass X >= -slack too
    pair, g, (metric, phi) = make()
    v_ref, dv_ref = reference_harmonic_unit(metric, phi)
    assert np.max(np.abs(pair.v.values - v_ref.values)) <= 1e-11
    assert (np.max(np.abs(pair.dv_deta.values - dv_ref.values))
            <= 1e-11 * np.max(np.abs(dv_ref.values)))
    D = meancurv.boundary_map(g).D
    for c in (meancurv.stabilization_weight(pair), 2.5):
        X = np.linalg.inv(D + c * np.eye(D.shape[0]))
        x0_ref, X_ref = reference_responses(metric, c, phi, slack=1e-9)
        assert np.max(np.abs(1.0 - c * X.sum(axis=1) - x0_ref)) <= 1e-11
        assert np.max(np.abs(X - X_ref)) <= 1e-11 * np.max(np.abs(X_ref))


@pytest.mark.parametrize("make", [
    lambda: _pair(Chart.radial(3, 1601), "conformal:1,0.8,0.8",
                  target=0.049),
    lambda: _pair(Chart.axisymmetric(81, 17), f="cos:-0.5,0.6"),
], ids=["radial-1601-t0.049", "axisym-81x17-mixed-sign"])
def test_sandwich_margins_are_informative(make):
    # over s > 0 the answer sits strictly between the barriers; the s = 0
    # row, where all three are 1, would pin both margins at 0.0
    pair, g, _ = make()
    barrier = monotone_iterate(pair, g).report.barrier
    assert barrier["sandwich_margin_low"] > 0.0 > barrier[
        "sandwich_margin_high"]
