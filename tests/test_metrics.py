import math

import numpy as np
import pytest
import scipy.sparse as sp

from scalarflat import (Chart, ChartError, DecayError, MetricError,
                        PositivityError, ScalarField, boundary_mean_curvature,
                        check_asymptotic_flatness, conformal_transform,
                        flat_metric, laplace_beltrami, metric_from_spec,
                        normal_derivative, scalar_curvature)
from scalarflat.weighted import WeightedNormSpec, weighted_norm
from scalarflat import chart as chart_mod
from scalarflat import metrics
from scalarflat.metrics import (build_laplace_matrix, conformal_law_coefficient,
                                conformal_metric)

from laplace_reference import loop_laplace_matrix


def conf(chart, coeffs):
    return metric_from_spec({"kind": "conformal", "coeffs": coeffs}, chart)


def test_metric_spec_grammar():
    c = Chart.radial(3, 11)
    flat = metric_from_spec("flat", c)
    assert flat.conformal_base is None and flat.conformal_phi is not None
    g = metric_from_spec("conformal:1,0.5", c)
    assert g.u0_coeffs == (1.0, 0.5)
    assert g.conformal_phi.values[-1] == pytest.approx(1.5)
    with pytest.raises(MetricError):
        metric_from_spec("garbage", c)
    with pytest.raises(MetricError):
        metric_from_spec("conformal:2,0", c)  # must tend to 1


def test_metric_positivity_rejected():
    c = Chart.radial(3, 11)
    with pytest.raises(MetricError):
        conformal_metric(c, np.linspace(-0.1, 1.0, 11))


def test_axisym_spec_decay_check():
    c = Chart.axisymmetric(101, 9)
    good = 1.0 + 0.1 * (c.s ** 2)[:, None] * np.ones((1, 9))
    g = metric_from_spec({"kind": "axisym", "a_rr": good, "a_theta": good,
                          "a_phi": good, "decay": 2.0}, c)
    assert g.chart is c
    slow = 1.0 + 0.1 * (c.s ** 0.5)[:, None] * np.ones((1, 9))
    with pytest.raises(DecayError) as exc:
        metric_from_spec({"kind": "axisym", "a_rr": slow, "a_theta": slow,
                          "a_phi": slow, "decay": 2.0}, c)
    assert exc.value.measured_rate is not None
    assert exc.value.measured_rate < 1.0


def test_laplace_flat_harmonic():
    # Delta (1/r) = 0 on the flat background for n=3
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    u = ScalarField(c, c.s.copy())
    lap = laplace_beltrami(g, u).values
    assert np.max(np.abs(lap)) < 1e-9


def test_laplace_flat_r_minus_2():
    # Delta (r^-2) = 2 r^-4 for n=3
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    lap = laplace_beltrami(g, ScalarField(c, c.s ** 2)).values
    assert np.max(np.abs(lap - 2.0 * c.s ** 4)) < 1e-9


def test_laplace_dimension_term():
    # n=4: Delta (r^-2) = 0 (harmonic in 4d)
    c = Chart.radial(4, 201)
    g = flat_metric(c)
    lap = laplace_beltrami(g, ScalarField(c, c.s ** 2)).values
    # conservative interior rows are exact; the one-sided boundary row
    # carries the usual O(h^2) truncation
    assert np.max(np.abs(lap[:-1])) < 1e-9
    assert abs(lap[-1]) < 1e-3


def test_laplace_matrix_s0_row_zero():
    c = Chart.radial(3, 51)
    L = build_laplace_matrix(flat_metric(c))
    assert L[0].nnz == 0


def axisym_table_metric(chart):
    # distinct a_rr, a_theta, a_phi that vary in s and theta, so every
    # coefficient of the stencil, poles and r = 1 row included, differs
    s, th = chart.s[:, None], chart.theta[None, :]
    a = (1.0 + 0.3 * s ** 2 * (1.0 + np.cos(th) ** 2)) ** 4
    return metric_from_spec({"kind": "axisym", "a_rr": a,
                             "a_theta": a * (1.0 + 0.2 * s ** 2),
                             "a_phi": a * (1.0 + 0.1 * s ** 2 * np.cos(th)),
                             "decay": 2.0}, chart)


@pytest.mark.parametrize("make", [
    lambda: flat_metric(Chart.radial(3, 41)),
    lambda: flat_metric(Chart.radial(4, 41)),
    lambda: conf(Chart.radial(3, 41), [1.0, 0.4, 0.7]),
    lambda: axisym_table_metric(Chart.axisymmetric(41, 13)),
], ids=["flat-n3", "flat-n4", "conformal", "axisym-table"])
def test_laplace_matrix_matches_loop_reference(make):
    g = make()
    L, ref = build_laplace_matrix(g), loop_laplace_matrix(g)
    L.sort_indices()
    ref.sort_indices()
    assert np.array_equal(L.indptr, ref.indptr)
    assert np.array_equal(L.indices, ref.indices)
    scale = np.maximum(abs(ref).max(axis=1).toarray(), 1e-300)
    rel = abs(L - ref).max(axis=1).toarray() / scale
    assert rel.max() <= 1e-14
    if g.chart.mode == "axisymmetric-2D":
        # the pole columns and the r = 1 row are populated in both
        nt = g.chart.theta.size
        rows = np.diff(ref.indptr).reshape(g.chart.shape)
        assert rows[1:, 0].min() > 0 and rows[1:, -1].min() > 0
        assert rows[-1].tolist() == [5] + [6] * (nt - 2) + [5]


@pytest.mark.parametrize("chart,spec", [
    (Chart.radial(3, 41), "flat"), (Chart.radial(3, 41), "conformal:1,0.4,0.7"),
    (Chart.radial(5, 41), "flat"), (Chart.radial(5, 41), "conformal:1,0.4,0.7"),
    (Chart.axisymmetric(41, 9), "flat"),
    (Chart.axisymmetric(41, 9), "conformal:1,0.4,0.7"),
    (Chart.axisymmetric(41, 9), "table"),
    (Chart.axisymmetric(201, 65), "conformal:1,0.4,0.7"),
    (Chart.axisymmetric(201, 65), "table"),
], ids=["radial-n3-flat", "radial-n3-conformal", "radial-n5-flat",
        "radial-n5-conformal", "41x9-flat", "41x9-conformal", "41x9-table",
        "201x65-conformal", "201x65-table"])
def test_laplace_matrix_is_bitwise_the_coo_build(chart, spec):
    # the values summed into the chart's layout are the CSR arrays of
    # scipy's COO-to-CSR conversion of the same entries, on the chart's
    # first Laplacian (which builds the layout) and on a later one
    g = (axisym_table_metric(chart) if spec == "table"
         else metric_from_spec(spec, chart))
    rows, cols, vals = metrics._laplace_entries(g)
    N = chart.num_nodes
    ref = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate([r.ravel() for r in rows]),
                          np.concatenate([c.ravel() for c in cols]))),
                        shape=(N, N))
    chart.layouts.pop("laplacian", None)
    for _ in range(2):
        L = build_laplace_matrix(g)
        assert L.indptr.dtype == ref.indptr.dtype
        assert L.indices.dtype == ref.indices.dtype
        assert np.array_equal(L.indptr, ref.indptr)
        assert np.array_equal(L.indices, ref.indices)
        assert np.array_equal(L.data.view(np.int64), ref.data.view(np.int64))
        # every Laplacian on the chart shares the chart's index arrays
        slot, indptr, indices = chart.layouts["laplacian"]
        assert np.shares_memory(L.indptr, indptr)
        assert np.shares_memory(L.indices, indices)


def test_density_takes_each_power_first():
    # a_theta a_phi overflows before its square root: the density of these
    # finite components is 1e300, and its radial form keeps its bits
    comps = np.full((2, 3), 1e200)
    assert np.all(np.isfinite(metrics._density(comps, 3)))
    assert metrics._density(comps, 3)[0] == pytest.approx(1e300, rel=1e-14)
    radial = np.array([[2.0, 3.0], [1e100, 7.0]])
    for n in (3, 5, 10):
        ref = np.sqrt(radial[:, 0]) * radial[:, 1] ** ((n - 1) / 2.0)
        assert np.array_equal(metrics._density(radial, n), ref)


def test_laplace_matrix_needs_four_s_nodes():
    with pytest.raises(ChartError):
        build_laplace_matrix(flat_metric(Chart.radial(3, 3)))


def test_flat_laplacian_built_once_per_chart(monkeypatch):
    built = []
    original = metrics.build_laplace_matrix

    def counting(g):
        built.append(g)
        return original(g)

    monkeypatch.setattr(metrics, "build_laplace_matrix", counting)
    chart_mod._interned.cache_clear()  # a new chart, not one built before
    c = Chart.radial(3, 51)
    for coeffs in ([1.0, 0.3], [1.0, 0.0, 0.5]):
        conf(c, coeffs).scalar_curvature
    conformal_transform(conf(c, [1.0, 0.3]),
                        ScalarField(c, 1.0 + c.s)).scalar_curvature
    assert len(built) == 1


def test_flat_laplacian_orders():
    # Delta r^-3 = (9 - 3(n-1)) r^-5 = 6 s^5 for n = 3, to second order
    c = Chart.radial(3, 101)
    u0 = 1.0 + c.s ** 3
    lap2 = metrics.flat_laplacian(c) @ u0
    exact = 6.0 * c.s ** 5
    assert np.max(np.abs(lap2 - exact)) < 5e-3


def test_mean_curvature_flat():
    for n, target in ((3, -2.0), (4, -3.0)):
        c = Chart.radial(n, 401)
        H = boundary_mean_curvature(flat_metric(c))
        assert H.values[0] == pytest.approx(target, abs=5e-4)


def test_mean_curvature_schwarzschild_minimal():
    # u0 = 1 + 1/r, n=3: the boundary r=1 is a minimal surface (H=0)
    c = Chart.radial(3, 801)
    g = conf(c, [1.0, 1.0])
    H = boundary_mean_curvature(g)
    assert abs(H.values[0]) < 5e-3


def test_axisym_diagnostics_equal_radial_on_theta_independent_metric():
    # radial mode is the grid with one theta column, so a metric without
    # theta dependence gives the radial values exactly in every column
    cr, ca = Chart.radial(3, 201), Chart.axisymmetric(201, 17)
    gr = metric_from_spec("conformal:1,0.5,0.5", cr)
    ga = metric_from_spec("conformal:1,0.5,0.5", ca)
    assert np.array_equal(boundary_mean_curvature(ga).values,
                          np.full(17, boundary_mean_curvature(gr).values[0]))
    assert check_asymptotic_flatness(ga) == check_asymptotic_flatness(gr)
    sup = WeightedNormSpec(math.inf, -0.5)
    assert (weighted_norm(ScalarField(ca, ga.conformal_phi.values - 1.0), sup)
            == weighted_norm(ScalarField(cr, gr.conformal_phi.values - 1.0),
                             sup))


def test_conformal_mean_curvature_prediction():
    # the sum-convention law H~ = u^{-n/(n-2)} (c_n du/deta + H u) for
    # u^{4/(n-2)} g matches the direct computation
    c = Chart.radial(3, 801)
    g = flat_metric(c)
    u = ScalarField(c, 1.0 + 0.3 * c.s)
    ub = u.boundary_values()[0]
    pred = ub ** -3.0 * (conformal_law_coefficient(3)
                         * normal_derivative(g, u).values[0]
                         + boundary_mean_curvature(g).values[0] * ub)
    direct = boundary_mean_curvature(conformal_transform(g, u)).values[0]
    assert pred == pytest.approx(direct, abs=5e-3)


def test_conformal_law_coefficient():
    assert conformal_law_coefficient(3) == pytest.approx(4.0)
    assert conformal_law_coefficient(4) == pytest.approx(3.0)


def test_scalar_curvature_conformally_flat():
    # u0 = 1 + r^-2, n=3: R = -8 u0^-5 * 2 r^-4
    c = Chart.radial(3, 201)
    g = conf(c, [1.0, 0.0, 1.0])
    R = scalar_curvature(g).values
    u0 = 1.0 + c.s ** 2
    exact = -8.0 * u0 ** -5.0 * 2.0 * c.s ** 4
    assert np.max(np.abs(R - exact)) < 1e-9


def test_scalar_curvature_harmonic_u0_is_zero():
    c = Chart.radial(3, 201)
    g = conf(c, [1.0, 0.5])
    assert np.max(np.abs(scalar_curvature(g).values)) < 1e-9


def test_scalar_curvature_christoffel_flat():
    c = Chart.axisymmetric(61, 17)
    ones = np.ones(c.shape)
    g = metric_from_spec({"kind": "axisym", "a_rr": ones, "a_theta": ones,
                          "a_phi": ones, "decay": 2.0}, c)
    assert g.conformal_phi is None
    assert np.max(np.abs(scalar_curvature(g).values)) < 1e-9


def test_scalar_curvature_christoffel_vs_conformal():
    # same metric through the table path and the conformal identity
    c = Chart.axisymmetric(121, 33)
    u0 = 1.0 + (c.s ** 2)[:, None] * np.ones((1, 33))
    a = u0 ** 4
    g_tab = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                              "a_phi": a, "decay": 2.0}, c)
    R_tab = scalar_curvature(g_tab).values
    exact = -8.0 * u0 ** -5.0 * 2.0 * (c.s ** 4)[:, None]
    interior = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(R_tab - exact)[interior]) < 5e-3


def test_table_curvature_is_second_order():
    # table path on the bench metric u0^4 flat, u0 = 1 + A s^2 (1 + B cos^2),
    # against R = -8 u0^-5 Delta u0 with
    # Delta u0 = A s^4 (2 + B (2/3 - (8/3) P2)); poles and r = 1 included
    A, B = 0.9, 1.0
    errors = []
    for ns, nt in ((101, 33), (201, 65), (401, 129)):
        c = Chart.axisymmetric(ns, nt)
        s2, cos2 = (c.s ** 2)[:, None], np.cos(c.theta)[None, :] ** 2
        u0 = 1.0 + A * s2 * (1.0 + B * cos2)
        a = u0 ** 4
        g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                              "a_phi": a, "decay": 2.0}, c)
        p2 = 1.5 * cos2 - 0.5
        lap = A * s2 ** 2 * (2.0 + B * (2.0 / 3.0 - 8.0 / 3.0 * p2))
        exact = -8.0 * u0 ** -5.0 * lap
        errors.append(np.max(np.abs(scalar_curvature(g).values - exact)[1:]))
    assert errors[1] <= 2e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert math.log2(coarse / fine) >= 1.8, errors


def test_conformal_transform_bookkeeping():
    c = Chart.radial(3, 51)
    g = conf(c, [1.0, 1.0])
    phi = ScalarField(c, 1.0 + 0.2 * c.s)
    gt = conformal_transform(g, phi)
    assert gt.conformal_base is None
    assert np.allclose(gt.conformal_phi.values,
                       g.conformal_phi.values * phi.values)
    with pytest.raises(PositivityError):
        conformal_transform(g, ScalarField(c, np.linspace(-1, 1, 51)))


def test_conformal_transform_records_base():
    c = Chart.axisymmetric(61, 9)
    a = 1.0 + 0.1 * (c.s ** 2)[:, None] * np.ones((1, 9))
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    phi = ScalarField(c, np.ones(c.shape))
    gt = conformal_transform(g, phi)
    assert gt.conformal_base is g
    # identity factor: curvature must agree with the base's
    R0 = scalar_curvature(g).values
    R1 = scalar_curvature(gt).values
    assert np.max(np.abs(R0 - R1)) < 1e-10


def test_conformal_transform_folds_into_table_base():
    # a second change multiplies the stored factor instead of stacking a
    # new base, so R follows from the table metric in one step
    c = Chart.axisymmetric(61, 9)
    a = 1.0 + 0.1 * (c.s ** 2)[:, None] * np.ones((1, 9))
    g = metric_from_spec({"kind": "axisym", "a_rr": a, "a_theta": a,
                          "a_phi": a, "decay": 2.0}, c)
    phi1 = ScalarField(c, 1.0 + 0.2 * (c.s ** 2)[:, None] * np.ones((1, 9)))
    phi2 = ScalarField(c, 1.0 + 0.1 * c.s[:, None] * np.cos(c.theta)[None])
    twice = conformal_transform(conformal_transform(g, phi1), phi2)
    once = conformal_transform(g, ScalarField(c, phi1.values * phi2.values))
    assert twice.conformal_base is g
    assert np.array_equal(twice.conformal_phi.values,
                          phi1.values * phi2.values)
    assert np.array_equal(scalar_curvature(twice).values,
                          scalar_curvature(once).values)


def test_normal_derivative_sign():
    # u = 1 - 1/r grows toward infinity; du/deta < 0 (eta points inward,
    # away from infinity)... the convention: du/deta = du/(-dr) at r=1
    c = Chart.radial(3, 201)
    g = flat_metric(c)
    v = ScalarField(c, c.s.copy())  # v = 1/r, increasing toward boundary
    dv = normal_derivative(g, v)
    assert dv.values[0] == pytest.approx(1.0, abs=1e-6)


def test_check_asymptotic_flatness():
    c = Chart.radial(3, 201)
    check_asymptotic_flatness(flat_metric(c))
    check_asymptotic_flatness(conf(c, [1.0, 0.5]))
    slow = conformal_metric(c, 1.0 + 0.5 * c.s ** 0.1)
    with pytest.raises(DecayError):
        check_asymptotic_flatness(slow)
