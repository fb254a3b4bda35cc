import copy
import math
import pickle

import numpy as np
import pytest

from scalarflat import BoundaryField, Chart, ChartError, ScalarField
import scalarflat.chart as chart_mod
from scalarflat.chart import BAND_NT, sphere_area
from scalarflat.metrics import flat_laplacian


def test_sphere_area_values():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


def test_radial_chart_basic():
    c = Chart.radial(3, 11)
    assert c.shape == (11,)
    assert c.mode == "radial-1D"
    assert c.s[0] == 0.0 and c.s[-1] == 1.0
    assert np.isinf(c.r[0]) and c.r[-1] == 1.0
    assert c.ds == pytest.approx(0.1)


def test_axisym_chart_basic():
    c = Chart.axisymmetric(11, 5)
    assert c.shape == (11, 5)
    assert c.boundary_shape == (5,)
    assert c.theta[0] == 0.0 and c.theta[-1] == pytest.approx(math.pi)


def test_chart_validation():
    # the counts are checked before the intern table is looked up: 41.0
    # hashes like the cached 41-node chart, and a list cannot be hashed
    Chart(3, 41)
    Chart(3, 41, 9)
    for n in (2, 3.0, "x", None, [3]):
        with pytest.raises(ChartError):
            Chart(n, 41)
    for num_s in (2, 0, -4, 10.5, 41.0, "41", None, [41]):
        with pytest.raises(ChartError):
            Chart(3, num_s)
    for num_theta in (2, 9.0, "9", [9]):
        with pytest.raises(ChartError):
            Chart(3, 41, num_theta)
    with pytest.raises(ChartError):
        # axisymmetric mode is n=3 only
        Chart(4, 5, 5)


def test_chart_rejects_dimensions_that_overflow():
    # gamma(n/2) of the sphere area overflows from n = 344; on 201 nodes
    # the Laplacian's s^(1-n) at s = ds/2 overflows from n = 120
    for n, num_s in ((400, 3), (400, 201), (120, 201)):
        with pytest.raises(ChartError, match=f"n = {n} .* num_s = {num_s}"):
            Chart(n, num_s)
    # the largest n that builds on 201 nodes evaluates its weights and
    # flat Laplacian without overflow
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        c = Chart(119, 201)
        assert np.all(np.isfinite(c.weights))
        assert np.all(np.isfinite(flat_laplacian(c).data))


def test_chart_rejects_counts_beyond_superlu_indices(monkeypatch):
    # the Laplacian stores (ns - 2)(5 nt - 2) + 6 nt - 2 entries, which
    # SuperLU's 32-bit indices hold up to 2^31 - 1; rejected before any
    # array is built, and counts at the bound are handed on to be built
    # (here to a stand-in that builds nothing)
    for ns, nt in ((41, 1), (4, 3), (41, 9), (201, 65)):
        c = Chart(3, ns) if nt == 1 else Chart(3, ns, nt)
        assert flat_laplacian(c).nnz == (ns - 2) * (5 * nt - 2) + 6 * nt - 2
    for counts in ((3, 715827884), (3, 41, 10683999), (3, 10 ** 20),
                   (3, 41, 99999999999)):
        with pytest.raises(ChartError, match="32-bit"):
            Chart(*counts)
    monkeypatch.setattr(chart_mod, "_interned", lambda cls, *key: key)
    for counts in ((3, 715827883), (3, 41, 10683998)):
        assert Chart(*counts) == counts


@pytest.mark.parametrize("counts", [(3, 11), (5, 1601), (3, 201, 65)],
                         ids=["radial-11", "radial-1601", "axisym-201x65"])
def test_nodes_are_linspace(counts):
    # the steps are the nodes' first entries, which are their exact spacing
    c = Chart(*counts)
    assert np.array_equal(c.s, np.linspace(0.0, 1.0, counts[1]))
    assert c.ds == c.s[1]
    if len(counts) == 3:
        assert np.array_equal(c.theta, np.linspace(0.0, math.pi, counts[2]))
        assert c.dtheta == c.theta[1]


def test_chart_equality_and_hash():
    a = Chart.radial(3, 21)
    b = Chart.radial(3, 21)
    c = Chart.radial(3, 22)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_charts_are_interned():
    a = Chart.radial(3, 21)
    assert Chart(3, np.int64(21)) is a and Chart(3, 21) is a
    assert Chart.axisymmetric(21, 5) is Chart(3, 21, 5)
    assert Chart.radial(4, 21) is not a
    for c in (a, Chart.axisymmetric(21, 5)):
        assert pickle.loads(pickle.dumps(c)) is c
        assert copy.copy(c) is c and copy.deepcopy(c) is c
    # a chart pushed out of the table is rebuilt as a new instance, equal
    # to the one a caller still holds
    for num_s in range(22, 22 + chart_mod.CHART_CACHE_SIZE):
        Chart.radial(3, num_s)
    b = Chart.radial(3, 21)
    assert b is not a and b == a and hash(b) == hash(a)
    assert Chart.radial(3, 21) is b


@pytest.mark.parametrize("chart", [Chart.radial(3, 21),
                                   Chart.axisymmetric(21, 17)],
                         ids=["radial", "axisym"])
def test_shared_chart_data_is_read_only(chart):
    # every job on a grid reads these arrays, so an in-place edit raises
    # instead of reaching the next job
    lap = flat_laplacian(chart)
    arrays = [chart.s, chart.r, chart.s_col, chart.weights,
              chart.boundary_last_order, lap.data, lap.indices, lap.indptr]
    if chart.theta is not None:
        arrays.append(chart.theta)
    for a in arrays:
        with pytest.raises(ValueError):
            a[-1] = 0
    k = chart.num_nodes // 2  # an interior node, which has a diagonal
    with pytest.raises(ValueError):
        lap[k, k] = 5.0
    assert flat_laplacian(chart) is lap


def test_weights_shell_volume():
    # volume of {1 <= r <= 2} = 4/3 pi (8 - 1)
    c = Chart.radial(3, 2001)
    ind = np.where(c.r <= 2.0, 1.0, 0.0)
    vol = float(np.sum(c.weights * ind))
    exact = 4.0 / 3.0 * math.pi * 7.0
    assert vol == pytest.approx(exact, rel=5e-3)


def test_axisym_weights_sum_to_radial_weights():
    # each s level's ring weights add up to the radial shell weight; the
    # theta trapezoid rule for the integral of sin converges at O(h_theta^2)
    cr = Chart.radial(3, 201)
    ca = Chart.axisymmetric(201, 33)
    rows = np.sum(ca.weights, axis=1)
    assert rows[0] == 0.0 and cr.weights[0] == 0.0
    assert np.max(np.abs(rows[1:] / cr.weights[1:] - 1.0)) < 1e-3


def test_sphere_mean():
    cr = Chart.radial(3, 51)
    v = np.sin(3.0 * cr.s)
    assert np.array_equal(cr.sphere_mean(v), v)
    ca = Chart.axisymmetric(51, 33)
    mu = np.cos(ca.theta)[None, :]
    vals = cr.s[:, None] * (2.0 + mu + (1.5 * mu * mu - 0.5))
    mean = ca.sphere_mean(vals)
    assert mean.shape == (51,)
    # the l >= 1 parts average out up to the theta quadrature error
    assert np.max(np.abs(mean - 2.0 * cr.s)) < 2e-3
    assert np.allclose(ca.sphere_mean(np.full(ca.shape, 3.0)), 3.0,
                       rtol=1e-15, atol=0.0)


def test_d_ds_orders():
    c = Chart.radial(3, 101)
    v = np.sin(2.0 * c.s)
    exact = 2.0 * np.cos(2.0 * c.s)
    e2 = np.max(np.abs(c.d_ds(v) - exact))
    assert e2 < 1e-3


def test_d_dr_vanishes_at_infinity():
    c = Chart.radial(3, 101)
    v = 1.0 + c.s  # u = 1 + 1/r
    dr = c.d_dr(v)
    assert dr[0] == 0.0
    # du/dr = -1/r^2 = -s^2
    assert np.max(np.abs(dr[1:] + c.s[1:] ** 2)) < 1e-10


def test_d_dtheta_pole_reflection():
    c = Chart.axisymmetric(5, 33)
    v = np.cos(c.theta)[None, :] * np.ones((5, 1))
    dt = c.d_dtheta(v)
    assert np.all(dt[:, 0] == 0.0) and np.all(dt[:, -1] == 0.0)
    mid = slice(1, -1)
    assert np.max(np.abs(dt[:, mid] + np.sin(c.theta)[None, mid])) < 5e-3


def test_field_shape_validation():
    c = Chart.radial(3, 11)
    with pytest.raises(ChartError):
        ScalarField(c, np.ones(7))
    with pytest.raises(ChartError):
        ScalarField(c, np.full(11, np.nan))
    with pytest.raises(ChartError):
        BoundaryField(c, np.ones(3))


def test_boundary_field_constant():
    c = Chart.axisymmetric(7, 9)
    b = BoundaryField.constant(c, 2.5)
    assert b.values.shape == (9,)
    assert np.all(b.values == 2.5)


@pytest.mark.parametrize("chart", [Chart.radial(3, 41),
                                   Chart.axisymmetric(41, 9),
                                   Chart.axisymmetric(41, 13),
                                   Chart.axisymmetric(201, 65)],
                         ids=["radial", "axisym-41x9", "axisym-41x13",
                              "axisym-201x65"])
def test_boundary_last_order(chart):
    # a permutation with the s = 0 level first and the last three levels
    # last, in natural order; natural up to BAND_NT nodes across, else the
    # middle level of the rest of the interior is the last separator of the
    # dissection
    order = chart.boundary_last_order
    N, nt = chart.num_nodes, chart.nt
    assert np.array_equal(np.sort(order), np.arange(N))
    assert np.array_equal(order[:nt], np.arange(nt))
    assert np.array_equal(order[-3 * nt:], np.arange(N - 3 * nt, N))
    if nt <= BAND_NT:
        assert np.array_equal(order, np.arange(N))
    else:
        middle = 1 + (chart.s.size - 4) // 2
        assert np.array_equal(order[-4 * nt:-3 * nt],
                              np.arange(middle * nt, (middle + 1) * nt))
    assert chart.boundary_last_order is order
    assert not order.flags.writeable


def test_evicted_chart_rebuilds_its_layouts():
    # the layouts go with the chart: a chart pushed out of the table is
    # rebuilt with none, builds its own again on its first job, and that
    # job writes what the job on the first instance wrote
    from scalarflat import metric_from_spec, solve_scalar_flat_dirichlet

    def solve(chart):
        g = metric_from_spec("conformal:1,0.3,0.6", chart)
        return solve_scalar_flat_dirichlet(g).phi.values

    a = Chart.axisymmetric(41, 9)
    phi = solve(a)
    assert {"laplacian", ("system", "dirichlet"),
            (("system", "dirichlet"), "lu-order")} <= a.layouts.keys()
    for num_s in range(1000, 1000 + chart_mod.CHART_CACHE_SIZE):
        Chart.radial(3, num_s)
    b = Chart.axisymmetric(41, 9)
    assert b is not a and b.layouts == {}
    assert np.array_equal(solve(b).view(np.int64), phi.view(np.int64))
    assert b.layouts.keys() == a.layouts.keys()
    assert all(b.layouts[key] is not a.layouts[key] for key in a.layouts)
