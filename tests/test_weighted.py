import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarflat import (Chart, ChartError, InvalidNormSpec, ScalarField,
                        WeightedNormSpec, decay_fit, flat_metric,
                        mass_coefficient, solve_scalar_flat_dirichlet,
                        weighted_norm)
from scalarflat.weighted import MIN_S_NODES

CHART = Chart.radial(3, 201)


def field(values):
    return ScalarField(CHART, values)


# -- norm specs -------------------------------------------------------------

def test_spec_str():
    # str names the report's residual keys, e.g. scalar_curvature_L(2,-2.5)
    assert str(WeightedNormSpec(2, -2.5)) == "L(2,-2.5)"
    assert str(WeightedNormSpec(math.inf, 0)) == "L(inf,0)"


def test_spec_validation():
    with pytest.raises(InvalidNormSpec):
        WeightedNormSpec(p=0.5, delta=0.0)


# -- analytic examples ------------------------------------------------------

def test_sup_norm_r_inverse():
    # u = 1/r, p=inf, delta=-1: r^{1} * r^{-1} = 1 everywhere
    u = field(CHART.s.copy())
    spec = WeightedNormSpec(p=math.inf, delta=-1.0)
    assert weighted_norm(u, spec) == pytest.approx(1.0, abs=1e-12)


def test_l2_norm_sqrt_2pi():
    # u = r^-2, p=2, delta=-1: norm^2 = 4 pi int_1^inf r^-3 dr = 2 pi
    c = Chart.radial(3, 4001)
    u = ScalarField(c, c.s ** 2)
    spec = WeightedNormSpec(p=2, delta=-1.0)
    assert weighted_norm(u, spec) == pytest.approx(math.sqrt(2.0 * math.pi),
                                                   rel=1e-5)


def test_zero_field():
    z = field(np.zeros(CHART.shape))
    for spec in (WeightedNormSpec(1, 0.0), WeightedNormSpec(2, -1.0),
                 WeightedNormSpec(math.inf, 2.0)):
        assert weighted_norm(z, spec) == 0.0


def test_quadrature_convergence():
    # u = r^-2.5, p=2, delta=-1: norm^2 = 4 pi int_0^1 s^2 ds = 4 pi / 3
    exact = math.sqrt(4.0 * math.pi / 3.0)
    spec = WeightedNormSpec(p=2, delta=-1.0)
    errs = []
    for num in (101, 201, 401):
        c = Chart.radial(3, num)
        errs.append(abs(weighted_norm(ScalarField(c, c.s ** 2.5), spec)
                        - exact))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


# -- property tests ---------------------------------------------------------

amplitudes = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=3, max_size=3)


def make_field(amps):
    a, b, c = amps
    return field(a * CHART.s + b * CHART.s ** 2 + c * np.sin(3 * CHART.s))


@settings(max_examples=100, deadline=None)
@given(amps=amplitudes,
       scale=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
       p=st.sampled_from([1.0, 2.0, math.inf]),
       delta=st.floats(min_value=-3.0, max_value=3.0))
def test_homogeneity(amps, scale, p, delta):
    u = make_field(amps)
    spec = WeightedNormSpec(p=p, delta=delta)
    lhs = weighted_norm(field(scale * u.values), spec)
    rhs = abs(scale) * weighted_norm(u, spec)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(amps=amplitudes,
       p=st.sampled_from([1.0, 2.0, math.inf]),
       d1=st.floats(min_value=-3.0, max_value=3.0),
       gap=st.floats(min_value=0.0, max_value=3.0))
def test_delta_monotonicity(amps, p, d1, gap):
    # supported in r >= 1: smaller delta means a larger (or equal) norm
    u = make_field(amps)
    lo = weighted_norm(u, WeightedNormSpec(p=p, delta=d1))
    hi = weighted_norm(u, WeightedNormSpec(p=p, delta=d1 + gap))
    assert lo >= hi - 1e-12 * max(1.0, abs(hi))


@settings(max_examples=100, deadline=None)
@given(a1=amplitudes, a2=amplitudes,
       p=st.sampled_from([1.0, 2.0, math.inf]),
       delta=st.floats(min_value=-2.0, max_value=2.0))
def test_triangle_inequality(a1, a2, p, delta):
    u, v = make_field(a1), make_field(a2)
    spec = WeightedNormSpec(p=p, delta=delta)
    s = weighted_norm(field(u.values + v.values), spec)
    assert s <= weighted_norm(u, spec) + weighted_norm(v, spec) + 1e-10


@pytest.mark.parametrize("n, num_s", [(3, 201), (100, 201), (119, 201),
                                      (150, 41)])
def test_dirichlet_norm_of_large_n(n, num_s):
    # the Dirichlet report's L(2, 0.5 - n) norm of R: weights * integrand
    # overflowed for n >= 81 on 201 nodes (the norm read "inf"), while a
    # log-space sum of the same terms is finite
    sol = solve_scalar_flat_dirichlet(flat_metric(Chart.radial(n, num_s)))
    c, R = sol.phi.chart, np.abs(sol.metric.scalar_curvature.values)
    spec = WeightedNormSpec(2, 0.5 - n)
    got = weighted_norm(ScalarField(c, R), spec)
    keep = (c.weights > 0) & (R > 0)
    logs = (np.log(c.weights[keep]) + 2.0 * np.log(R[keep])
            + (2.0 * spec.delta + n) * np.log(c.s[keep]))
    top = np.max(logs)
    reference = math.exp(0.5 * (top + math.log(np.sum(np.exp(logs - top)))))
    assert got == pytest.approx(reference, rel=1e-12)
    if n == 3:  # the direct sum is finite: at most 4 ulps from it
        direct = float(np.sum(c.weights * R ** 2 * c.s_pow(1.0 - n, 0.0))
                       ** 0.5)
        assert abs(got - direct) <= 4 * math.ulp(direct)


# -- decay fits -------------------------------------------------------------

def test_decay_fit_exact_member():
    u = field(1.0 + CHART.s)  # 1 + 1/r
    fit = decay_fit(u)
    assert fit.status == "ok"
    assert fit.u_inf == pytest.approx(1.0, abs=1e-12)
    assert fit.a == pytest.approx(1.0, rel=1e-8)
    assert fit.q == pytest.approx(1.0, rel=1e-8)
    assert fit.residual < 1e-10


def test_decay_fit_with_tail_correction():
    c = Chart.radial(3, 200)
    u = ScalarField(c, 1.0 + 2.0 * c.s + 5.0 * c.s ** 3)  # 1 + 2/r + 5/r^3
    fit = decay_fit(u)
    assert fit.status == "ok"
    assert fit.u_inf == pytest.approx(1.0, abs=1e-12)
    assert fit.a == pytest.approx(2.0, rel=0.01)
    assert fit.q == pytest.approx(1.0, rel=0.01)


def test_decay_fit_constant():
    fit = decay_fit(field(np.ones(CHART.shape)))
    assert fit.status == "constant"
    assert fit.a == 0.0


def test_decay_fit_no_decay():
    # values growing toward infinity: log fit gives q <= 0
    vals = 1.0 + np.where(CHART.s > 0, np.where(CHART.s > 0, CHART.s, 1.0)
                          ** -0.5, 0.0)
    vals[0] = 0.0
    fit = decay_fit(ScalarField(CHART, vals))
    assert fit.status == "no-decay"


def test_min_s_nodes_is_the_decay_window_minimum():
    # the CLI's grid minimum is the fewest nodes decay_fit accepts
    c = Chart.radial(3, MIN_S_NODES)
    assert decay_fit(ScalarField(c, c.s)).status == "ok"
    c = Chart.radial(3, MIN_S_NODES - 1)
    with pytest.raises(ChartError):
        decay_fit(ScalarField(c, c.s))


def test_mass_coefficient_schwarzschild():
    # phi = 1 + (m/2) r^{2-n} with m = 2: the stencil is exact on it, so
    # only rounding, amplified by h^{2-n}, is left
    phi = field(1.0 + CHART.s)
    assert mass_coefficient(phi) == pytest.approx(2.0, rel=1e-10)
    for n in (3, 4, 5):
        c = Chart.radial(n, 201)
        phi = ScalarField(c, 1.0 + c.s ** (n - 2))
        assert mass_coefficient(phi) == pytest.approx(2.0, rel=1e-8)


def test_mass_coefficient_is_second_order():
    # the n = 3 stencil is exact on quadratics, and a c_3 s^3 term moves m
    # by -4 c_3 h^2
    c = Chart.radial(3, 101)
    assert mass_coefficient(ScalarField(c, 1.0 + c.s + c.s ** 2)) == \
        pytest.approx(2.0, rel=1e-10)
    for num in (101, 201):
        ci = Chart.radial(3, num)
        m = mass_coefficient(ScalarField(ci, 1.0 + ci.s + ci.s ** 3))
        assert m - 2.0 == pytest.approx(-4.0 * ci.ds ** 2, rel=1e-6)


def test_far_field_diagnostics_on_axisym_chart():
    # phi - 1 = s + s^2 P2(cos theta): the l = 2 part has zero sphere mean
    c = Chart.axisymmetric(201, 33)
    mu = np.cos(c.theta)[None, :]
    s = c.s[:, None]
    phi = ScalarField(c, 1.0 + s + s * s * (1.5 * mu * mu - 0.5))
    assert mass_coefficient(phi) == pytest.approx(2.0, abs=1e-3)
    fit = decay_fit(ScalarField(c, phi.values - 1.0))
    assert fit.status == "ok"
    assert fit.q == pytest.approx(1.0, rel=1e-3)
