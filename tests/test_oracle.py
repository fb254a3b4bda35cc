import math

import numpy as np
import pytest

from scalarflat import (SolveError, mean_curvature_root_threshold,
                        radial_dirichlet_yamabe, radial_mean_curvature)


def test_yamabe_closed_form():
    s = np.linspace(0.0, 1.0, 201)
    phi = radial_dirichlet_yamabe((1.0, 0.0, 1.0), 3, s)  # u0 = 1 + r^-2
    exact = (1.0 + s) / (1.0 + s ** 2)
    assert np.max(np.abs(phi - exact)) < 1e-13
    # n = 4, u0 = 1 + r^-1 + r^-2: phi u0 = 1 + 2 r^-2
    phi4 = radial_dirichlet_yamabe((1.0, 1.0, 1.0), 4, s)
    assert np.max(np.abs(phi4 - (1.0 + 2.0 * s ** 2) / (1.0 + s + s ** 2))) \
        < 1e-13
    assert phi[0] == 1.0 and phi4[-1] == 1.0


def test_yamabe_rejects_bad_u0():
    s = np.linspace(0.0, 1.0, 11)
    with pytest.raises(SolveError):
        radial_dirichlet_yamabe((2.0,), 3, s)  # limit is not 1
    with pytest.raises(SolveError):
        radial_dirichlet_yamabe((1.0, -3.0), 3, s)  # u0 <= 0 near r = 1


def test_threshold_value():
    assert mean_curvature_root_threshold(3.0) == pytest.approx(4.0 / 27.0,
                                                               abs=1e-15)
    assert math.isinf(mean_curvature_root_threshold(1.0))


def test_threshold_matches_maximization():
    # max_a a/(1+a)^beta by brute scan
    for beta in (2.0, 3.0, 4.5):
        a = np.linspace(1e-6, 50.0, 2000001)
        brute = np.max(a / (1.0 + a) ** beta)
        # the brute scan resolves the quadratic maximum to ~(da)^2
        assert mean_curvature_root_threshold(beta) == pytest.approx(
            brute, rel=1e-8)


def test_mean_curvature_roots():
    a, profile = radial_mean_curvature(0.1, 3.0, 3)
    assert 1.0 * a == pytest.approx(0.1 * (1.0 + a) ** 3, abs=1e-11)
    assert profile(1.0) == pytest.approx(1.0 + a)
    assert profile(float("inf")) == pytest.approx(1.0)


def test_mean_curvature_negative_f():
    a, _ = radial_mean_curvature(-1.0, 3.0, 3)
    # x = 1 + a solves x^3 + x - 1 = 0
    x = 1.0 + a
    assert x ** 3 + x - 1.0 == pytest.approx(0.0, abs=1e-11)
    assert -1.0 < a < 0.0


def test_mean_curvature_no_root_above_threshold():
    assert radial_mean_curvature(0.16, 3.0, 3) is None


def test_mean_curvature_zero_f():
    a, _ = radial_mean_curvature(0.0, 3.0, 3)
    assert a == 0.0


def test_mean_curvature_beta_guard():
    with pytest.raises(ValueError):
        radial_mean_curvature(0.1, -1.0, 3)


@pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
def test_mean_curvature_rejects_non_finite_f(f):
    # a NaN f used to bisect to the root a = 0
    with pytest.raises(ValueError):
        radial_mean_curvature(f, 3.0, 3)


def test_mean_curvature_sublinear_beta():
    # beta <= 1 with positive f always has a root
    a, _ = radial_mean_curvature(0.5, 1.0, 3)
    assert a == pytest.approx(0.5 * (1.0 + a), abs=1e-10)


def test_dimension_dependence():
    # n=4: a * 2 = f (1+a)^beta
    a, _ = radial_mean_curvature(0.1, 3.0, 4)
    assert 2.0 * a == pytest.approx(0.1 * (1.0 + a) ** 3, abs=1e-11)


#: 198 beta in (1.05, 8); the parent's Newton missed a* = 1/(beta - 1) by
#: 4.1e-6 at beta = 1.2595477386934673, the threshold's double root
THRESHOLD_BETAS = np.linspace(1.05, 8.0, 200)[1:-1]


@pytest.mark.parametrize("n", [3, 4])
def test_root_at_threshold_is_closed_form(n):
    assert 1.2595477386934673 in THRESHOLD_BETAS
    for beta in THRESHOLD_BETAS:
        f = (n - 2) * mean_curvature_root_threshold(beta)
        a, _ = radial_mean_curvature(f, beta, n)
        assert a == 1.0 / (beta - 1.0), beta
        assert radial_mean_curvature(f * (1.0 + 1e-15), beta, n) is None


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 4.5])
@pytest.mark.parametrize("share", [None, 0.1, 0.5, 0.99])
def test_root_solves_equation(share, beta, n):
    # share * the threshold of f/(n-2), which is 1 at beta = 1 and is
    # replaced by that scale at beta < 1, where none exists; None is f = -1
    m = n - 2.0
    f = -1.0 if share is None else share * m * min(
        mean_curvature_root_threshold(beta), 1.0)
    a, _ = radial_mean_curvature(f, beta, n)
    terms = abs(m * a) + abs(f) * (1.0 + a) ** beta
    assert abs(m * a - f * (1.0 + a) ** beta) <= 1e-12 * terms
    if f < 0.0:
        assert -1.0 < a < 0.0
    else:
        assert 0.0 < a <= (1.0 / (beta - 1.0) if beta > 1.0 else math.inf)
