"""Closed-form radial references for the two problems.

Both are exact, so they share no discretization with the main solver: the
Dirichlet factor of a conformally flat radial metric is a harmonic
interpolant over u0, and the radial mean-curvature solution reduces to a
scalar root find.  The oracle mode, ``convergence-study`` and the tests
check the solver against them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolveError


def radial_dirichlet_yamabe(coeffs, n: int, s, tol: float = 1e-10):
    """Scalar-flattening conformal factor for g = u0^{4/(n-2)} * flat, with
    u0(r) = sum_k c_k r^{-k} = sum_k c_k s^k, at the nodes s = 1/r in [0, 1].

    Uses the identity that phi*u0 must be flat-harmonic when the transformed
    metric is scalar-flat and conformally flat: with phi(1) = 1 and
    phi -> 1, the product is the unique harmonic interpolant
    1 + (u0(1) - 1) r^{2-n}.  Returns phi at s.
    """
    s = np.asarray(s, dtype=float)
    u0 = np.polynomial.polynomial.polyval(s, coeffs)
    if np.any(u0 <= 0):
        raise SolveError("u0 must be positive")
    if abs(coeffs[0] - 1.0) > tol:
        raise SolveError("u0 must tend to 1 at infinity")
    return (1.0 + (sum(coeffs) - 1.0) * s ** (n - 2)) / u0  # u0(1) = sum c_k


def mean_curvature_root_threshold(beta: float):
    """max_{a>0} a / (1+a)^beta, the radial solvability threshold for f."""
    if beta <= 1:
        return math.inf
    a_star = 1.0 / (beta - 1.0)
    return a_star / (1.0 + a_star) ** beta


def radial_mean_curvature(f: float, beta: float, n: int,
                          tol: float = 1e-12):
    """Radial solution u = 1 + a r^{2-n} of the nonlinear Robin problem.

    Solves a (n-2) = f (1+a)^beta by safeguarded Newton for the root closest
    to 0 on the physical branch (u > 0).  Returns (a, profile callable) or
    None when no root exists on that branch.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    m = float(n - 2)

    def g(a):
        return m * a - f * (1.0 + a) ** beta

    def gp(a):
        return m - f * beta * (1.0 + a) ** (beta - 1.0)

    if f == 0.0:
        a = 0.0
    elif f > 0.0:
        if beta > 1 and f / m > mean_curvature_root_threshold(beta):
            return None
        # root in (0, a_crit]; bracket then bisect/Newton
        hi = 1.0 / (beta - 1.0) if beta > 1 else 1.0
        while beta <= 1 and g(hi) <= 0:
            hi *= 2.0
            if hi > 1e12:
                return None
        a = _safeguarded_newton(g, gp, 0.0, hi, tol)
    else:
        # f < 0: root in (-1, 0)
        a = _safeguarded_newton(g, gp, -1.0 + 1e-14, 0.0, tol)
    if a is None:
        return None

    def profile(r):
        return 1.0 + a * r ** (2.0 - n)

    return a, profile


def _safeguarded_newton(g, gp, lo, hi, tol, max_iter=200):
    """Newton iteration with bisection fallback on a sign-change bracket."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        # threshold (double-root) case: look for a tangency via the
        # stationary point of g
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda a: abs(g(a)), bounds=(lo, hi),
                              method="bounded",
                              options={"xatol": 1e-14})
        if abs(g(res.x)) < 1e-10:
            return float(res.x)
        return None
    a = 0.5 * (lo + hi)
    for _ in range(max_iter):
        ga = g(a)
        if abs(ga) < tol:
            return float(a)
        if glo * ga < 0:
            hi = a
        else:
            lo, glo = a, ga
        d = gp(a)
        step = a - ga / d if d != 0 else None
        if step is None or not (lo < step < hi):
            step = 0.5 * (lo + hi)
        a = step
    return float(a)
