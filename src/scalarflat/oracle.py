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


#: how far u0's leading coefficient may be from 1, its limit at infinity
UNIT_LIMIT_TOL = 1e-10


def radial_dirichlet_yamabe(coeffs, n: int, s):
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
    if abs(coeffs[0] - 1.0) > UNIT_LIMIT_TOL:
        raise SolveError("u0 must tend to 1 at infinity")
    return (1.0 + (sum(coeffs) - 1.0) * s ** (n - 2)) / u0  # u0(1) = sum c_k


def mean_curvature_root_threshold(beta: float):
    """max_{a>0} a / (1+a)^beta, the radial solvability threshold for f."""
    if beta <= 1:
        return math.inf
    a_star = 1.0 / (beta - 1.0)
    return a_star / (1.0 + a_star) ** beta


def radial_mean_curvature(f: float, beta: float, n: int):
    """Radial solution u = 1 + a r^{2-n} of the nonlinear Robin problem.

    Solves a (n-2) = f (1+a)^beta for the root closest to 0 on the physical
    branch (u > 0): 1/(beta-1) at the threshold's double root, else by
    bisection to adjacent doubles.  Returns (a, profile callable) or None
    when no root exists on that branch.
    """
    if not (beta > 0 and math.isfinite(f)):
        raise ValueError(f"need beta > 0 and a finite f, got {beta}, {f}")
    m = float(n - 2)

    def g(a):
        return m * a - f * (1.0 + a) ** beta

    if f == 0.0:
        a = 0.0
    elif f < 0.0:  # g(-1) = -m < 0 < g(0) = -f, and g increases
        a = _bisect(g, -1.0, 0.0)
    elif beta > 1:
        a_star, limit = 1.0 / (beta - 1.0), mean_curvature_root_threshold(beta)
        if f / m > limit:
            return None
        # a* is a double root at the threshold; below it g(0) < 0 < g(a*)
        a = a_star if f / m == limit else _bisect(g, 0.0, a_star)
    else:
        hi = 1.0
        while g(hi) <= 0:
            hi *= 2.0
            if hi > 1e12:
                return None
        a = _bisect(g, 0.0, hi)

    def profile(r):
        return 1.0 + a * r ** (2.0 - n)

    return a, profile


def _bisect(g, lo, hi):
    """Root of g in [lo, hi], g(lo) < 0 < g(hi), to adjacent doubles."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
