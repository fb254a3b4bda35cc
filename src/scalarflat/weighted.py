"""Discrete weighted Lebesgue norms and asymptotic-decay estimation.

Norms use the flat background measure throughout.  The essential supremum
is a nodal max; the s=0 node (r = infinity) is excluded from both sup and
integral evaluations, where it carries zero quadrature weight anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import ScalarField
from .errors import ChartError, InvalidNormSpec


@dataclass(frozen=True)
class WeightedNormSpec:
    """Weighted norm parameters: L^p with decay weight delta."""

    p: float
    delta: float

    def __post_init__(self):
        if self.p < 1:
            raise InvalidNormSpec(f"p must be >= 1, got {self.p}")

    def __str__(self):
        return f"L({self.p:g},{self.delta:g})"


def weighted_norm(u: ScalarField, spec: WeightedNormSpec) -> float:
    """Discrete weighted L^p norm of u against the flat measure."""
    chart, mag, p = u.chart, np.abs(u.values), spec.p
    if math.isinf(p):
        # r^{-delta} |u|, sup over all nodes but the s=0 level
        return float(np.max((chart.s_pow(spec.delta, 0.0) * mag)[1:]))
    integrand = mag ** p * chart.s_pow(spec.delta * p + chart.n, 0.0)
    # weights * integrand overflows for large n (r^{2n} at s = ds for the
    # Dirichlet report's L(2, 0.5 - n)) where the norm does not: the terms
    # are summed as mantissas times powers of two, scaled by 2^-k once one
    # is above 2^1000, k a multiple of p for an integer p, which the root
    # then takes back exactly as 2^(k/p)
    mw, ew = np.frexp(chart.weights)
    mi, ei = np.frexp(integrand)
    e = ew + ei
    k = math.ceil(math.ceil(max(0, int(np.max(e)) - 1000) / p) * p)
    return float(np.sum(np.ldexp(mw * mi, e - k)) ** (1.0 / p)
                 * 2.0 ** (k / p))


@dataclass
class DecayFit:
    """Far-field fit u ~ u_inf + a r^{-q}.

    ``status`` is "ok", "constant" (a = 0 branch) or "no-decay" (q <= 0).
    """

    u_inf: float
    a: float
    q: float
    residual: float
    status: str = "ok"


#: ``decay_fit`` needs DECAY_MIN_NODES nodes in s in (0, DECAY_WINDOW],
#: which takes a grid of at least MIN_S_NODES (41) nodes in s
DECAY_WINDOW = 0.2
DECAY_MIN_NODES = 8
MIN_S_NODES = math.ceil(DECAY_MIN_NODES / DECAY_WINDOW) + 1

#: relative deviation from the limit below which a field fits as constant
CONSTANT_TOL = 1e-12


def decay_fit(u: ScalarField) -> DecayFit:
    """Least-squares decay-rate fit of the sphere mean of u over the far
    region s in (0, DECAY_WINDOW].

    The fit runs on the l = 0 profile (``Chart.sphere_mean``), which on a
    radial chart is u itself.  The limit u_inf is taken from the exact s=0
    node; the rate comes from a linear least-squares fit of
    log|u - u_inf| against [1, log s, s, s^2], whose polynomial terms absorb
    the next-order tail corrections and debias the exponent.  The residual
    is relative to the field scale on the window.
    """
    c = u.chart
    mask = (c.s > 0) & (c.s <= DECAY_WINDOW)
    if mask.sum() < DECAY_MIN_NODES:
        raise ChartError(f"need at least {DECAY_MIN_NODES} nodes in the far "
                         f"region s <= {DECAY_WINDOW}")
    profile = c.sphere_mean(u.values)
    s = c.s[mask]
    v = profile[mask]
    u_inf = float(profile[0])  # exact nodal limit at s = 0

    dev = v - u_inf
    scale = max(np.max(np.abs(v)), 1.0)
    if np.max(np.abs(dev)) <= CONSTANT_TOL * scale:
        return DecayFit(u_inf=u_inf, a=0.0, q=math.inf, residual=0.0,
                        status="constant")

    sign = 1.0 if np.median(dev) >= 0 else -1.0
    good = sign * dev > 0
    if good.sum() < 4:
        return DecayFit(u_inf=u_inf, a=0.0, q=0.0, residual=1.0,
                        status="no-decay")
    sg, dg = s[good], sign * dev[good]
    # rate sign from the pure log-linear model first: the polynomial
    # debiasing columns below can mask growth
    A0 = np.stack([np.ones_like(sg), np.log(sg)], axis=1)
    coef0, *_ = np.linalg.lstsq(A0, np.log(dg), rcond=None)
    if coef0[1] <= 0:
        return DecayFit(u_inf=u_inf, a=_amplitude(sign, coef0[0]),
                        q=float(coef0[1]), residual=1.0, status="no-decay")
    A = np.stack([np.ones_like(sg), np.log(sg), sg, sg ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(dg), rcond=None)
    a = _amplitude(sign, coef[0])
    q = float(coef[1])
    err = u_inf + sign * np.exp(A @ coef) - v[good]
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(err ** 2))
    if not np.isfinite(rms):  # err ** 2 overflowed: take the rms of err / m
        m = np.max(np.abs(err))
        rms = m * np.sqrt(np.mean((err / m) ** 2))
    resid = float(rms / max(np.max(np.abs(v)), 1e-300))
    if q <= 0:
        return DecayFit(u_inf=u_inf, a=a, q=q, residual=resid,
                        status="no-decay")
    return DecayFit(u_inf=u_inf, a=a, q=q, residual=resid, status="ok")


def _amplitude(sign: float, log_a: float) -> float:
    """sign e^log_a, the fitted amplitude; +-inf where it overflows."""
    try:
        return sign * math.exp(log_a)
    except OverflowError:
        return sign * math.inf


def decay_report(u: ScalarField) -> dict:
    """The report's ``decay`` block for a field u -> 1 at infinity: the
    ``decay_fit`` of u - 1, with the rates to read its q against: n - 2,
    the decay of a harmonic function, and n - 2.5 = -delta, the decay that
    the weight delta = 2.5 - n of the Dirichlet problem's spaces allows."""
    fit = decay_fit(ScalarField(u.chart, u.values - 1.0))
    n = u.chart.n
    return {"u_inf": fit.u_inf, "a": fit.a, "q": fit.q,
            "residual": fit.residual, "status": fit.status,
            "target_harmonic_q": n - 2.0, "target_weight_q": n - 2.5}


def mass_coefficient(phi: ScalarField) -> float:
    """ADM-type coefficient m in phi ~ 1 + m/(2 r^{n-2}) at infinity.

    m = 2 c, where c is the s^{n-2} coefficient of the sphere mean of phi
    at the exact s = 0 row, read by the one-sided stencil on nodes
    0..n-1 that is exact on polynomials of degree n-1: second order in the
    step h.  For n = 3 it is m = (-3 phi_0 + 4 phi_1 - phi_2) / h.  The
    division by h^{n-2} amplifies rounding in phi, so a caller that knows
    phi is constant should report m = 0 exactly instead.
    Bartnik, "The mass of an asymptotically flat manifold", Comm. Pure
    Appl. Math. 39 (1986).
    """
    c = phi.chart
    k = c.n - 2
    nodes = np.arange(k + 2.0)
    # sum_j w_j j^p = [p == k] for p = 0..k+1
    w = np.linalg.solve(np.vander(nodes, increasing=True).T,
                        np.eye(k + 2)[k])
    return 2.0 * float(w @ c.sphere_mean(phi.values)[:k + 2]) / c.ds ** k
