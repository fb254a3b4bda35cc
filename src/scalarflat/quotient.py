"""Rayleigh-quotient estimates of the conformally invariant Sobolev quotient.

Only upper bounds are certified: the reported value is the minimum of the
quotient over a finite trial family, which can only overestimate the true
infimum.  A positive upper bound is supporting evidence for positivity, not
a proof; a nonpositive value disproves it.
"""

from __future__ import annotations

import numpy as np

from .chart import AXISYM, Chart, ScalarField
from .errors import ChartError, ScalarFlatError
from .metrics import MetricField, _density

#: a trial bump narrower than this many grid cells in s is not resolved
MIN_TRIAL_CELLS = 2

#: the quotient's trials: Gaussian bumps of each center and width, in
#: center-major order, times a C^2 smootherstep cutoff of width
#: CUTOFF_WIDTH that vanishes at r <= R_IN and r >= R_OUT, keeping the
#: support inside the open manifold (away from r = 1 and infinity)
TRIALS = tuple((c, w) for c in (2.0, 3.0, 5.0, 8.0) for w in (0.5, 1.0, 2.0))
R_IN = 1.5
R_OUT = 20.0
CUTOFF_WIDTH = 0.5


def resolved_trials(chart: Chart):
    """The trials whose bump spans at least ``MIN_TRIAL_CELLS`` cells in s;
    near r = center its s-width is width / center^2."""
    return [(c, w) for c, w in TRIALS
            if w / c ** 2 >= MIN_TRIAL_CELLS * chart.ds]


def trial(chart: Chart, center: float, width: float) -> ScalarField:
    """The radial trial profile at every node, the same in each theta
    column."""
    r = chart.r
    fin = np.isfinite(r)
    prof = np.zeros_like(r)
    prof[fin] = np.exp(-((r[fin] - center) / width) ** 2)
    lo = _smoothstep((r - R_IN) / CUTOFF_WIDTH)
    hi = _smoothstep((R_OUT - r) / CUTOFF_WIDTH)
    prof = prof * np.where(fin, lo * hi, 0.0)
    return ScalarField(chart, np.repeat(prof[:, None], chart.nt,
                                        axis=1).reshape(chart.shape))


def _smoothstep(t):
    # C^2 smootherstep, keeps the integrands twice differentiable
    t = np.clip(np.where(np.isfinite(t), t, 1.0), 0.0, 1.0)
    return t ** 3 * (t * (6.0 * t - 15.0) + 10.0)


def yamabe_energy_density(g: MetricField, f: ScalarField):
    """Pointwise |grad f|^2_g + (n-2)/(4(n-1)) R f^2 and measure factor."""
    chart = g.chart
    n = chart.n
    R = g.scalar_curvature.values
    cn = (n - 2.0) / (4.0 * (n - 1.0))

    grad2 = chart.d_dr(f.values) ** 2 / g.comps[..., 0]
    if chart.mode == AXISYM:
        grad2 = grad2 + ((chart.s_col * chart.d_dtheta(f.values)) ** 2
                         / g.comps[..., 1])
    dens = grad2 + cn * R * f.values ** 2
    return dens, _density(g.comps, n)


def rayleigh_quotient(g: MetricField, f: ScalarField) -> float:
    """Yamabe-functional quotient of a compactly supported trial.

    numerator = int |grad f|^2_g + (n-2)/(4(n-1)) R f^2 dmu_g;
    denominator = ||f||^2 in L^{2n/(n-2)}(dmu_g).
    Both integrals are sums against the flat-measure weights
    ``Chart.weights`` times the density of dmu_g.
    """
    chart = g.chart
    n = chart.n
    if f.chart != chart:
        raise ChartError("trial must live on the metric's chart")
    vals = f.values
    if np.max(np.abs(vals[-1])) > 0 or np.max(np.abs(vals[0])) > 0:
        raise ScalarFlatError("trial must vanish at r=1 and at infinity")

    dens, measure = yamabe_energy_density(g, f)
    p_crit = 2.0 * n / (n - 2.0)
    w = chart.weights * measure
    num = float(np.sum(w * dens))
    den = float(np.sum(w * np.abs(vals) ** p_crit))
    if den == 0.0:  # a zero trial, or one whose |f|^p underflows
        raise ScalarFlatError("zero trial: quotient undefined")
    return num / den ** (2.0 / p_crit)


def estimate_sobolev_quotient(g: MetricField):
    """Minimum quotient over the resolved ``TRIALS``.

    A trial under ``MIN_TRIAL_CELLS`` cells in s is skipped, not evaluated:
    its quotient is a discretization artifact, not an upper bound.
    Deterministic: trials are scanned in declaration order and ties go to
    the lowest index.  Returns (Q_upper, (center, width), positivity
    evidence flag).
    """
    trials = resolved_trials(g.chart)
    if not trials:
        raise ScalarFlatError(f"no trial spans {MIN_TRIAL_CELLS} cells in s "
                              "on this grid")
    best = None
    best_params = None
    for c, w in trials:
        q = rayleigh_quotient(g, trial(g.chart, c, w))
        if best is None or q < best:
            best, best_params = q, (c, w)
    return best, best_params, best > 0.0
