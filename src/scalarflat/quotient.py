"""Rayleigh-quotient estimates of the conformally invariant Sobolev quotient.

Only upper bounds are certified: the reported value is the minimum of the
quotient over a finite trial family, which can only overestimate the true
infimum.  A positive upper bound is supporting evidence for positivity, not
a proof; a nonpositive value disproves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import AXISYM, Chart, ScalarField
from .errors import ChartError, ScalarFlatError
from .metrics import MetricField, _density

#: a trial bump narrower than this many grid cells in s is not resolved
MIN_TRIAL_CELLS = 2


@dataclass(frozen=True)
class TrialFamily:
    """Radial bump trials with smooth compact support.

    Profiles are Gaussian bumps of given center/width multiplied by a C^2
    smootherstep cutoff that vanishes at r <= r_in and r >= r_out, keeping
    the support inside the open manifold (away from r=1 and infinity).
    The defaults are the quotient mode's family.
    """

    centers: tuple = (2.0, 3.0, 5.0, 8.0)
    widths: tuple = (0.5, 1.0, 2.0)
    r_in: float = 1.5
    r_out: float = 20.0
    cutoff_width: float = 0.5

    def __post_init__(self):
        if not 1.0 < self.r_in < self.r_out:
            raise ScalarFlatError("need 1 < r_in < r_out")
        if not self.cutoff_width > 0.0:
            raise ScalarFlatError("need cutoff_width > 0")
        if not self.centers or not self.widths:
            raise ScalarFlatError("empty trial family")
        if not all(w > 0.0 for w in self.widths):
            raise ScalarFlatError("need every width > 0")

    def parameters(self):
        return [(c, w) for c in self.centers for w in self.widths]

    def resolved(self, chart: Chart):
        """The parameters whose bump spans at least ``MIN_TRIAL_CELLS``
        cells in s; near r = center its s-width is width / center^2."""
        return [(c, w) for c, w in self.parameters()
                if w / c ** 2 >= MIN_TRIAL_CELLS * chart.ds]

    def evaluate(self, chart: Chart, center: float, width: float) -> ScalarField:
        """The radial profile at every node, the same in each theta column."""
        prof = self.profile(chart.r, center, width)
        return ScalarField(chart, np.repeat(prof[:, None], chart.nt,
                                            axis=1).reshape(chart.shape))

    def profile(self, r, center, width):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        fin = np.isfinite(r)
        out[fin] = np.exp(-((r[fin] - center) / width) ** 2)
        return out * self.cutoff(r)

    def cutoff(self, r):
        r = np.asarray(r, dtype=float)
        lo = _smoothstep((r - self.r_in) / self.cutoff_width)
        hi = _smoothstep((self.r_out - r) / self.cutoff_width)
        out = np.where(np.isfinite(r), lo * hi, 0.0)
        return out


def _smoothstep(t):
    # C^2 smootherstep, keeps the integrands twice differentiable
    t = np.clip(np.where(np.isfinite(t), t, 1.0), 0.0, 1.0)
    return t ** 3 * (t * (6.0 * t - 15.0) + 10.0)


def yamabe_energy_density(g: MetricField, f: ScalarField):
    """Pointwise |grad f|^2_g + (n-2)/(4(n-1)) R f^2 and measure factor."""
    chart = g.chart
    n = chart.n
    R = g.scalar_curvature().values
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


def estimate_sobolev_quotient(g: MetricField, family: TrialFamily):
    """Minimum quotient over the family's resolved trials.

    A trial under ``MIN_TRIAL_CELLS`` cells in s is skipped, not evaluated:
    its quotient is a discretization artifact, not an upper bound.
    Deterministic: trials are scanned in declaration order and ties go to
    the lowest index.  Returns (Q_upper, (center, width), positivity
    evidence flag).
    """
    trials = family.resolved(g.chart)
    if not trials:
        raise ScalarFlatError(f"no trial spans {MIN_TRIAL_CELLS} cells in s "
                              "on this grid")
    best = None
    best_params = None
    for c, w in trials:
        q = rayleigh_quotient(g, family.evaluate(g.chart, c, w))
        if best is None or q < best:
            best, best_params = q, (c, w)
    return best, best_params, best > 0.0
