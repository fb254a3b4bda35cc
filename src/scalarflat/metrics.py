"""Metrics on the exterior domain and their differential geometry.

Metric components are stored in the orthonormal frame of the flat background
(e_r, e_theta/r, e_phi/(r sin theta)), so the flat metric is the identity and
asymptotic flatness reads "components - identity decay to zero".

Conventions
-----------
* The boundary unit normal eta points away from infinity (eta = -e_r up to
  normalization), so the flat unit sphere in R^n has mean curvature -(n-1).
* Mean curvature is the *sum* of principal curvatures (trace of the shape
  operator).  With that normalization the conformal transformation law for
  g~ = u^{4/(n-2)} g reads

      H~ = u^{-n/(n-2)} ( (2(n-1)/(n-2)) du/deta + H u ).

  The same law with coefficient 2/(n-2) holds for the *averaged* mean
  curvature; mixing the two conventions is a classic source of sign/factor
  bugs, see docs/conventions in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import AXISYM, RADIAL, BoundaryField, Chart, ScalarField
from .errors import ChartError, DecayError, MetricError, PositivityError
from .weighted import decay_fit


def conformal_law_coefficient(n: int) -> float:
    """Coefficient of du/deta in the sum-convention mean-curvature law."""
    return 2.0 * (n - 1.0) / (n - 2.0)


def _frame_size(chart: Chart) -> int:
    """Components stored per node: (a_rr, a_tan) in radial mode, where a_tan
    stands for all n-1 tangential directions; (a_rr, a_theta, a_phi) in
    axisymmetric mode."""
    return 2 if chart.mode == RADIAL else 3


class MetricField:
    """Symmetric 2-tensor on a chart, diagonal in the orthonormal frame.

    Radial mode stores (a_rr, a_tan) per node (all tangential directions
    equal); axisymmetric mode stores (a_rr, a_theta, a_phi) per node.
    """

    def __init__(self, chart: Chart, comps: np.ndarray,
                 is_conformally_flat: bool = False, u0: np.ndarray = None,
                 u0_coeffs=None):
        self.chart = chart
        comps = np.asarray(comps, dtype=float)
        expected = chart.shape + (_frame_size(chart),)
        if comps.shape != expected:
            raise MetricError(
                f"component array shape {comps.shape}, expected {expected}")
        if not np.all(np.isfinite(comps)):
            raise MetricError("metric components must be finite")
        if np.any(comps <= 0.0):
            raise MetricError(
                "metric not positive definite: nonpositive frame component "
                f"(min {comps.min():.3g})")
        self.comps = comps
        self.comps.flags.writeable = False
        self.is_conformally_flat = bool(is_conformally_flat)
        if self.is_conformally_flat:
            if u0 is None:
                raise MetricError("conformally flat metric requires u0")
            self.u0 = np.array(u0, dtype=float)
            if self.u0.shape != chart.shape:
                raise MetricError("u0 shape does not match chart")
            self.u0.flags.writeable = False
        else:
            self.u0 = None
        self.u0_coeffs = None if u0_coeffs is None else tuple(
            float(c) for c in u0_coeffs)
        # set by conformal_transform on non-conformally-flat bases; lets
        # scalar_curvature use the exact conformal identity
        self.conformal_base = None
        self.conformal_phi = None
        # computed on first use; the metric is immutable
        self._laplacian = None
        self._curvature = {}

    def laplacian(self):
        """Sparse Delta_g from ``build_laplace_matrix``, built once per
        metric.  Shared between callers, which must not modify it."""
        if self._laplacian is None:
            self._laplacian = build_laplace_matrix(self)
        return self._laplacian

    def scalar_curvature(self, order: int = 2) -> ScalarField:
        """Read-only R from ``scalar_curvature``, computed once per order."""
        if order not in self._curvature:
            R = scalar_curvature(self, order=order)
            R.values.flags.writeable = False
            self._curvature[order] = R
        return self._curvature[order]

    def boundary_a_rr(self) -> np.ndarray:
        return np.atleast_1d(self.comps[-1, ..., 0])


def flat_metric(chart: Chart) -> MetricField:
    """The Euclidean metric on the chart."""
    return conformal_metric(chart, np.ones(chart.shape), u0_coeffs=(1.0,))


def conformal_factor_from_coeffs(chart: Chart, coeffs) -> np.ndarray:
    """Evaluate u0 = sum_k c_k r^{-k} = sum_k c_k s^k at the nodes."""
    coeffs = [float(c) for c in coeffs]
    s = chart.s_col
    u0 = np.zeros(chart.shape)
    for k, c in enumerate(coeffs):
        u0 = u0 + c * s ** k
    return u0


def conformal_metric(chart: Chart, u0, u0_coeffs=None) -> MetricField:
    """g = u0^{4/(n-2)} * flat, from nodal u0 values."""
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0.0):
        raise MetricError(
            "conformal factor u0 must be positive everywhere "
            f"(min {u0.min():.3g})")
    n = chart.n
    fac = u0 ** (4.0 / (n - 2.0))
    comps = np.repeat(fac[..., None], _frame_size(chart), axis=-1)
    return MetricField(chart, comps, is_conformally_flat=True, u0=u0,
                       u0_coeffs=u0_coeffs)


def metric_from_spec(spec, chart: Chart, decay_tol: float = 0.25) -> MetricField:
    """Instantiate a metric from a specification.

    Accepted forms:

    * ``"flat"``
    * ``"conformal:c0,c1,..."`` or ``{"kind": "conformal", "coeffs": [...]}``
      with u0 = c0 + c1/r + c2/r^2 + ..., c0 == 1 (u0 -> 1 at infinity)
    * ``{"kind": "axisym", "a_rr": array, "a_theta": array, "a_phi": array,
      "decay": q}`` with component tables on the chart and a declared decay
      rate q (components - 1 = O(r^{-q})).

    Axisymmetric tables are decay-checked against the declared rate; a
    measured rate slower than declared raises ``DecayError`` carrying the
    measured value.
    """
    if isinstance(spec, str):
        spec = spec.strip()
        if spec == "flat":
            return flat_metric(chart)
        if not spec.startswith("conformal:"):
            raise MetricError(f"unknown metric spec string {spec!r}")
        spec = {"kind": "conformal",
                "coeffs": spec.split(":", 1)[1].split(",")}
    if not isinstance(spec, dict):
        raise MetricError("a metric spec is a string or a JSON object, not "
                          f"{type(spec).__name__}")

    kind = spec.get("kind")
    if kind == "flat":
        return flat_metric(chart)
    if kind == "conformal":
        coeffs = _spec_floats(spec, "coeffs")
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise MetricError("conformal metric spec: 'coeffs' must be a "
                              "nonempty list of numbers")
        if abs(coeffs[0] - 1.0) > 1e-14:
            raise MetricError("conformal u0 must tend to 1 (leading "
                              f"coefficient {coeffs[0]}, expected 1)")
        u0 = conformal_factor_from_coeffs(chart, coeffs)
        return conformal_metric(chart, u0, u0_coeffs=coeffs)
    if kind == "axisym":
        if chart.mode != AXISYM:
            raise MetricError("axisym metric spec requires an axisymmetric chart")
        tables = [_spec_floats(spec, k) for k in ("a_rr", "a_theta", "a_phi")]
        if any(t.shape != chart.shape for t in tables):
            raise MetricError("axisym metric spec: component tables must have "
                              f"the grid shape {chart.shape}")
        declared = (_spec_floats(spec, "decay") if "decay" in spec
                    else np.float64(chart.n - 2.5))
        if declared.ndim != 0:
            raise MetricError("axisym metric spec: 'decay' must be a number")
        g = MetricField(chart, np.stack(tables, axis=-1))
        _check_decay(g, float(declared), decay_tol)
        return g
    raise MetricError(f"unknown metric spec kind {kind!r}")


def _spec_floats(spec: dict, key: str) -> np.ndarray:
    """spec[key] as a float array; MetricError when absent or not numeric."""
    try:
        return np.asarray(spec[key], dtype=float)
    except KeyError:
        raise MetricError(f"{spec['kind']} metric spec lacks {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise MetricError(f"{spec['kind']} metric spec: {key!r} is not "
                          f"numeric ({exc})") from exc


def _check_decay(g: MetricField, need: float, tol: float):
    """Decay fit of max |g - flat| over each s level (None for exact flat);
    DecayError when the rate is below need - tol or there is no decay."""
    c = g.chart
    dev = np.max(np.abs(g.comps - 1.0).reshape(c.s.size, -1), axis=1)
    if np.max(dev) < 1e-14:
        return None
    fit = decay_fit(ScalarField(Chart(c.n, c.s), dev))
    if fit.status == "no-decay" or (fit.status == "ok" and fit.q < need - tol):
        raise DecayError(
            f"metric is not asymptotically flat at the required rate "
            f"(measured q={fit.q:.3f}, need >= {need:.3f})",
            measured_rate=fit.q)
    return fit


# ---------------------------------------------------------------------------
# Laplace-Beltrami operator
# ---------------------------------------------------------------------------

def _density(comps: np.ndarray, n: int) -> np.ndarray:
    """sqrt(det g) / (r^{n-1} sin theta) from frame components on the last
    axis.  The tangential entries share the n-1 tangential directions
    equally: one entry stands for all of them in radial mode, a_theta and
    a_phi for one each in axisymmetric mode (n = 3)."""
    tan = comps[..., 1:]
    return (np.sqrt(comps[..., 0])
            * np.prod(tan, axis=-1) ** ((n - 1) / (2.0 * tan.shape[-1])))


def laplace_beltrami(g: MetricField, u: ScalarField) -> ScalarField:
    """Nodal Delta_g u in divergence form.

    Interior nodes use the conservative centered stencil; the r=1 boundary
    uses one-sided differences; the s=0 node carries the asymptotic limit 0
    (all fields of interest have finite limits at infinity).
    """
    if u.chart != g.chart:
        raise ChartError("field and metric live on different charts")
    vals = g.laplacian() @ u.values.ravel()
    return ScalarField(g.chart, vals.reshape(g.chart.shape))


def build_laplace_matrix(g: MetricField):
    """Sparse matrix of Delta_g over all nodes, flattened as i * nt + j.

    With W = D s^{1-n} and D = ``_density`` (sqrt(det g) without the flat
    r^{n-1} sin(theta) factor), the divergence form in s = 1/r is

        Delta_g u = (s^2 / W) d/ds (s^2 W / a_rr du/ds)
                    + (s^2 / (D sin)) d/dtheta (D sin / a_theta du/dtheta).

    The matrix is one vectorized COO build on the (ns, nt) node grid, and
    radial mode is the case nt = 1, which has no theta part.  Interior rows
    use the conservative centred stencil with midpoint-averaged components;
    the r = 1 row uses a one-sided second-order form of the s part; the
    pole columns use the regularized limit (1/sin) d/dth (sin du/dth) ->
    2 u_thth for even u, with a reflected ghost node.  The s = 0 row is zero.
    """
    import scipy.sparse as sp

    c = g.chart
    n, h = c.n, c.ds
    ns, nt = c.s.size, c.nt
    if ns < 4:
        raise ChartError("the Laplacian needs at least 4 nodes in s")
    comps = g.comps.reshape(ns, nt, -1)
    D = _density(comps, n)
    s = c.s[:, None]
    idx = np.arange(ns * nt).reshape(ns, nt)
    rows, cols, vals = [], [], []

    def add(row, col, val):
        rows.append(row.ravel())
        cols.append(col.ravel())
        vals.append(val.ravel())

    # s part: conservative fluxes mu = s^2 W / a_rr at the s-midpoints
    sm = 0.5 * (s[:-1] + s[1:])
    cm = 0.5 * (comps[:-1] + comps[1:])
    mu = sm ** 2 * (_density(cm, n) * sm ** (1.0 - n)) / cm[..., 0]
    pref = s[1:] ** 2 / (D[1:] * s[1:] ** (1.0 - n))  # rows 1..ns-1
    a = pref[:-1] * mu[:-1] / h ** 2
    b = pref[:-1] * mu[1:] / h ** 2
    add(idx[1:-1], idx[:-2], a)
    add(idx[1:-1], idx[1:-1], -(a + b))
    add(idx[1:-1], idx[2:], b)

    # r = 1: pref * (mu_s u_s + mu u_ss) with the nodal mu, one-sided
    mu = s[-3:] ** 2 * (D[-3:] * s[-3:] ** (1.0 - n)) / comps[-3:, :, 0]
    dmu = (3 * mu[2] - 4 * mu[1] + mu[0]) / (2 * h)
    for k, coef in zip((-3, -2, -1), (1.0, -4.0, 3.0)):
        add(idx[-1], idx[k], pref[-1] * dmu * coef / (2 * h))
    for k, coef in zip((-4, -3, -2, -1), (-1.0, 4.0, -5.0, 2.0)):
        add(idx[-1], idx[k], pref[-1] * mu[2] * coef / h ** 2)

    if c.mode == AXISYM:
        ht = c.dtheta
        sin = np.sin(c.theta)
        # theta fluxes D sin / a_theta at the theta-midpoints, rows 1..ns-1
        tm = 0.5 * (comps[1:, :-1] + comps[1:, 1:])
        mu = (_density(tm, n) * np.sin(0.5 * (c.theta[:-1] + c.theta[1:]))
              / tm[..., 1])
        pref = s[1:] ** 2 / (D[1:, 1:-1] * sin[1:-1])
        a = pref * mu[:, :-1] / ht ** 2
        b = pref * mu[:, 1:] / ht ** 2
        add(idx[1:, 1:-1], idx[1:, :-2], a)
        add(idx[1:, 1:-1], idx[1:, 1:-1], -(a + b))
        add(idx[1:, 1:-1], idx[1:, 2:], b)
        # poles: 2 u_thth, with u_thth = 2 (u_next - u_pole) / ht^2
        coef = 4.0 * s[1:] ** 2 / (comps[1:, [0, -1], 1] * ht ** 2)
        add(idx[1:, [0, -1]], idx[1:, [1, -2]], coef)
        add(idx[1:, [0, -1]], idx[1:, [0, -1]], -coef)

    N = ns * nt
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N, N))


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def flat_laplacian(chart: Chart, values, order: int = 2) -> np.ndarray:
    """Flat-background Laplacian of nodal values (limit 0 at s=0)."""
    if order == 2:
        L = chart.flat_laplacian()
        return (L @ np.asarray(values, float).ravel()).reshape(chart.shape)
    if chart.mode != RADIAL:
        raise ChartError("order-4 flat Laplacian is radial-only")
    # Delta u = s^4 u_ss + (3-n) s^3 u_s, evaluated with 4th-order stencils
    s = chart.s
    us = chart.d_ds(values, order=4)
    uss = chart.d_ds(us, order=4)
    out = s ** 4 * uss + (3.0 - chart.n) * s ** 3 * us
    out[0] = 0.0
    return out


def scalar_curvature(g: MetricField, order: int = 2) -> ScalarField:
    """Scalar curvature R of g.

    Conformally flat metrics use the conformal identity
    R = -(4(n-1)/(n-2)) u0^{-(n+2)/(n-2)} Delta_flat u0; general
    axisymmetric metrics use a finite-difference Christoffel/Ricci
    contraction.
    """
    c = g.chart
    n = c.n
    if g.is_conformally_flat:
        lap = flat_laplacian(c, g.u0, order=order)
        R = -(4.0 * (n - 1) / (n - 2)) * g.u0 ** (-(n + 2.0) / (n - 2.0)) * lap
        return ScalarField(c, R)
    if g.conformal_base is not None:
        # exact conformal identity relative to the stored base metric
        base = g.conformal_base
        phi = g.conformal_phi.values
        Rb = base.scalar_curvature(order).values
        lap = laplace_beltrami(base, g.conformal_phi).values
        R = phi ** (-(n + 2.0) / (n - 2.0)) * (
            Rb * phi - (4.0 * (n - 1) / (n - 2)) * lap)
        R[0] = 0.0
        return ScalarField(c, R)
    if c.mode != AXISYM:
        raise MetricError("general curvature requires axisymmetric mode "
                          "(radial metrics are stored conformally flat)")
    return ScalarField(c, _scalar_curvature_christoffel(g))


def _scalar_curvature_christoffel(g: MetricField) -> np.ndarray:
    """R by finite-difference Christoffel symbols, axisymmetric n=3.

    Works in the r coordinate (nonuniform grid), where the flat parts of the
    coordinate components are low-degree polynomials in r and the stencils
    are nearly exact; valid away from s=0 (where R -> 0 by asymptotic
    flatness) and the poles (filled by quadratic extrapolation in theta).
    """
    c = g.chart
    ns, nt = c.shape
    ht = c.dtheta

    # work on the subgrid excluding s=0 and the poles to avoid the
    # coordinate degeneracies; one-sided stencils at the retained edges
    sl = (slice(1, None), slice(1, nt - 1))
    r_sub = 1.0 / c.s[1:]
    th_sub = c.theta[1:nt - 1]
    sin2 = (np.sin(th_sub) ** 2)[None, :]
    r2 = (r_sub ** 2)[:, None]
    Gs = np.zeros((ns - 1, nt - 2, 3, 3))
    Gs[..., 0, 0] = g.comps[1:, 1:nt - 1, 0]
    Gs[..., 1, 1] = g.comps[1:, 1:nt - 1, 1] * r2
    Gs[..., 2, 2] = g.comps[1:, 1:nt - 1, 2] * r2 * sin2
    Ginv = np.zeros_like(Gs)
    for k in range(3):
        Ginv[..., k, k] = 1.0 / Gs[..., k, k]

    def grad(F):
        # d/dr (nonuniform) and d/dtheta of a nodal array on the subgrid
        dr = np.gradient(F, r_sub, axis=0, edge_order=2)
        dt = np.gradient(F, ht, axis=1, edge_order=2)
        return dr, dt

    # metric derivatives with the flat factors differentiated analytically:
    # G_ii = a_i * f_i with f = (1, r^2, r^2 sin^2); only the smooth frame
    # components a_i are finite-differenced, so the coordinate singularities
    # never meet a difference stencil
    a_sub = g.comps[1:, 1:nt - 1, :]
    sin_cos = (np.sin(th_sub) * np.cos(th_sub))[None, :]
    rcol = r_sub[:, None]
    f_vals = [np.ones_like(rcol * sin2), r2 + 0.0 * sin2, r2 * sin2]
    df_dr = [0.0, 2.0 * rcol + 0.0 * sin2, 2.0 * rcol * sin2]
    df_dt = [0.0, 0.0, r2 * 2.0 * sin_cos]
    dG = np.zeros(Gs.shape[:2] + (3, 3, 3))  # dG[..., l, i, j] = d_l G_ij
    for i in range(3):
        da_dr, da_dt = grad(a_sub[..., i])
        dG[..., 0, i, i] = da_dr * f_vals[i] + a_sub[..., i] * df_dr[i]
        dG[..., 1, i, i] = da_dt * f_vals[i] + a_sub[..., i] * df_dt[i]

    # Gamma^k_ij = 1/2 g^{kk} (d_i G_jk + d_j G_ik - d_k G_ij)
    Gam = np.zeros_like(dG)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                t = dG[..., i, j, k] if i < 2 else 0.0
                t2 = dG[..., j, i, k] if j < 2 else 0.0
                t3 = dG[..., k, i, j] if k < 2 else 0.0
                Gam[..., k, i, j] = 0.5 * Ginv[..., k, k] * (t + t2 - t3)

    # split Gamma = F + D: F is the flat-background part (exact, including
    # the cot(theta) singularity), D the smooth deviation.  The purely flat
    # terms of the Ricci contraction sum to zero curvature, so only terms
    # containing D survive -- and only D is ever finite-differenced.
    cot = (np.cos(th_sub) / np.sin(th_sub))[None, :] + 0.0 * rcol
    inv_r = 1.0 / rcol + 0.0 * sin2
    F = np.zeros_like(Gam)
    F[..., 0, 1, 1] = -rcol + 0.0 * sin2
    F[..., 0, 2, 2] = -rcol * sin2
    F[..., 1, 0, 1] = F[..., 1, 1, 0] = inv_r
    F[..., 1, 2, 2] = -sin_cos + 0.0 * rcol
    F[..., 2, 0, 2] = F[..., 2, 2, 0] = inv_r
    F[..., 2, 1, 2] = F[..., 2, 2, 1] = cot
    D = Gam - F

    dD = np.zeros(Gs.shape[:2] + (2, 3, 3, 3))  # dD[..., l, k, i, j]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                if np.any(D[..., k, i, j]):
                    ds, dt = grad(D[..., k, i, j])
                    dD[..., 0, k, i, j] = ds
                    dD[..., 1, k, i, j] = dt

    Ric = np.zeros(Gs.shape[:2] + (3, 3))
    for i in range(3):
        for j in range(3):
            term = np.zeros(Gs.shape[:2])
            for k in range(3):
                if k < 2:
                    term += dD[..., k, k, i, j]
                if j < 2:
                    term -= dD[..., j, k, k, i]
            for k in range(3):
                for l in range(3):
                    term += (F[..., k, k, l] * D[..., l, i, j]
                             + D[..., k, k, l] * F[..., l, i, j]
                             + D[..., k, k, l] * D[..., l, i, j]
                             - F[..., k, j, l] * D[..., l, i, k]
                             - D[..., k, j, l] * F[..., l, i, k]
                             - D[..., k, j, l] * D[..., l, i, k])
            Ric[..., i, j] = term

    Rsub = np.zeros(Gs.shape[:2])
    for i in range(3):
        Rsub += Ginv[..., i, i] * Ric[..., i, i]

    R = np.zeros(c.shape)
    R[sl] = Rsub
    R[0, :] = 0.0
    # quadratic extrapolation onto the pole columns
    R[1:, 0] = 3 * R[1:, 1] - 3 * R[1:, 2] + R[1:, 3]
    R[1:, -1] = 3 * R[1:, -2] - 3 * R[1:, -3] + R[1:, -4]
    return R


# ---------------------------------------------------------------------------
# Boundary mean curvature and conformal transformations
# ---------------------------------------------------------------------------

def boundary_mean_curvature(g: MetricField) -> BoundaryField:
    """H of the r=1 slice, sum of principal curvatures, normal away from
    infinity.

    H = -(1/sqrt(g_rr)) d/dr ln sqrt(det h) with h the induced metric; in s
    coordinates d/dr = -d/ds at s=1, so the sign flips to a one-sided
    s-derivative.
    """
    c = g.chart
    n = c.n
    # ln sqrt(det h) = (n-1)/(2k) sum ln a_tan + (n-1) ln r  (+ const) over
    # the k tangential entries, which share the n-1 directions equally
    tan = g.comps[..., 1:]
    f = ((n - 1) / (2.0 * tan.shape[-1]) * np.sum(np.log(tan), axis=-1)
         + (n - 1) * np.log(c.s_pow(-1.0, 1.0)))
    dfs = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * c.ds)
    return BoundaryField(c, dfs / np.sqrt(g.boundary_a_rr()))


def normal_derivative(g: MetricField, u: ScalarField) -> BoundaryField:
    """du/deta at r=1 with eta away from infinity: (1/sqrt g_rr) du/ds|_{s=1},
    one-sided second order."""
    if u.chart != g.chart:
        raise ChartError("field and metric live on different charts")
    h = g.chart.ds
    v = u.values
    dv = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return BoundaryField(g.chart, np.atleast_1d(
        dv / np.sqrt(g.boundary_a_rr())))


def conformal_transform(g: MetricField, phi: ScalarField) -> MetricField:
    """g~ = phi^{4/(n-2)} g, with conformal-factor bookkeeping."""
    if phi.chart != g.chart:
        raise ChartError("field and metric live on different charts")
    p = phi.values
    if np.any(p <= 0.0):
        raise PositivityError(
            f"conformal factor must be positive (min {p.min():.3g})")
    n = g.chart.n
    fac = p ** (4.0 / (n - 2.0))
    comps = g.comps * fac[..., None]
    if g.is_conformally_flat:
        return MetricField(g.chart, comps, is_conformally_flat=True,
                           u0=g.u0 * p)
    out = MetricField(g.chart, comps)
    out.conformal_base = g
    out.conformal_phi = phi
    return out


def conformal_mean_curvature(g: MetricField, u: ScalarField) -> BoundaryField:
    """Predicted boundary mean curvature of u^{4/(n-2)} g (sum convention).

    H~ = u^{-n/(n-2)} ( (2(n-1)/(n-2)) du/deta + H u ).
    """
    if np.any(u.values <= 0.0):
        raise PositivityError("conformal factor must be positive")
    n = g.chart.n
    H = boundary_mean_curvature(g).values
    dudeta = normal_derivative(g, u).values
    ub = u.boundary_values()
    Ht = ub ** (-n / (n - 2.0)) * (
        conformal_law_coefficient(n) * dudeta + H * ub)
    return BoundaryField(g.chart, Ht)


def check_asymptotic_flatness(g: MetricField, tol: float = 0.25):
    """Decay-rate check of g - flat; returns the fit (None for exact flat)."""
    # q >= n - 5/2 means o(r^{5/2-n}) membership
    return _check_decay(g, g.chart.n - 2.5, tol)
