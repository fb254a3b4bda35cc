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
    axisymmetric metrics use the diagonal-metric formula of
    ``_scalar_curvature_frame``.
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
    return ScalarField(c, _scalar_curvature_frame(g))


def _scalar_curvature_frame(g: MetricField) -> np.ndarray:
    """R of an axisymmetric n = 3 metric from its diagonal frame components.

    With f_i = ln sqrt(g_ii) in the coordinates (r, theta, phi), a diagonal
    metric has

        R = -2 sum_i g^ii [ sum_{j != i} (d_i^2 f_j + (d_i f_j)^2
                                          - d_i f_i d_i f_j) + d_i f_j d_i f_k ]

    with j, k in the last term the two indices other than i.  Here
    f_r = q_r, f_theta = ln r + q_theta and f_phi = ln r + ln sin + q_phi,
    q_i = (1/2) ln a_i.  The flat parts are differentiated by hand, so the
    1/sin^2 terms cancel and only the smooth q_i meet a stencil: centred
    differences in s (d/dr = -s^2 d/ds), one-sided second order on the first
    and last rows; centred differences in theta on q extended by one even
    ghost column across each pole, where cot(theta) dw/dtheta takes its limit
    d^2w/dtheta^2.  R is 0 on the s = 0 row.
    """
    c = g.chart
    if c.s.size < 4:
        raise ChartError("the curvature needs at least 4 nodes in s")
    h, ht, s = c.ds, c.dtheta, c.s_col
    q = 0.5 * np.log(g.comps)                  # last axis: r, theta, phi
    # d/dr = -s^2 d/ds and d^2/dr^2 = s^4 d^2/ds^2 + 2 s^3 d/ds
    q_s = np.gradient(q, h, axis=0, edge_order=2)
    d2 = np.empty_like(q)                      # h^2 d^2q/ds^2
    d2[1:-1] = q[2:] - 2 * q[1:-1] + q[:-2]
    d2[0] = 2 * q[0] - 5 * q[1] + 4 * q[2] - q[3]
    d2[-1] = 2 * q[-1] - 5 * q[-2] + 4 * q[-3] - q[-4]
    sk = s[..., None]                          # s against the last axis
    dr = -sk ** 2 * q_s
    drr = sk ** 4 * d2 / h ** 2 + 2 * sk ** 3 * q_s
    ext = np.concatenate([q[:, 1:2], q, q[:, -2:-1]], axis=1)
    dt = (ext[:, 2:] - ext[:, :-2]) / (2 * ht)
    dtt = (ext[:, 2:] - 2 * q + ext[:, :-2]) / ht ** 2

    # i = r, j over (theta, phi); 1/r = s
    j, i = dr[..., 1:], dr[..., :1]
    Br = (np.sum(drr[..., 1:] + j * (j + 2 * sk - i) - sk * i, axis=-1)
          + (s + dr[..., 1]) * (s + dr[..., 2]))
    # i = theta, j over (r, phi); cot(theta) w_theta, w = q_r - q_theta + 2 q_phi
    j, i = dt[..., ::2], dt[..., 1:2]
    w = np.array([1.0, -1.0, 2.0])
    cot_w = dtt @ w                            # the limit at the poles
    cot_w[:, 1:-1] = (dt[:, 1:-1] @ w) / np.tan(c.theta[1:-1])
    Bt = (np.sum(dtt[..., ::2] + j * (j - i), axis=-1)
          + dt[..., 0] * dt[..., 2] + cot_w - 1.0)
    # g^rr = 1 / a_rr and g^thth = s^2 / a_theta; the phi term vanishes
    R = -2.0 * (Br / g.comps[..., 0] + s ** 2 * Bt / g.comps[..., 1])
    R[0] = 0.0
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
