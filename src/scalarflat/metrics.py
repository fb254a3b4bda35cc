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

import functools
import reprlib

import numpy as np

from .chart import AXISYM, RADIAL, BoundaryField, Chart, ScalarField
from .errors import ChartError, DecayError, MetricError, PositivityError
from .weighted import decay_fit

#: how much slower than required a metric's measured decay rate q may be
DECAY_RATE_SLACK = 0.25

#: how far from 1 a metric spec's limit at infinity may be: the leading
#: coefficient of a conformal factor, the s = 0 row of a component table
FLAT_LIMIT_TOL = 1e-14


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

    A conformal metric g = phi^{4/(n-2)} b also keeps its factor phi in
    ``conformal_phi`` and its base b in ``conformal_base``, where None
    means the flat metric.  A metric given by its component tables has
    ``conformal_phi`` None.  ``u0_coeffs`` holds the coefficients of a
    ``conformal:`` spec, the closed-form references' input.
    """

    def __init__(self, chart: Chart, comps: np.ndarray, conformal_base=None,
                 conformal_phi=None, u0_coeffs=None):
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
        self.conformal_base = conformal_base
        self.conformal_phi = None
        if conformal_phi is not None:
            self.conformal_phi = ScalarField(chart, np.array(conformal_phi,
                                                             dtype=float))
            self.conformal_phi.values.flags.writeable = False
        self.u0_coeffs = None if u0_coeffs is None else tuple(
            float(c) for c in u0_coeffs)
        # the meancurv.BoundaryMap of the metric's harmonic problem, built
        # by meancurv.boundary_map or by meancurv.reduce_to_minimal
        self.boundary_map = None

    @functools.cached_property
    def laplacian(self):
        """Sparse Delta_g from ``build_laplace_matrix``, built once per
        metric.  Shared between callers, which must not modify it."""
        return build_laplace_matrix(self)

    @functools.cached_property
    def scalar_curvature(self) -> ScalarField:
        """Read-only R from ``scalar_curvature``, computed once per metric."""
        R = scalar_curvature(self)
        R.values.flags.writeable = False
        return R

    @functools.cached_property
    def far_field_fit(self):
        """``decay_fit`` of max |g - flat| over each s level, computed once
        per metric; None for the exact flat metric."""
        c = self.chart
        dev = np.max(np.abs(self.comps - 1.0).reshape(c.s.size, -1), axis=1)
        if np.max(dev) < 1e-14:
            return None
        return decay_fit(ScalarField(Chart(c.n, c.s.size), dev))

    def boundary_a_rr(self) -> np.ndarray:
        return np.atleast_1d(self.comps[-1, ..., 0])


def flat_metric(chart: Chart) -> MetricField:
    """The Euclidean metric on the chart."""
    return conformal_metric(chart, np.ones(chart.shape), u0_coeffs=(1.0,))


def flat_laplacian(chart: Chart):
    """Sparse Laplacian of the Euclidean metric on ``chart``, built once per
    grid and kept in ``chart.layouts``: its arrays are read-only."""
    lap = chart.layouts.get("flat-laplacian")
    if lap is None:
        lap = chart.layouts["flat-laplacian"] = flat_metric(chart).laplacian
        for a in (lap.data, lap.indices, lap.indptr):
            a.flags.writeable = False
    return lap


def conformal_factor_from_coeffs(chart: Chart, coeffs) -> np.ndarray:
    """Evaluate u0 = sum_k c_k r^{-k} = sum_k c_k s^k at the nodes."""
    coeffs = [float(c) for c in coeffs]
    s = chart.s_col
    u0 = np.zeros(chart.shape)
    with np.errstate(over="ignore"):  # MetricField rejects inf
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
    with np.errstate(over="ignore"):  # MetricField rejects inf
        fac = u0 ** (4.0 / (n - 2.0))
    comps = np.repeat(fac[..., None], _frame_size(chart), axis=-1)
    return MetricField(chart, comps, conformal_phi=u0, u0_coeffs=u0_coeffs)


def metric_from_spec(spec, chart: Chart) -> MetricField:
    """Instantiate a metric from a specification.

    Accepted forms:

    * ``"flat"``
    * ``"conformal:c0,c1,..."`` or ``{"kind": "conformal", "coeffs": [...]}``
      with u0 = c0 + c1/r + c2/r^2 + ..., c0 == 1 (u0 -> 1 at infinity)
    * ``{"kind": "axisym", "a_rr": array, "a_theta": array, "a_phi": array,
      "decay": q}`` with component tables on the chart, whose s = 0 rows
      (the limits at infinity) are 1, and a declared decay rate q
      (components - 1 = O(r^{-q})).

    Components whose volume density ``_density`` overflows raise
    ``MetricError``.  Axisymmetric tables are decay-checked against the
    declared rate; a measured rate below it by more than DECAY_RATE_SLACK
    raises ``DecayError`` carrying the measured value.
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
        coeffs = _spec_numbers(spec, "coeffs")
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise MetricError("conformal metric spec: 'coeffs' must be a "
                              "nonempty list of numbers")
        if abs(coeffs[0] - 1.0) > FLAT_LIMIT_TOL:
            raise MetricError("conformal u0 must tend to 1 (leading "
                              f"coefficient {coeffs[0]}, expected 1)")
        u0 = conformal_factor_from_coeffs(chart, coeffs)
        g = conformal_metric(chart, u0, u0_coeffs=coeffs)
    elif kind == "axisym":
        if chart.mode != AXISYM:
            raise MetricError("axisym metric spec requires an axisymmetric chart")
        tables = [_spec_floats(spec, k) for k in ("a_rr", "a_theta", "a_phi")]
        if any(t.shape != chart.shape for t in tables):
            raise MetricError("axisym metric spec: component tables must have "
                              f"the grid shape {chart.shape}")
        limit = np.max(np.abs(np.stack(tables)[:, 0] - 1.0))
        if limit > FLAT_LIMIT_TOL:
            raise MetricError("axisym metric spec: the s = 0 row of a table "
                              "is its limit at infinity and must be 1 (off "
                              f"by up to {limit:.3g})")
        declared = (_spec_numbers(spec, "decay") if "decay" in spec
                    else np.float64(chart.n - 2.5))
        if declared.ndim != 0:
            raise MetricError("axisym metric spec: 'decay' must be a number")
        g = MetricField(chart, np.stack(tables, axis=-1))
        _check_decay(g, float(declared))
    else:
        # reprlib: a kind read from JSON may nest deeper than repr recurses
        raise MetricError(f"unknown metric spec kind {reprlib.repr(kind)}")
    # finite components can still overflow the volume density, which every
    # operator and integral on g multiplies by
    with np.errstate(over="ignore"):
        finite = np.all(np.isfinite(_density(g.comps, chart.n)))
    if not finite:
        raise MetricError("metric volume density sqrt(det g) overflows")
    return g


def _spec_floats(spec: dict, key: str) -> np.ndarray:
    """spec[key] as a finite float array, else MetricError."""
    try:
        vals = np.asarray(spec[key], dtype=float)
    except KeyError:
        raise MetricError(f"{spec['kind']} metric spec lacks {key!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise MetricError(f"{spec['kind']} metric spec: {key!r} is not "
                          f"numeric or not a double ({exc})") from exc
    if np.all(np.isfinite(vals)):
        return vals
    raise MetricError(f"{spec['kind']} metric spec: {key!r} is not finite")


def _spec_numbers(spec: dict, key: str) -> np.ndarray:
    """``_spec_floats`` of a short entry (a list of coefficients or a rate),
    in which a boolean is not a number."""
    val = spec.get(key)
    if isinstance(val, bool) or (isinstance(val, list)
                                 and any(isinstance(v, bool) for v in val)):
        raise MetricError(f"{spec['kind']} metric spec: {key!r} holds a "
                          "boolean, not a number")
    return _spec_floats(spec, key)


def _check_decay(g: MetricField, need: float):
    """``g.far_field_fit``; DecayError when q < need - DECAY_RATE_SLACK,
    there is no decay, or the fitted amplitude overflows."""
    fit = g.far_field_fit
    if fit is None:
        return None
    if not np.isfinite(fit.a):
        raise DecayError("metric's far-field amplitude overflows (a = "
                         f"{fit.a}, measured q={fit.q:.3f})",
                         measured_rate=fit.q)
    if fit.status == "no-decay" or (fit.status == "ok"
                                    and fit.q < need - DECAY_RATE_SLACK):
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
    a_phi for one each in axisymmetric mode (n = 3).  Each entry takes its
    power before the product, which then overflows only where the density
    does."""
    tan = comps[..., 1:] ** ((n - 1) / (2.0 * (comps.shape[-1] - 1)))
    return np.sqrt(comps[..., 0]) * (tan[..., 0] if tan.shape[-1] == 1
                                     else tan[..., 0] * tan[..., 1])


def laplace_beltrami(g: MetricField, u: ScalarField) -> ScalarField:
    """Nodal Delta_g u in divergence form.

    Interior nodes use the conservative centered stencil; the r=1 boundary
    uses one-sided differences; the s=0 node carries the asymptotic limit 0
    (all fields of interest have finite limits at infinity).
    """
    if u.chart != g.chart:
        raise ChartError("field and metric live on different charts")
    vals = g.laplacian @ u.values.ravel()
    return ScalarField(g.chart, vals.reshape(g.chart.shape))


def build_laplace_matrix(g: MetricField):
    """Sparse matrix of Delta_g over all nodes, flattened as i * nt + j.

    With W = D s^{1-n} and D = ``_density`` (sqrt(det g) without the flat
    r^{n-1} sin(theta) factor), the divergence form in s = 1/r is

        Delta_g u = (s^2 / W) d/ds (s^2 W / a_rr du/ds)
                    + (s^2 / (D sin)) d/dtheta (D sin / a_theta du/dtheta).

    The stencil is one vectorized build of COO entries on the (ns, nt) node
    grid, and radial mode is the case nt = 1, which has no theta part.
    Interior rows use the conservative centred stencil with
    midpoint-averaged components; the r = 1 row uses a one-sided
    second-order form of the s part; the pole columns use the regularized
    limit (1/sin) d/dth (sin du/dth) -> 2 u_thth for even u, with a
    reflected ghost node.  The s = 0 row is zero.

    The entries (``_laplace_entries``) have positions that depend on the
    chart alone: their CSR layout (``_csr_layout``) is built with the
    chart's first Laplacian and kept in ``Chart.layouts``, and every
    Laplacian sums its values into it, bitwise as scipy's COO-to-CSR
    conversion does.
    """
    import scipy.sparse as sp

    c = g.chart
    if c.s.size < 4:
        raise ChartError("the Laplacian needs at least 4 nodes in s")
    rows, cols, vals = _laplace_entries(g)
    N = c.num_nodes
    layout = c.layouts.get("laplacian")
    if layout is None:
        layout = c.layouts["laplacian"] = _csr_layout(rows, cols, N)
    slot, indptr, indices = layout
    data = np.bincount(slot, weights=np.concatenate(vals),
                       minlength=indices.size)
    return sp.csr_matrix((data, indices, indptr), shape=(N, N))


def _laplace_entries(g: MetricField):
    """COO entries of ``build_laplace_matrix``: lists of row index arrays,
    of column index arrays of the same shapes and of raveled values."""
    c = g.chart
    n, h = c.n, c.ds
    ns, nt = c.s.size, c.nt
    comps = g.comps.reshape(ns, nt, -1)
    D = _density(comps, n)
    s = c.s[:, None]
    idx = np.arange(ns * nt).reshape(ns, nt)
    rows, cols, vals = [], [], []

    def add(row, col, val):
        rows.append(row)
        cols.append(col)
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

    return rows, cols, vals


def _csr_layout(rows, cols, N: int):
    """(slot, indptr, indices), read-only: the N x N CSR pattern of COO
    entries at (rows[k], cols[k]), lists of index arrays of equal shapes.
    The i-th entry of the concatenated values sums into ``data[slot[i]]``,
    in COO order, as scipy's COO-to-CSR conversion sums duplicates, so
    ``np.bincount(slot, weights=values)`` is that conversion's data."""
    key = np.concatenate([(r * N + c).ravel() for r, c in zip(rows, cols)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    slot = np.empty(key.size, dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    key = key[first]
    # scipy's own index type for this size, so matrices keep these arrays
    itype = np.int32 if max(N, key.size) < 2 ** 31 else np.int64
    indptr = np.zeros(N + 1, dtype=itype)
    np.cumsum(np.bincount(key // N, minlength=N), out=indptr[1:])
    indices = (key % N).astype(itype)
    for a in (slot, indptr, indices):
        a.flags.writeable = False
    return slot, indptr, indices


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def scalar_curvature(g: MetricField) -> ScalarField:
    """Scalar curvature R of g.

    A conformal metric g = phi^{4/(n-2)} b uses the conformal identity

        R = phi^{-(n+2)/(n-2)} (R_b phi - (4(n-1)/(n-2)) Delta_b phi)

    relative to its base b.  The flat base has R_b = 0 and the Laplacian
    ``flat_laplacian``; a stored base uses its own R and Laplacian.
    A table metric uses the diagonal-metric formula of
    ``_scalar_curvature_frame``.
    """
    c = g.chart
    n = c.n
    if g.conformal_phi is None:
        if c.mode != AXISYM:
            raise MetricError("general curvature requires axisymmetric mode "
                              "(radial metrics are stored conformally flat)")
        return ScalarField(c, _scalar_curvature_frame(g))
    base, phi = g.conformal_base, g.conformal_phi.values
    if base is None:
        Rb = 0.0
        lap = (flat_laplacian(c) @ phi.ravel()).reshape(c.shape)
    else:
        Rb = base.scalar_curvature.values
        lap = laplace_beltrami(base, g.conformal_phi).values
    R = phi ** (-(n + 2.0) / (n - 2.0)) * (
        Rb * phi - (4.0 * (n - 1) / (n - 2)) * lap)
    R[0] = 0.0
    return ScalarField(c, R)


def _scalar_curvature_frame(g: MetricField) -> np.ndarray:
    """R of an axisymmetric n = 3 metric from its diagonal frame components.

    With f_i = ln sqrt(g_ii) in the coordinates (r, theta, phi), a diagonal
    metric has

        R = -2 sum_i g^ii [ sum_{j != i} (d_i^2 f_j + (d_i f_j)^2
                                          - d_i f_i d_i f_j) + d_i f_j d_i f_k ]

    with j, k in the last term the two indices other than i.  Here
    f_r = q_r, f_theta = ln r + q_theta and f_phi = ln r + ln sin + q_phi,
    q_i = (1/2) ln a_i.  The flat parts are differentiated by hand, so the
    1/sin^2 terms cancel and only the smooth q_i meet a stencil: first
    differences from ``Chart.d_ds`` (d/dr = -s^2 d/ds) and ``Chart.d_dtheta``
    (0 at the poles, as for even q); second differences centred, one-sided
    second order on the first and last rows in s, and on q extended by one
    even ghost column across each pole in theta, where cot(theta) dw/dtheta
    takes its limit d^2w/dtheta^2.  R is 0 on the s = 0 row.
    """
    c = g.chart
    if c.s.size < 4:
        raise ChartError("the curvature needs at least 4 nodes in s")
    h, ht, s = c.ds, c.dtheta, c.s_col
    q = 0.5 * np.log(g.comps)                  # last axis: r, theta, phi
    # d/dr = -s^2 d/ds and d^2/dr^2 = s^4 d^2/ds^2 + 2 s^3 d/ds
    q_s = c.d_ds(q)
    d2 = np.empty_like(q)                      # h^2 d^2q/ds^2
    d2[1:-1] = q[2:] - 2 * q[1:-1] + q[:-2]
    d2[0] = 2 * q[0] - 5 * q[1] + 4 * q[2] - q[3]
    d2[-1] = 2 * q[-1] - 5 * q[-2] + 4 * q[-3] - q[-4]
    sk = s[..., None]                          # s against the last axis
    dr = -sk ** 2 * q_s
    drr = sk ** 4 * d2 / h ** 2 + 2 * sk ** 3 * q_s
    dt = c.d_dtheta(q)
    ext = np.concatenate([q[:, 1:2], q, q[:, -2:-1]], axis=1)
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
    coordinates d/dr = -d/ds at s=1, so H is ``normal_derivative`` of
    ln sqrt(det h).
    """
    c = g.chart
    n = c.n
    # ln sqrt(det h) = (n-1)/(2k) sum ln a_tan + (n-1) ln r  (+ const) over
    # the k tangential entries, which share the n-1 directions equally
    tan = g.comps[..., 1:]
    f = ((n - 1) / (2.0 * tan.shape[-1]) * np.sum(np.log(tan), axis=-1)
         + (n - 1) * np.log(c.s_pow(-1.0, 1.0)))
    return normal_derivative(g, ScalarField(c, f))


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
    """g~ = phi^{4/(n-2)} g.  The factor folds into g's own, so g~ keeps
    g's base: phi_g phi over the flat metric or over a table metric."""
    if phi.chart != g.chart:
        raise ChartError("field and metric live on different charts")
    p = phi.values
    if np.any(p <= 0.0):
        raise PositivityError(
            f"conformal factor must be positive (min {p.min():.3g})")
    n = g.chart.n
    comps = g.comps * (p ** (4.0 / (n - 2.0)))[..., None]
    if g.conformal_phi is None:
        return MetricField(g.chart, comps, conformal_base=g, conformal_phi=p)
    return MetricField(g.chart, comps, conformal_base=g.conformal_base,
                       conformal_phi=g.conformal_phi.values * p)


def check_asymptotic_flatness(g: MetricField):
    """Decay-rate check of g - flat; returns the fit (None for exact flat)."""
    # q >= n - 5/2 means o(r^{5/2-n}) membership
    return _check_decay(g, g.chart.n - 2.5)
