"""Discretized exterior domain and nodal field containers.

The exterior region {r >= 1} is compactified through s = 1/r, so the grid
lives on s in [0, 1]: s = 0 is spatial infinity, s = 1 is the inner boundary
r = 1.  Decay conditions at infinity become exact boundary conditions at
s = 0.  Two modes are supported: purely radial (any dimension n >= 3) and
axisymmetric 2D in (s, theta) for n = 3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError

RADIAL = "radial-1D"
AXISYM = "axisymmetric-2D"

#: charts at most this many nodes across keep the natural order of their
#: interior in ``boundary_last_order``: its band fills less than dissection
#: up to 11 nodes, and more from 13 on (LU fill against minimum degree's:
#: 1.38x against 1.58x at 41x9, 3.32x against 1.37x at 201x65)
BAND_NT = 12


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def _dissection(rows: int, cols: int, stride: int) -> np.ndarray:
    """Nested-dissection order (A. George, SIAM J. Numer. Anal. 10 (1973)
    345-363) of a rows x cols box of a row-major grid, as flat offsets: the
    longer side (rows on ties) is split at its middle line, and the
    separator comes after both halves.  A box one node wide keeps natural
    order.  Boxes of one shape share their relative order."""
    memo = {}

    def order(m, n, sm, sn):  # m x n nodes with strides sm and sn
        if (m, sm) < (n, sn):
            return order(n, m, sn, sm)
        if (m, n, sm) not in memo:
            k = m // 2
            memo[m, n, sm] = (np.arange(m * n) * sm if n <= 1 else
                              np.concatenate([order(k, n, sm, sn),
                                              order(m - k - 1, n, sm, sn)
                                              + (k + 1) * sm,
                                              k * sm + np.arange(n) * sn]))
        return memo[m, n, sm]

    return order(rows, cols, stride, 1)


class Chart:
    """Tensor grid on the compactified exterior domain.

    Parameters
    ----------
    n : int
        Ambient dimension, n >= 3, small enough that the sphere area and
        the powers of r = 1/s that the chart evaluates are finite doubles.
    num_s : int
        Number of nodes in s, at least 3: ``s = np.linspace(0, 1, num_s)``,
        so s[0] = 0 and s[-1] = 1, with step ``ds = s[1]``.
    num_theta : int, optional
        Number of polar-angle nodes, at least 3:
        ``theta = np.linspace(0, pi, num_theta)``, with step
        ``dtheta = theta[1]``.  Presence selects axisymmetric mode, which is
        only supported for n == 3.

    Radial mode is the grid with one theta column: ``nt`` (nodes per s
    level, and on the r=1 boundary) is 1, and ``s_col`` (s shaped to
    broadcast against ``shape``) is s itself; in axisymmetric mode it is
    s[:, None].

    Charts are interned: a call returns the chart of the same counts while
    it is among the ``CHART_CACHE_SIZE`` most recently used, and charts of
    the same counts compare equal.  Data built once has one home:

    * what a chart computes from its own counts (``weights``,
      ``boundary_last_order``) is a cached property of the chart;
    * what another module builds once per grid lives in ``layouts`` under
      that module's key, read-only, and dies with the chart: the CSR
      layouts and flat Laplacian of ``metrics``, the system and LU layouts
      of ``elliptic``, the coordinate text of ``report``;
    * what is built once per metric is a cached property of
      ``metrics.MetricField``.
    """

    def __new__(cls, n, num_s, num_theta=None):
        # checked before the lookup, where 41.0 would find the 41-node chart
        key = (n, num_s) if num_theta is None else (n, num_s, num_theta)
        for name, k in zip(("n", "num_s", "num_theta"), key):
            if not (isinstance(k, (int, np.integer)) and k >= 3):
                raise ChartError(f"{name} must be an integer >= 3, got {k!r}")
        if num_theta is not None and n != 3:
            raise ChartError("axisymmetric mode is only supported for n=3")
        key = tuple(map(int, key))
        # the Laplacian's entries, 5 a row and 6 on r = 1 (one fewer on a
        # pole, 3 and 4 on one radial column), fit SuperLU's 32-bit indices
        ns, nt = key[1], key[2] if num_theta is not None else 1
        if (ns - 2) * (5 * nt - 2) + 6 * nt - 2 >= 2 ** 31:
            raise ChartError(f"the Laplacian of {ns} x {nt} nodes has more "
                             "entries than SuperLU's 32-bit indices hold")
        return _interned(cls, *key)

    def _build(self, n, num_s, num_theta):
        self.n = n
        self._key = (n, num_s, num_theta)
        s = np.linspace(0.0, 1.0, num_s)
        self.ds = float(s[1])
        self.s = s
        self.s.flags.writeable = False

        try:
            area = sphere_area(n)
            # the largest powers of 1/s evaluated on the chart: r^(n+1) of
            # the weights at s = ds, s^(1-n) of the Laplacian at ds/2
            math.pow(self.ds, -(n + 1.0))
            math.pow(0.5 * self.ds, 1.0 - n)
        except OverflowError:
            raise ChartError(f"n = {n} overflows the sphere area or the "
                             f"powers of r = 1/s on a chart of num_s = "
                             f"{num_s} nodes") from None

        if num_theta is None:
            self.mode, self.theta, self.dtheta = RADIAL, None, None
            self.nt, self.s_col = 1, self.s
            self.shape = (s.size,)
            # the one boundary node stands for the whole unit sphere
            self._sphere = (area, np.ones(1))
        else:
            th = np.linspace(0.0, math.pi, num_theta)
            self.dtheta = float(th[1])
            self.mode, self.theta = AXISYM, th
            self.theta.flags.writeable = False
            self.nt, self.s_col = th.size, self.s[:, None]
            self.shape = (s.size, th.size)
            # theta node j stands for the ring of area 2 pi sin(theta_j) dtheta
            self._sphere = (2.0 * math.pi, _trapezoid_weights(th) * np.sin(th))
        self._sphere[1].flags.writeable = False

        with np.errstate(divide="ignore"):
            r = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), np.inf)
        self.r = r
        self.r.flags.writeable = False
        self.layouts = {}

    # -- basic structure ---------------------------------------------------

    @classmethod
    def radial(cls, n: int, num_s: int) -> "Chart":
        """Uniform radial chart with ``num_s`` nodes in s."""
        return cls(n, num_s)

    @classmethod
    def axisymmetric(cls, num_s: int, num_theta: int) -> "Chart":
        """Uniform axisymmetric chart (n=3 only)."""
        return cls(3, num_s, num_theta)

    @property
    def num_nodes(self) -> int:
        return self.s.size * self.nt

    @property
    def boundary_shape(self):
        """Shape of the r=1 boundary slice (last s index)."""
        return (self.nt,)

    def __eq__(self, other):
        return isinstance(other, Chart) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):  # copies and pickles rebuild from the counts
        return type(self), self._key

    def s_pow(self, p: float, at_infinity: float) -> np.ndarray:
        """s^p = r^{-p} shaped like ``s_col``, with ``at_infinity`` at the
        s = 0 node, where s^p has no finite value for p < 0."""
        s = self.s_col
        return np.where(s > 0, np.where(s > 0, s, 1.0) ** p, at_infinity)

    @functools.cached_property
    def boundary_last_order(self) -> np.ndarray:
        """Node order, by flat index, of an LU that eliminates the last three
        s levels last: the s = 0 level, the rest of the interior by
        ``_dissection`` (in natural order up to ``BAND_NT`` nodes across, so
        the identity on radial charts), then those levels, r = 1 last.
        Built once per chart, read-only."""
        nt, N = self.nt, self.num_nodes
        order = np.arange(N)
        if nt > BAND_NT:
            order[nt:N - 3 * nt] = nt + _dissection(self.s.size - 4, nt, nt)
        order.flags.writeable = False
        return order

    # -- quadrature --------------------------------------------------------

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Flat-measure quadrature weights per node.

        sum(w * f) approximates the integral of f over {r >= 1} against the
        Euclidean measure.  The s=0 node has weight 0: its panel contribution
        is recovered through the trapezoid endpoint at the first interior
        node, which is exact in the limit for integrable (decaying) fields.
        Built once per chart, read-only.
        """
        wr = (_trapezoid_weights(self.s).reshape(self.s_col.shape)
              * self.s_pow(-(self.n + 1.0), 0.0))
        area, tw = self._sphere
        w = area * (wr * tw)
        w.flags.writeable = False
        return w

    def sphere_mean(self, values) -> np.ndarray:
        """Mean of each s level over the unit sphere, against the sphere
        weights of ``weights``: the l = 0 profile, one value per s node.  A
        radial field is its own mean."""
        _, tw = self._sphere
        v = np.asarray(values, dtype=float).reshape(self.s.size, self.nt)
        return v @ tw / tw.sum()

    # -- finite differences (background flat derivatives) ------------------

    def d_ds(self, values) -> np.ndarray:
        """d/ds on the uniform grid, second order accurate (one-sided at the
        first and last rows)."""
        return np.gradient(np.asarray(values, dtype=float), self.ds, axis=0,
                           edge_order=2)

    def d_dtheta(self, values) -> np.ndarray:
        """d/dtheta with ghost reflection at theta = 0, pi for regularity."""
        v = np.asarray(values, dtype=float)
        h = self.dtheta
        out = np.zeros_like(v)
        out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
        return out

    def d_dr(self, values) -> np.ndarray:
        """Radial derivative d/dr = -s^2 d/ds; zero at the s=0 node."""
        return -(self.s_col ** 2) * self.d_ds(values)


#: charts that ``Chart`` keeps, least recently used out first; a process
#: that moves between more grids than this rebuilds the data of the others
CHART_CACHE_SIZE = 8


@functools.lru_cache(maxsize=CHART_CACHE_SIZE)
def _interned(cls, n, num_s, num_theta=None):
    """The one chart of these validated counts, built on first use."""
    chart = object.__new__(cls)
    chart._build(n, num_s, num_theta)
    return chart


@dataclass
class ScalarField:
    """Nodal scalar data on a chart."""

    chart: Chart
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.chart.shape:
            raise ChartError(
                f"field shape {self.values.shape} does not match chart "
                f"{self.chart.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ChartError("field values must be finite")

    def boundary_values(self) -> np.ndarray:
        v = self.values[-1]
        return np.atleast_1d(v)


@dataclass
class BoundaryField:
    """Nodal scalar data on the r=1 boundary slice."""

    chart: Chart
    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.shape != self.chart.boundary_shape:
            raise ChartError(
                f"boundary field shape {self.values.shape} does not match "
                f"boundary slice {self.chart.boundary_shape}")
        if not np.all(np.isfinite(self.values)):
            raise ChartError("boundary field values must be finite")

    @classmethod
    def constant(cls, chart: Chart, value: float) -> "BoundaryField":
        return cls(chart, np.full(chart.boundary_shape, float(value)))
