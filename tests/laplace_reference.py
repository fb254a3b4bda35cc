"""Node-by-node reference for ``metrics.build_laplace_matrix``.

The loop form of the Laplace-Beltrami stencil that the vectorized builder
replaced: separate radial and axisymmetric branches, a Python loop over the
nodes and a dict per row.  Tests compare the vectorized matrix against it.
"""

import numpy as np
import scipy.sparse as sp

from scalarflat.chart import RADIAL


def sqrt_det_radial(g):
    """sqrt(det g) in r-coordinates, without the angular flat factor.

    Radial mode: sqrt(A) * B^{(n-1)/2} * r^{n-1}.  Axisym mode includes
    sin(theta): sqrt(a_rr a_th a_ph) * r^2 * sin(theta).  The r factors
    are expressed through s (r = 1/s); the value at s = 0 is +inf and
    callers must not use that row.
    """
    c = g.chart
    with np.errstate(divide="ignore"):
        rf = np.where(c.s > 0, np.where(c.s > 0, c.s, 1.0)
                      ** (1.0 - c.n), np.inf)
    if c.mode == RADIAL:
        return (np.sqrt(g.comps[..., 0])
                * g.comps[..., 1] ** ((c.n - 1) / 2.0) * rf)
    prod = np.sqrt(np.prod(g.comps, axis=-1))
    with np.errstate(invalid="ignore"):
        # inf * sin(0) = nan at the pole corners of the s=0 row; that
        # row is never used, keep it at +inf for safety
        out = prod * rf[:, None] * np.sin(c.theta)[None, :]
    out[0, :] = np.inf
    return out


def laplace_coefficients(g):
    """Midpoint flux coefficients for the divergence-form operator.

    In s coordinates the radial part of Delta_g is

        (s^2 / W) d/ds ( s^2 W g^{rr} du/ds ),   W = sqrt(det g)|_r-coords,

    and the angular part (axisym) is (1/W) d/dtheta (W g^{thth} du/dtheta).
    Returns (mu_s at s-midpoints, mu_t at theta-midpoints or None, W at
    nodes); the s=0 row of W is +inf and is never used by callers.
    """
    c = g.chart
    W = sqrt_det_radial(g)

    smid = 0.5 * (c.s[:-1] + c.s[1:])
    if c.mode == RADIAL:
        A = g.comps[..., 0]
        B = g.comps[..., 1]
        Amid = 0.5 * (A[:-1] + A[1:])
        Bmid = 0.5 * (B[:-1] + B[1:])
        Wmid = np.sqrt(Amid) * Bmid ** ((c.n - 1) / 2.0) * smid ** (1.0 - c.n)
        mu_s = smid ** 2 * Wmid / Amid
        return mu_s, None, W

    A = g.comps[..., 0]
    T = g.comps[..., 1]
    P = g.comps[..., 2]
    sin = np.sin(c.theta)[None, :]
    # s-direction midpoints
    Am = 0.5 * (A[:-1] + A[1:])
    Tm = 0.5 * (T[:-1] + T[1:])
    Pm = 0.5 * (P[:-1] + P[1:])
    Wm = (np.sqrt(Am * Tm * Pm) * (smid ** -2.0)[:, None] * sin)
    mu_s = (smid ** 2)[:, None] * Wm / Am
    # theta-direction midpoints: g^{thth} = 1/(T r^2) = s^2 / T
    tmid_sin = np.sin(0.5 * (c.theta[:-1] + c.theta[1:]))[None, :]
    Am2 = 0.5 * (A[:, :-1] + A[:, 1:])
    Tm2 = 0.5 * (T[:, :-1] + T[:, 1:])
    Pm2 = 0.5 * (P[:, :-1] + P[:, 1:])
    with np.errstate(divide="ignore"):
        s2 = np.where(c.s > 0, np.where(c.s > 0, c.s, 1.0) ** -2.0, np.inf)
    Wm2 = np.sqrt(Am2 * Tm2 * Pm2) * s2[:, None] * tmid_sin
    with np.errstate(invalid="ignore"):
        # the s=0 row is 0 * inf; it is never referenced by the assembly
        mu_t = np.nan_to_num(Wm2 * (c.s ** 2)[:, None] / Tm2)
    return mu_s, mu_t, W


def loop_laplace_matrix(g):
    """Sparse matrix of Delta_g over all nodes (s=0 row is zero)."""
    c = g.chart
    h = c.ds
    mu_s, mu_t, W = laplace_coefficients(g)

    if c.mode == RADIAL:
        ns = c.s.size
        pref = np.zeros(ns)
        pref[1:] = c.s[1:] ** 2 / W[1:]
        rows, cols, vals = [], [], []
        for i in range(1, ns - 1):
            a = pref[i] * mu_s[i - 1] / h ** 2
            b = pref[i] * mu_s[i] / h ** 2
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [a, -(a + b), b]
        # one-sided non-conservative row at s = 1
        i = ns - 1
        A = g.comps[:, 0]
        grr = 1.0 / A
        with np.errstate(invalid="ignore"):
            mu_nodal = np.nan_to_num(c.s ** 2 * W * grr)  # finite at s=1
        dmu = (3 * mu_nodal[i] - 4 * mu_nodal[i - 1] + mu_nodal[i - 2]) / (2 * h)
        p = pref[i]
        # Delta u = pref * (dmu * u_s + mu * u_ss), one-sided 2nd order
        cu_s = np.array([1.0, -4.0, 3.0]) / (2 * h)          # u_{i-2},u_{i-1},u_i
        cu_ss = np.array([-1.0, 4.0, -5.0, 2.0]) / h ** 2    # u_{i-3}..u_i
        for k, coef in zip([i - 2, i - 1, i], p * dmu * cu_s):
            rows.append(i); cols.append(k); vals.append(coef)
        for k, coef in zip([i - 3, i - 2, i - 1, i], p * mu_nodal[i] * cu_ss):
            rows.append(i); cols.append(k); vals.append(coef)
        return sp.csr_matrix((vals, (rows, cols)), shape=(ns, ns))

    # axisymmetric: unknowns flattened as idx = i * nt + j
    ns, nt = c.shape
    ht = c.dtheta

    def idx(i, j):
        return i * nt + j

    pref = np.zeros((ns, nt))
    with np.errstate(divide="ignore"):
        pref[1:] = np.where(W[1:] > 0, 1.0 / np.where(W[1:] > 0, W[1:], 1.0),
                            0.0)

    # sin-free density for the radial fluxes: sin(theta) is constant along s
    # and cancels in (1/W) d/ds (W ...), so using it keeps the pole columns
    # (sin = 0) finite.
    A3, T3, P3 = (g.comps[..., k] for k in range(3))
    smid = 0.5 * (c.s[:-1] + c.s[1:])
    Am = 0.5 * (A3[:-1] + A3[1:])
    Tm = 0.5 * (T3[:-1] + T3[1:])
    Pm = 0.5 * (P3[:-1] + P3[1:])
    Wm_ns = np.sqrt(Am * Tm * Pm) * (smid ** -2.0)[:, None]
    mu_s_ns = (smid ** 2)[:, None] * Wm_ns / Am
    Wn_ns = np.ones((ns, nt))
    Wn_ns[1:] = (np.sqrt(A3 * T3 * P3)[1:]
                 * (c.s[1:] ** -2.0)[:, None])
    pref_s = np.zeros((ns, nt))
    pref_s[1:] = 1.0 / Wn_ns[1:]

    rows, cols, vals = [], [], []
    for i in range(1, ns):
        for j in range(nt):
            entries = {}

            def add(k, v):
                entries[k] = entries.get(k, 0.0) + v

            if i < ns - 1:
                # conservative s-fluxes
                a = c.s[i] ** 2 * pref_s[i, j] * mu_s_ns[i - 1, j] / h ** 2
                b = c.s[i] ** 2 * pref_s[i, j] * mu_s_ns[i, j] / h ** 2
                add(idx(i - 1, j), a)
                add(idx(i, j), -(a + b))
                add(idx(i + 1, j), b)
            else:
                # one-sided at s=1 per theta column
                grr = 1.0 / A3[:, j]
                mu_nodal = c.s ** 2 * Wn_ns[:, j] * grr
                dmu = (3 * mu_nodal[i] - 4 * mu_nodal[i - 1]
                       + mu_nodal[i - 2]) / (2 * h)
                p = c.s[i] ** 2 * pref_s[i, j]
                cu_s = np.array([1.0, -4.0, 3.0]) / (2 * h)
                cu_ss = np.array([-1.0, 4.0, -5.0, 2.0]) / h ** 2
                for k, coef in zip([i - 2, i - 1, i], p * dmu * cu_s):
                    add(idx(k, j), coef)
                for k, coef in zip([i - 3, i - 2, i - 1, i],
                                   p * mu_nodal[i] * cu_ss):
                    add(idx(k, j), coef)

            # theta part with pole ghost reflection (d/dtheta = 0 at poles)
            if 0 < j < nt - 1:
                a = pref[i, j] * mu_t[i, j - 1] / ht ** 2
                b = pref[i, j] * mu_t[i, j] / ht ** 2
                add(idx(i, j - 1), a)
                add(idx(i, j), -(a + b))
                add(idx(i, j + 1), b)
            else:
                # at the pole 1/W ~ 1/sin(theta) degenerates; use the
                # regularized limit (1/sin) d/dth (sin du/dth) -> 2 u_thth
                # for even u, discretized with the reflected ghost node.
                T = g.comps[i, j, 1]
                s2 = c.s[i] ** 2
                coef = 2.0 * (s2 / T) * 2.0 / ht ** 2
                jn = j + 1 if j == 0 else j - 1
                add(idx(i, jn), coef)
                add(idx(i, j), -coef)

            for k, v in entries.items():
                rows.append(idx(i, j)); cols.append(k); vals.append(v)

    N = ns * nt
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
