import math
import os
import subprocess
import sys

import numpy as np
import pytest

import scalarflat
from scalarflat import (Chart, ScalarField, conformal_transform,
                        estimate_sobolev_quotient, flat_metric,
                        metric_from_spec, rayleigh_quotient)
from scalarflat import quotient
from scalarflat.errors import ScalarFlatError
from scalarflat.quotient import TRIALS, resolved_trials, trial


def fine_chart():
    return Chart.radial(3, 3001)


def test_trial_vanishes_outside_support():
    c = fine_chart()
    t = trial(c, 3.0, 1.0)
    assert t.values[0] == 0.0    # infinity
    assert t.values[-1] == 0.0   # r = 1
    assert np.max(t.values) > 0.1


def test_family_validation():
    # center-major order: the lowest index wins a tie
    assert len(TRIALS) == 12
    assert TRIALS[0] == (2.0, 0.5)


def test_quotient_rejects_bad_trials():
    c = fine_chart()
    g = flat_metric(c)
    with pytest.raises(ScalarFlatError):
        rayleigh_quotient(g, ScalarField(c, np.zeros(c.shape)))
    with pytest.raises(ScalarFlatError):
        rayleigh_quotient(g, ScalarField(c, np.ones(c.shape)))
    # nonzero, but |f|^6 underflows: the quotient is undefined, not 1/0
    tiny = np.zeros(c.shape)
    tiny[c.shape[0] // 2] = 1e-70
    with pytest.raises(ScalarFlatError):
        rayleigh_quotient(g, ScalarField(c, tiny))


def test_quotient_scale_invariance():
    c = fine_chart()
    g = flat_metric(c)
    t = trial(c, 3.0, 1.0)
    q1 = rayleigh_quotient(g, t)
    q2 = rayleigh_quotient(g, ScalarField(c, 7.0 * t.values))
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_conformal_invariance():
    # Q_g(phi f) = Q_{phi^{4/(n-2)} g}(f)
    c = fine_chart()
    g = flat_metric(c)
    phi = ScalarField(c, 1.0 + c.s)
    gt = conformal_transform(g, phi)
    t = trial(c, 4.0, 1.5)
    q_base = rayleigh_quotient(g, ScalarField(c, phi.values * t.values))
    q_tran = rayleigh_quotient(gt, t)
    assert abs(q_base - q_tran) / abs(q_base) < 1e-6


def test_estimate_deterministic():
    c = fine_chart()
    g = flat_metric(c)
    r1 = estimate_sobolev_quotient(g)
    r2 = estimate_sobolev_quotient(g)
    assert r1 == r2
    q, params, positive = r1
    assert positive and q > 0
    assert params in TRIALS


def test_positive_on_benchmark_metric():
    c = fine_chart()
    g = metric_from_spec({"kind": "conformal", "coeffs": [1.0, 0.0, 1.0]}, c)
    q, params, positive = estimate_sobolev_quotient(g)
    assert positive and q > 0.0
    assert params in TRIALS


@pytest.mark.parametrize("spec", ["flat", "conformal:1,0,1"])
@pytest.mark.parametrize("ns,nt", [(101, 9), (201, 33)])
def test_axisym_quotient_is_radial_times_sphere_weight(spec, ns, nt):
    # a theta-independent metric and trial: the two grids share every
    # integrand, and both integrals carry the axisymmetric sphere weights'
    # sum over the radial 4 pi, so Q_axi = Q_rad (sum w_axi / sum w_rad)^{2/3}
    cr, ca = Chart.radial(3, ns), Chart.axisymmetric(ns, nt)
    gr, ga = metric_from_spec(spec, cr), metric_from_spec(spec, ca)
    factor = (ca.weights.sum() / cr.weights.sum()) ** (2.0 / 3.0)
    for c, w in TRIALS:
        q_rad = rayleigh_quotient(gr, trial(cr, c, w))
        q_axi = rayleigh_quotient(ga, trial(ca, c, w))
        assert q_axi == pytest.approx(q_rad * factor, rel=1e-12, abs=0.0)


def test_unresolved_trials_are_not_evaluated(monkeypatch):
    # on 41 s nodes (h = 0.025) five trials are under two cells wide in s,
    # (8, 0.5) among them
    g = flat_metric(Chart.radial(3, 41))
    assert (8.0, 0.5) not in resolved_trials(g.chart)
    assert len(resolved_trials(g.chart)) == len(TRIALS) - 5
    seen = []
    monkeypatch.setattr(quotient, "trial",
                        lambda chart, c, w: seen.append((c, w))
                        or trial(chart, c, w))
    _, params, _ = estimate_sobolev_quotient(g)
    assert seen == resolved_trials(g.chart) and params != (8.0, 0.5)
    # no trial is resolved on 4 nodes (h = 1/3), and only (2, 2) on 5
    assert resolved_trials(Chart.radial(3, 4)) == []
    assert resolved_trials(Chart.radial(3, 5)) == [(2.0, 2.0)]
    with pytest.raises(ScalarFlatError):
        estimate_sobolev_quotient(flat_metric(Chart.radial(3, 4)))


@pytest.mark.parametrize("ns", [401, 801])
def test_nothing_skipped_from_401_nodes(ns):
    # the minimum over the whole family, bit for bit
    g = metric_from_spec("conformal:1,0,1", Chart.radial(3, ns))
    assert resolved_trials(g.chart) == list(TRIALS)
    quotients = [rayleigh_quotient(g, trial(g.chart, c, w)) for c, w in TRIALS]
    q, params, _ = estimate_sobolev_quotient(g)
    assert q == min(quotients)
    assert params == TRIALS[int(np.argmin(quotients))]


def test_quotient_is_second_order():
    q = {ns: estimate_sobolev_quotient(
        metric_from_spec("conformal:1,0,1", Chart.radial(3, ns)))[0]
        for ns in (401, 801, 3201)}
    order = math.log2(abs(q[401] - q[3201]) / abs(q[801] - q[3201]))
    assert abs(order - 2.0) <= 0.2, (q, order)


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    code = ("import sys, scalarflat.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    # the child imports the package this test imported, however it is found
    root = os.path.dirname(os.path.dirname(scalarflat.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=root)).stdout
    assert out.strip() == "[]"
