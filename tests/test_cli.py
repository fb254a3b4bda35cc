import contextlib
import gc
import io
import json
import os
import sys
import tempfile
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalarflat.chart as chart_mod
import scalarflat.dirichlet as dirichlet
import scalarflat.elliptic as elliptic
import scalarflat.meancurv as meancurv
from scalarflat.cli import (MODES, build_parser, check_args, main, parse_f,
                            parse_grid, run_job)
from scalarflat.chart import Chart
from scalarflat.errors import ConfigError
from scalarflat.report import load_report
from scalarflat.weighted import MIN_S_NODES


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report = None
    if (out / "report.json").exists():
        report = load_report(out / "report.json")
    return code, report, out


def test_parse_grid():
    assert parse_grid("51", 3).shape == (51,)
    assert parse_grid("41x9", 3).shape == (41, 9)
    assert parse_grid(str(MIN_S_NODES), 3).shape == (MIN_S_NODES,)
    for text in (str(MIN_S_NODES - 1), f"{MIN_S_NODES - 1}x9"):
        with pytest.raises(ConfigError):
            parse_grid(text, 3)
    with pytest.raises(ConfigError):
        parse_grid("41x9", 4)
    with pytest.raises(ConfigError):
        parse_grid("banana", 3)


def test_parse_f_forms(tmp_path):
    c = Chart.axisymmetric(11, 5)
    assert np.all(parse_f(0.25, c).values == 0.25)
    series = parse_f("cos:1,0,2", c).values
    assert series == pytest.approx(1.0 + 2.0 * np.cos(c.theta) ** 2)
    path = tmp_path / "f.csv"
    path.write_text("\n".join(str(0.1 * k) for k in range(5)) + "\n")
    csvf = parse_f(f"csv:{path}", c).values
    assert csvf == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ConfigError):
        parse_f("nonsense", c)


def test_dirichlet_flat_mode(tmp_path):
    code, report, out = run(tmp_path, "--mode", "dirichlet", "--grid", "101")
    assert code == 0
    assert report["mode"] == "dirichlet"
    assert report["passed"] is True
    assert report["extrema"]["min_phi"] == pytest.approx(1.0, abs=1e-10)
    assert report["residuals"]["scalar_curvature_Linf_interior"] <= 1e-10
    assert (out / "fields.csv").exists()


def test_dirichlet_mode_factorizes_once(tmp_path, monkeypatch):
    # min phi > 0 of the one solve certifies the whole lambda-family, so
    # the run makes one factorization and no sweep
    counts = {"factorizations": 0, "sweeps": 0}
    sweep = dirichlet.lambda_sweep

    class CountingFactorization(elliptic.Factorization):
        def __init__(self, system):
            counts["factorizations"] += 1
            super().__init__(system)

    def counting_sweep(*args, **kwargs):
        counts["sweeps"] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(elliptic, "Factorization", CountingFactorization)
    for name, module in list(sys.modules.items()):
        if (name.startswith("scalarflat")
                and getattr(module, "lambda_sweep", None) is sweep):
            monkeypatch.setattr(module, "lambda_sweep", counting_sweep)
    code, report, _ = run(tmp_path, "--mode", "dirichlet", "--grid", "201",
                          "--metric", "conformal:1,0,1")
    assert code == 0 and report["passed"] is True
    assert counts == {"factorizations": 1, "sweeps": 0}


def test_meancurv_mode_benchmark(tmp_path):
    code, report, _ = run(tmp_path, "--mode", "meancurv", "--grid", "201",
                          "--f", "0.1", "--beta", "3")
    assert code == 0
    assert report["decay"]["a"] == pytest.approx(0.1535, rel=0.02)


def test_quotient_mode(tmp_path):
    code, report, _ = run(tmp_path, "--mode", "quotient", "--grid", "1501")
    assert code == 0
    assert report["residuals"]["quotient_upper_bound"] > 0
    assert report["checks"]["positivity_evidence"] is True


def test_oracle_mode(tmp_path):
    code, report, _ = run(tmp_path, "--mode", "oracle", "--f", "0.1",
                          "--beta", "3")
    assert code == 0
    assert report["extrema"]["a_coefficient"] == pytest.approx(0.1535,
                                                               rel=0.001)


def test_convergence_mode(tmp_path):
    # the job's grid and its nested refinements, which halve h exactly
    code, report, _ = run(tmp_path, "--mode", "convergence-study",
                          "--metric", "conformal:1,0,1")
    assert code == 0
    assert report["checks"]["second_order"] is True
    assert report["iterations"]["grids"] == [201, 401, 801]
    assert all(3.9 <= r <= 4.1 for r in report["extrema"]["ratios"])


def test_exit_code_config_error(tmp_path):
    assert main(["--mode", "dirichlet", "--grid", "oops"]) == 2


@pytest.mark.parametrize("make_argv", [
    lambda d: ["--max-iter", "5"],
], ids=["flag"])
def test_max_iter_knob_is_gone(tmp_path, capsys, make_argv):
    # Newton's step cap is meancurv.MAX_MONOTONE_STEPS; no input sets it
    argv = ["--mode", "meancurv", "--f", "0.1", "--beta", "3",
            *make_argv(tmp_path), "--out", str(tmp_path / "o")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "max-iter" in err or "max_iter" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("make_argv", [
    lambda d: ["--tol", "1e-4"],
    lambda d: ["--tol", "-1"],
    lambda d: ["--tol", "nan"],
    lambda d: ["--tol", "0"],
], ids=["flag", "flag-negative", "flag-nan", "flag-zero"])
def test_tol_knob_is_gone(tmp_path, capsys, make_argv):
    # the linear backward-error bound is elliptic.BACKWARD_ERROR_TOL; no
    # input sets it
    argv = ["--mode", "meancurv", "--target", "0.03",
            *make_argv(tmp_path), "--out", str(tmp_path / "o")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "tol" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    None, '{"mode": "dirichlet", "grid": "41"}', "{'grid': 41",
], ids=["missing", "valid", "junk"])
def test_config_flag_is_gone(tmp_path, capsys, text):
    # a job is its flags; no file restates them
    path = tmp_path / "job.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--config" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("--grid", "81x17", "--f", "cos:-0.5,0.6", "--beta", "3"),
    ("--grid", "81x17", "--f", "cos:-1,1.05", "--beta", "3"),
    ("--grid", "1601", "--metric", "conformal:1,0.8,0.8", "--target", "0.072"),
], ids=["mixed-sign-f", "mixed-sign-f-wide", "radial-target-0.072"])
def test_meancurv_inputs_the_picard_iteration_failed(tmp_path, capsys, argv):
    # Picard exited 3 on all three: with mixed-sign f its weight let h
    # decrease ("monotonicity violated at iteration 2"), and t = 0.072 is
    # so close to the fold (2/27) that it hit the 500-step cap
    code, report, _ = run(tmp_path, "--mode", "meancurv", *argv)
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0 and report["passed"] is True
    assert all(report["checks"].values())
    assert report["iterations"]["monotone"] <= 10


@pytest.mark.parametrize("argv", [
    ("--mode", "meancurv", "--grid", "41x9", "--f", "cos:0.05,0.02",
     "--beta", "3"),
    ("--mode", "meancurv", "--grid", "41x9", "--target", "-1"),
    ("--mode", "quotient", "--grid", "81x17"),
], ids=["meancurv-robin", "meancurv-target", "quotient"])
def test_axisym_modes_run(tmp_path, capsys, argv):
    code, report, _ = run(tmp_path, *argv)
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0 and report["passed"] is True


@pytest.mark.parametrize("grid", ["101", "41x9"])
def test_decay_blocks_share_one_key_set(tmp_path, grid):
    # phi - 1 and u - 1, both built in the library with the same targets
    blocks = {}
    for mode, extra in (("dirichlet", ("--metric", "conformal:1,0,1")),
                        ("meancurv", ("--target", "-1"))):
        code, report, _ = run(tmp_path / mode, "--mode", mode, "--grid",
                              grid, *extra)
        assert code == 0
        blocks[mode] = report["decay"]
    assert set(blocks["dirichlet"]) == set(blocks["meancurv"]) == {
        "u_inf", "a", "q", "residual", "status", "target_harmonic_q",
        "target_weight_q"}
    assert blocks["meancurv"]["target_harmonic_q"] == 1.0
    assert blocks["meancurv"]["u_inf"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("--mode", "dirichlet", "--grid", "101", "--metric", "conformal:1,0,1"),
    ("--mode", "dirichlet", "--grid", "41x9"),
    ("--mode", "meancurv", "--grid", "101", "--f", "0.1", "--beta", "3"),
    ("--mode", "meancurv", "--grid", "41x9", "--target", "-1"),
    ("--mode", "quotient", "--grid", "81"),
    ("--mode", "oracle", "--f", "0.1", "--beta", "3"),
    ("--mode", "oracle", "--metric", "conformal:1,0,1"),
    ("--mode", "convergence-study", "--metric", "conformal:1,0,1"),
], ids=["dirichlet", "dirichlet-axisym", "meancurv-robin", "meancurv-target",
        "quotient", "oracle-meancurv", "oracle-dirichlet", "convergence"])
def test_no_report_check_that_cannot_fail(tmp_path, argv):
    # the solvers raise before a report exists when any of these is False
    code, report, _ = run(tmp_path, *argv)
    assert code == 0 and report["schema_version"] == 2
    assert not {"phi_positive", "u_positive", "sandwich"} & set(
        report["checks"])


def test_axisym_reports_carry_far_field_diagnostics(tmp_path):
    code, report, _ = run(tmp_path / "m", "--mode", "meancurv", "--grid",
                          "41x9", "--target", "-1")
    assert code == 0 and report["decay"]["status"] == "ok"
    code, report, _ = run(tmp_path / "d", "--mode", "dirichlet", "--grid",
                          "41x9", "--metric", "conformal:1,0,1")
    assert code == 0 and report["decay"]["status"] == "ok"
    assert report["mass_coefficient"] == pytest.approx(2.0, rel=0.01)


def test_axisym_quotient_close_to_radial(tmp_path):
    # a theta-independent metric: the two grids differ only by the theta
    # quadrature, O(h_theta^2)
    q = {}
    for grid in ("201", "201x33"):
        code, report, _ = run(tmp_path / grid, "--mode", "quotient",
                              "--grid", grid,
                              "--metric", "conformal:1,0.5,0.5")
        assert code == 0
        q[grid] = report["residuals"]["quotient_upper_bound"]
    assert q["201x33"] == pytest.approx(q["201"], rel=0.01)


def test_quotient_skips_unresolved_trials(tmp_path):
    # on 41 s nodes the (8, 0.5) bump is a third of a cell wide in s and
    # used to win the minimum; the report counts the trials it skipped
    code, report, _ = run(tmp_path / "coarse", "--mode", "quotient",
                          "--grid", "41x9")
    assert code == 0
    params = (report["extrema"]["argmin_center"],
              report["extrema"]["argmin_width"])
    assert params != (8.0, 0.5)
    assert report["iterations"]["trials_skipped"] == 5
    code, report, _ = run(tmp_path / "fine", "--mode", "quotient",
                          "--grid", "401")
    assert code == 0 and report["iterations"]["trials_skipped"] == 0


def _json_file(directory, doc):
    return _metric_file(directory, json.dumps(doc).encode())


def _metric_file(directory, data):
    path = directory / "metric.json"
    path.write_bytes(data)
    return str(path)


ONES = np.ones((41, 5)).tolist()


def _far_field_overflow(directory):
    """A 41x9 table metric whose decay fit's amplitude is past the largest
    double: a_rr = 1 + 1e310 s^2 e^(-10 s), taken in logs, is finite (at
    most 5.4e307), and a_theta = a_phi = 1."""
    s = np.linspace(0.0, 1.0, 41)[1:, None]
    a_rr = np.ones((41, 9))
    a_rr[1:] += np.exp(310.0 * np.log(10.0) + 2.0 * np.log(s) - 10.0 * s)
    ones = np.ones((41, 9)).tolist()
    return _json_file(directory, {"kind": "axisym", "a_rr": a_rr.tolist(),
                                  "a_theta": ones, "a_phi": ones, "decay": 2})


def _table_metric(directory, a_rr):
    """A 41x9 table metric of this a_rr, with a_theta = a_phi = 1."""
    ones = np.ones((41, 9)).tolist()
    return _json_file(directory, {"kind": "axisym", "a_rr": a_rr,
                                  "a_theta": ones, "a_phi": ones, "decay": 2})


def _int_beyond_double_table(directory):
    a_rr = np.ones((41, 9)).tolist()
    a_rr[20][4] = 10 ** 400
    return _table_metric(directory, a_rr)


def _quotient_family(family):
    return lambda d: ["--config", _json_file(d, {
        "mode": "quotient", "grid": "81", "family": family})]


# The --config cases are files whose values the removed config channel
# rejected (its grids and family keys are gone with it); the flag is now an
# argparse usage error, and each of them still exits 2.
@pytest.mark.parametrize("make_argv", [
    lambda d: ["--metric", _json_file(d, {"kind": "conformal"})],
    lambda d: ["--metric", _json_file(d, [1.0, 0.5])],
    lambda d: ["--metric", "conformal:1,abc"],
    lambda d: ["--grid", "41x5", "--metric",
               _json_file(d, {"kind": "axisym", "a_rr": ONES, "a_phi": ONES})],
    lambda d: ["--mode", "oracle", "--f", "cos:1", "--beta", "3"],
    lambda d: ["--mode", "meancurv", "--grid", "41x5", "--f", "cos:abc",
               "--beta", "3"],
    lambda d: ["--grid", "2"],
    lambda d: ["--grid=-5"],
    lambda d: ["--n-dim", "2"],
    lambda d: ["--mode", "meancurv", "--f", "0.1", "--beta", "inf"],
    lambda d: ["--mode", "meancurv", "--f", "0.1", "--beta", "0"],
    lambda d: ["--mode", "meancurv", "--target", "nan"],
    lambda d: ["--grid", "3"],
    lambda d: ["--grid", "3x9"],
    lambda d: ["--config", _json_file(d, {"lambda_steps": "x"})],
    lambda d: ["--config", _json_file(d, {"tol": "1e-8"})],
    # too coarse for the far-field decay fit (these exited 3)
    lambda d: ["--grid", "4"],
    lambda d: ["--grid", "20"],
    lambda d: ["--grid", "36"],
    lambda d: ["--grid", "40"],
    lambda d: ["--grid", "21x9", "--metric", "conformal:1,0,1"],
    lambda d: ["--mode", "meancurv", "--grid", "36", "--target", "0.03"],
    # a dimension of the wrong type, and the removed convention key with
    # a value that it accepted and one that it did not (config files)
    lambda d: ["--config", _json_file(d, {"n": "3"})],
    lambda d: ["--config", _json_file(d, {"convention": "bogus",
                                          "mode": "meancurv",
                                          "target": 0.03})],
    lambda d: ["--config", _json_file(d, {"convention": "paper-eq7",
                                          "mode": "meancurv",
                                          "target": 0.03})],
    # the oracles are radial (these exited 3)
    lambda d: ["--mode", "oracle", "--grid", "41x9", "--metric",
               "conformal:1,0,1"],
    lambda d: ["--mode", "oracle", "--grid", "41x9", "--f", "0.1",
               "--beta", "3"],
    # convergence-study grids and the quotient family of the wrong type
    # (config files; these exited 1 or 3)
    lambda d: ["--config", _json_file(d, {
        "mode": "convergence-study", "metric": "conformal:1,0,1",
        "grids": ["a", 101]})],
    lambda d: ["--config", _json_file(d, {
        "mode": "convergence-study", "metric": "conformal:1,0,1",
        "grids": 7})],
    lambda d: ["--config", _json_file(d, {
        "mode": "convergence-study", "metric": "conformal:1,0,1",
        "grids": [11, 21]})],
    lambda d: ["--config", _json_file(d, {"mode": "quotient", "family": 5})],
    lambda d: ["--config", _json_file(d, {"mode": "quotient",
                                          "family": {"budget": "x"}})],
    # quotient family values of the right type but out of range (config
    # files; these exited 3, and widths [-1] ran to exit 0)
    _quotient_family({"r_in": 0.5}),
    _quotient_family({"r_out": 1.2}),
    _quotient_family({"cutoff_width": 0}),
    _quotient_family({"cutoff_width": -1}),
    _quotient_family({"widths": [0]}),
    _quotient_family({"widths": [-1]}),
    # a boundary datum that is not finite or not a number (these exited 0,
    # 3 or 4), and the oracle with only one of --f and --beta (exited 0)
    lambda d: ["--mode", "oracle", "--f", "nan", "--beta", "3"],
    lambda d: ["--mode", "oracle", "--f", "inf", "--beta", "3"],
    lambda d: ["--config", _json_file(d, {"mode": "oracle", "f": True,
                                          "beta": 3})],
    lambda d: ["--mode", "meancurv", "--grid", "41x9", "--f", "nan",
               "--beta", "3"],
    lambda d: ["--mode", "meancurv", "--grid", "41x9", "--f", "inf",
               "--beta", "3"],
    lambda d: ["--mode", "meancurv", "--grid", "41x9", "--f", "cos:nan",
               "--beta", "3"],
    lambda d: ["--mode", "meancurv", "--grid", "41x9", "--f",
               "cos:1e308,1e308", "--beta", "3"],
    lambda d: ["--mode", "oracle", "--grid", "101", "--f", "0.1"],
    lambda d: ["--mode", "oracle", "--grid", "101", "--beta", "3"],
    # boundary data that the mode does not read (these exited 0)
    lambda d: ["--mode", "meancurv", "--grid", "101", "--target", "0.03",
               "--f", "0.5", "--beta", "3"],
    lambda d: ["--mode", "dirichlet", "--grid", "41", "--f", "abc"],
    lambda d: ["--mode", "quotient", "--grid", "81", "--target", "1"],
    # a dimension whose sphere area or powers of r overflow the chart
    # (exited 1 with a traceback, and 3 after RuntimeWarnings)
    lambda d: ["--n-dim", "400"],
    lambda d: ["--grid", "201", "--n-dim", "120"],
    # a boolean in a short metric entry (these exited 0)
    lambda d: ["--metric", _json_file(d, {"kind": "conformal",
                                          "coeffs": [True, 0.5]})],
    lambda d: ["--grid", "41x5", "--metric",
               _json_file(d, {"kind": "axisym", "a_rr": ONES,
                              "a_theta": ONES, "a_phi": ONES,
                              "decay": True})],
    # convergence grids that do not increase (config files; these exited 4)
    lambda d: ["--config", _json_file(d, {
        "mode": "convergence-study", "metric": "conformal:1,0,1",
        "grids": [41, 41]})],
    lambda d: ["--config", _json_file(d, {
        "mode": "convergence-study", "metric": "conformal:1,0,1",
        "grids": [400, 200, 100]})],
    # a metric file that is not UTF-8 or nests too deep (these exited 1),
    # and a conformal factor whose power overflows (exit 2 after a
    # RuntimeWarning)
    lambda d: ["--metric", _metric_file(d, b"\xff\xfe{}")],
    lambda d: ["--metric", _metric_file(d, b"[" * 100000 + b"]" * 100000)],
    lambda d: ["--metric", "conformal:1,1e80"],
    # finite components whose volume density overflows (exited 3 after
    # RuntimeWarnings, "Factor is exactly singular"): u0^4 ~ 1e240 and a
    # density ~ 1e360 on both grids
    lambda d: ["--grid", "41", "--metric", "conformal:1,1e60"],
    lambda d: ["--grid", "41x9", "--metric", "conformal:1,1e60"],
    # a dimension that the job's grid holds but its refinement does not
    # (exited 3)
    lambda d: ["--mode", "convergence-study", "--grid", "201", "--n-dim",
               "110"],
    # a far-field amplitude that overflows (exited 1: OverflowError in
    # decay_fit)
    lambda d: ["--mode", "dirichlet", "--grid", "41x9", "--metric",
               _far_field_overflow(d)],
    # a table whose limit at infinity is not the flat metric (exited 0 with
    # far-field fit status "constant", and "ok" at q ~ 2)
    lambda d: ["--mode", "dirichlet", "--grid", "41x9", "--metric",
               _table_metric(d, np.full((41, 9), 4.0).tolist())],
    lambda d: ["--mode", "dirichlet", "--grid", "41x9", "--metric",
               _table_metric(d, np.repeat(
                   4.0 + np.linspace(0.0, 1.0, 41)[:, None] ** 2, 9,
                   axis=1).tolist())],
    # an integer beyond the double range in a metric file (exited 1:
    # OverflowError)
    lambda d: ["--grid", "41", "--metric",
               _json_file(d, {"kind": "conformal", "coeffs": [1, 10 ** 400]})],
    lambda d: ["--grid", "41x9", "--metric", _int_beyond_double_table(d)],
    # node counts whose Laplacian SuperLU cannot index (exited 1: "Maximum
    # allowed size exceeded"; the second asked numpy for 745 GiB)
    lambda d: ["--grid", "99999999999999999999"],
    lambda d: ["--grid", "41x99999999999"],
], ids=["conformal-no-coeffs", "json-list", "bad-coefficient",
        "axisym-no-a_theta", "oracle-cos-f", "bad-cos-f", "grid-2",
        "grid-negative",
        "dimension-2", "beta-inf",
        "beta-zero", "target-nan", "grid-3", "grid-3x9",
        "config-lambda-steps-string", "config-tol-string",
        "grid-4", "grid-20", "grid-36", "grid-40", "grid-21x9-conformal",
        "meancurv-grid-36", "config-n-string", "config-convention-bogus",
        "config-convention-paper-eq7", "oracle-axisym-dirichlet",
        "oracle-axisym-meancurv",
        "grids-string", "grids-number", "grids-too-coarse", "family-number",
        "family-budget-string", "family-r_in-0.5", "family-r_out-1.2",
        "family-cutoff-0", "family-cutoff-negative", "family-width-0",
        "family-width-negative", "oracle-f-nan", "oracle-f-inf",
        "config-oracle-f-true", "meancurv-f-nan", "meancurv-f-inf",
        "meancurv-f-cos-nan", "meancurv-f-cos-overflow", "oracle-f-only",
        "oracle-beta-only", "meancurv-target-and-f-beta", "dirichlet-f",
        "quotient-target", "n-dim-400", "grid-201-n-dim-120",
        "conformal-coeffs-bool", "axisym-decay-bool", "grids-repeated",
        "grids-decreasing", "metric-not-utf8", "metric-too-deep",
        "conformal-overflow", "density-overflow", "density-overflow-axisym",
        "convergence-n-dim-110", "far-field-amplitude-overflow",
        "table-limit-not-flat-4", "table-limit-not-flat-4+s2",
        "json-int-beyond-double-coeffs", "json-int-beyond-double-table",
        "grid-count-beyond-index", "grid-count-beyond-index-41x99999999999"])
def test_malformed_input_is_config_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    try:
        code = main(argv + ["--out", str(tmp_path / "o")])
    except SystemExit as exc:  # argparse rejects the removed --config flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert ("unrecognized arguments: --config" if "--config" in argv
            else "config error") in err


@pytest.mark.parametrize("value", ["paper-eq7", "transformation-law"])
def test_coefficient_convention_flag_is_gone(tmp_path, capsys, value):
    # the datum is f = target / (2(n-1)/(n-2)); no flag selects another
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "meancurv", "--grid", "201", "--target", "0.03",
              "--coefficient-convention", value, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--coefficient-convention" in err and "Traceback" not in err


def test_exit_code_solve_failure(tmp_path):
    code = main(["--mode", "meancurv", "--f", "0.2", "--beta", "3",
                 "--grid", "101", "--out", str(tmp_path / "o")])
    assert code == 3


def test_large_conformal_coefficient_runs(tmp_path, capsys):
    # the metric and its density are finite; the square of its far-field
    # fit's residual overflowed (a RuntimeWarning)
    code, report, _ = run(tmp_path, "--grid", "41", "--metric",
                          "conformal:1,1e45")
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0 and report["passed"] is True


@pytest.mark.parametrize("grid", ["41", "41x9"])
def test_finite_density_runs_on_every_grid(tmp_path, capsys, grid):
    # u0^4 ~ 1e156 and a density ~ 1e234: a_theta a_phi ~ 1e312 overflowed
    # before its square root was taken, and 41x9 exited 2 where 41 ran
    code, report, _ = run(tmp_path, "--grid", grid, "--metric",
                          "conformal:1,1e39")
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0 and report["passed"] is True


@pytest.mark.parametrize("beta", ["150", "1e300"])
def test_large_beta_has_no_supersolution(tmp_path, capsys, beta):
    # rho = dv/deta (beta-1)^(beta-1) / beta^beta, about 1/(e beta) here, is
    # below f = 0.1 (beta 150 exited 1: the power form of rho overflowed)
    code = main(["--mode", "meancurv", "--f", "0.1", "--beta", beta,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "no supersolution" in err and "Traceback" not in err


@pytest.mark.parametrize("f, beta, expected", [
    ("-0.1", "1100", 3), ("0", "1e300", 0)], ids=["f-negative", "f-zero"])
def test_large_beta_stabilization_weight(tmp_path, capsys, f, beta,
                                         expected):
    # the weight beta |f| u^(beta-1) on u up to 2 (both exited 1: the power
    # overflowed) is taken in logs: f = 0 adds no slope, and a weight above
    # the largest double fails the Newton stage
    code = main(["--mode", "meancurv", f"--f={f}", "--beta", beta,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == expected and "Traceback" not in err
    assert ("stage 'monotone_iterate' failed" in err) == (expected == 3)


def test_report_determinism_modulo_timing(tmp_path):
    args = ["--mode", "dirichlet", "--grid", "101", "--metric",
            "conformal:1,0,1"]
    _, r1, _ = run(tmp_path / "a", *args)
    _, r2, _ = run(tmp_path / "b", *args)
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


@pytest.mark.parametrize("argv, metric_b", [
    (("--mode", "dirichlet", "--grid", "201",
      "--metric", "conformal:1,0.3,0.6"), "conformal:1,0.9,1.8"),
    (("--mode", "dirichlet", "--grid", "41x9",
      "--metric", "conformal:1,0.2,0.4"), "conformal:1,0.5,0.5"),
    (("--mode", "meancurv", "--grid", "201", "--target", "0.035",
      "--metric", "conformal:1,0.5,0.5"), "conformal:1,0.2,1.0"),
    (("--mode", "meancurv", "--grid", "41x17", "--target", "0.035",
      "--metric", "conformal:1,0.5,0.5"), "conformal:1,0.2,1.0"),
], ids=["dirichlet-radial", "dirichlet-axisym", "meancurv-radial",
        "meancurv-axisym"])
def test_jobs_on_one_grid_match_a_fresh_grid(tmp_path, argv, metric_b):
    # metric A, then B, then A again on one grid: the grid is built by the
    # first job only, and the third job writes what a job on a newly
    # built grid writes
    chart_mod._interned.cache_clear()
    assert run(tmp_path / "a1", *argv)[0] == 0
    built = chart_mod._interned.cache_info().misses
    assert run(tmp_path / "b", *argv[:-1], metric_b)[0] == 0
    assert run(tmp_path / "a2", *argv)[0] == 0
    assert chart_mod._interned.cache_info().misses == built
    chart_mod._interned.cache_clear()
    assert run(tmp_path / "fresh", *argv)[0] == 0
    reports = []
    for name in ("a2", "fresh"):
        report = load_report(tmp_path / name / "out" / "report.json")
        report.pop("timing")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
    assert ((tmp_path / "a2" / "out" / "fields.csv").read_bytes()
            == (tmp_path / "fresh" / "out" / "fields.csv").read_bytes())


def test_run_job_requires_meancurv_data():
    job = check_args(build_parser().parse_args(["--mode", "meancurv"]))
    with pytest.raises(ConfigError):
        run_job(job)


@pytest.mark.parametrize("via", ["flag", "env"])
def test_empty_outdir_falls_back_to_default(tmp_path, monkeypatch, via):
    # an empty $SCALARFLAT_OUTDIR is unset, like an empty --out (it exited
    # 2, "cannot write output to : ...")
    monkeypatch.chdir(tmp_path)
    argv = ["--grid", "41"]
    if via == "flag":
        argv += ["--out", ""]
    else:
        monkeypatch.setenv("SCALARFLAT_OUTDIR", "")
    assert main(argv) == 0
    assert (tmp_path / "scalarflat-out" / "report.json").exists()


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SCALARFLAT_OUTDIR", str(tmp_path / "envout"))
    code = main(["--mode", "dirichlet", "--grid", "101"])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch,
                                           via, below):
    # an existing file, or a path below one (both exited 1 after the solve)
    outdir = tmp_path / "file"
    outdir.write_text("")
    if below:
        outdir = outdir / "sub"
    argv = ["--grid", "41"]
    if via == "flag":
        argv += ["--out", str(outdir)]
    else:
        monkeypatch.setenv("SCALARFLAT_OUTDIR", str(outdir))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write output to {outdir}" in err
    assert "Traceback" not in err


# -- a grammar of malformed input: every example must exit 2 ----------------
# Each piece is invalid however it is combined, and each is rejected before
# any solve, so no example runs a real job.

JUNK = st.sampled_from(["", "abc", "1..2", "1e", "0x10", "--", "none"])
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
NOT_POSITIVE = st.floats(max_value=0.0).map(repr)
SHORT = st.integers(max_value=MIN_S_NODES - 1)
BAD_GRID = st.one_of(
    SHORT.map(str),
    st.tuples(SHORT, st.integers(-5, 65)).map("{0[0]}x{0[1]}".format),
    st.tuples(st.integers(MIN_S_NODES, 201), st.integers(max_value=-1))
    .map("{0[0]}x{0[1]}".format),
    st.sampled_from(["x", "41x", "41x9x9", "41.0", "4l"]), JUNK)
BAD_METRIC = st.sampled_from(["banana", "conformal:", "conformal:1,abc",
                              "conformal:2,1", "conformal:nan",
                              "conformal:1,inf", "missing.json"])


def _flag(name, values):
    return values.map(lambda v: (f"--{name}={v}",))


BAD_FLAG = st.one_of(
    # the removed config file, with any text
    _flag("config", st.text()),
    # the removed linear backward-error bound, with any value
    _flag("tol", st.one_of(st.floats().map(repr), JUNK)),
    _flag("beta", st.one_of(NOT_POSITIVE, NON_FINITE, JUNK)),
    _flag("target", st.one_of(NON_FINITE, JUNK)),
    _flag("f", NON_FINITE),
    # the removed Newton step cap, with any value
    _flag("max-iter", st.one_of(st.integers().map(str), JUNK)),
    _flag("n-dim", st.one_of(st.integers(max_value=2).map(str), JUNK)),
    _flag("grid", BAD_GRID),
    _flag("metric", BAD_METRIC),
    _flag("mode", st.text(max_size=12).filter(lambda m: m not in MODES)),
    _flag("coefficient-convention", st.text(max_size=12)),
    st.just(("--no-such-flag",)))


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(BAD_FLAG, min_size=1, max_size=3))
def test_malformed_input_grammar_exits_2(pieces):
    argv = [arg for piece in pieces for arg in piece]
    with tempfile.TemporaryDirectory() as d:
        argv += ["--out", os.path.join(d, "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    assert code == 2, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- a bounded sweep of valid input: no example may crash -------------------
# Every mode on small grids, n up to past where the chart overflows, and the
# boundary data over their whole ranges.  A job may succeed (0), be rejected
# (2), fail to solve (3) or fail a report check (4); it must not raise, nor
# warn (pytest turns warnings into errors).

DATUM = st.just(0.0) | st.tuples(
    st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)).map(
        lambda t: t[0] * 10.0 ** t[1])
VALID_GRID = st.integers(41, 121).map(str) | st.tuples(
    st.integers(41, 61), st.integers(5, 9)).map("{0[0]}x{0[1]}".format)
VALID_METRIC = st.just("flat") | st.lists(DATUM, max_size=3).map(
    lambda c: "conformal:" + ",".join(map(repr, [1.0, *c])))


@st.composite
def valid_jobs(draw):
    mode = draw(st.sampled_from(MODES))
    grid = draw(VALID_GRID)
    n = 3 if "x" in grid else draw(st.integers(3, 8) | st.integers(9, 200))
    argv = ["--mode", mode, "--grid", grid, "--n-dim", str(n),
            "--metric", draw(VALID_METRIC)]
    if mode == "meancurv" and draw(st.booleans()):
        argv.append(f"--target={draw(DATUM)!r}")
    elif mode == "meancurv" or (mode == "oracle" and draw(st.booleans())):
        beta = 10.0 ** draw(st.floats(-6.0, 300.0))
        argv += [f"--f={draw(DATUM)!r}", f"--beta={beta!r}"]
    return argv


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=valid_jobs())
# beta |f| u^(beta-1) overflowed (both exited 1), and the weighted norm of
# the Dirichlet report overflowed (a RuntimeWarning, and "inf")
@example(argv=["--mode", "meancurv", "--f=-0.1", "--beta", "1100"])
@example(argv=["--mode", "meancurv", "--f", "0", "--beta", "1e300"])
@example(argv=["--grid", "201", "--n-dim", "100"])
@example(argv=["--grid", "41", "--n-dim", "150"])
def test_valid_input_sweep_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as d:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", d])
    assert code in (0, 2, 3, 4), (argv, err.getvalue())


@pytest.mark.parametrize("argv, linear", [
    (("--mode", "dirichlet", "--grid", "41x9"), 2),
    (("--mode", "meancurv", "--grid", "41x9", "--target", "-1"), 10),
    (("--mode", "meancurv", "--grid", "201", "--target", "0.035",
      "--metric", "conformal:1,0.5,0.5"), 10),
    (("--mode", "meancurv", "--grid", "201", "--f", "0.1", "--beta", "3"), 8),
], ids=["dirichlet", "meancurv-target-axisym", "meancurv-target-radial",
        "meancurv-robin"])
def test_linear_count_is_every_pass_of_the_job(tmp_path, monkeypatch, argv,
                                               linear):
    # iterations.linear counts the SuperLU solve passes of the whole job:
    # a target job's reduction, barrier and final field (5 solves of 2
    # passes) on its one LU, a Robin job's barrier and final field (4), a
    # Dirichlet job's one solve
    passes = []
    solve = elliptic.Factorization.solve

    def counting(self, rhs, tol=elliptic.BACKWARD_ERROR_TOL):
        result = solve(self, rhs, tol=tol)
        passes.append(len(result.residual_history))
        return result

    monkeypatch.setattr(elliptic.Factorization, "solve", counting)
    code, report, _ = run(tmp_path, *argv)
    assert code == 0
    assert report["iterations"]["linear"] == sum(passes) == linear


@pytest.mark.parametrize("argv", [
    ("--mode", "dirichlet", "--grid", "41"),
    ("--mode", "meancurv", "--grid", "41", "--target", "0.03"),
    ("--mode", "meancurv", "--grid", "41", "--f", "0.1", "--beta", "3"),
    ("--mode", "quotient", "--grid", "41"),
    ("--mode", "oracle", "--f", "0.1", "--beta", "3"),
    ("--mode", "convergence-study", "--metric", "conformal:1,0,1"),
], ids=["dirichlet", "meancurv", "meancurv-robin", "quotient", "oracle",
        "convergence-study"])
def test_every_mode_reports_its_wall_time(tmp_path, argv):
    code, report, _ = run(tmp_path, *argv)
    assert code == 0
    assert list(report["timing"]) == ["wall_s"]
    assert report["timing"]["wall_s"] > 0.0


def test_robin_wall_time_covers_every_stage(tmp_path, monkeypatch):
    # a --f/--beta job's time starts before its LU and barrier, not at
    # the Newton stage
    harmonic_unit = meancurv.harmonic_unit

    def slow(g):
        time.sleep(0.05)
        return harmonic_unit(g)

    monkeypatch.setattr(meancurv, "harmonic_unit", slow)
    code, report, _ = run(tmp_path, "--mode", "meancurv", "--grid", "41",
                          "--f", "0.1", "--beta", "3")
    assert code == 0
    assert report["timing"]["wall_s"] >= 0.05


def test_evicted_chart_is_freed(tmp_path):
    # a job fills its grid's layouts, flat Laplacian and coordinate text,
    # and all of them go with the chart once it leaves the table
    assert run(tmp_path, "--mode", "dirichlet", "--grid", "41x9")[0] == 0
    chart = weakref.ref(Chart.axisymmetric(41, 9))
    for num_s in range(1000, 1000 + chart_mod.CHART_CACHE_SIZE):
        Chart.radial(3, num_s)
    gc.collect()
    assert chart() is None
