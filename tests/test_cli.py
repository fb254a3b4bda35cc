import json

import numpy as np
import pytest

from scalarflat.cli import main, merge_config, parse_f, parse_grid, run_job
from scalarflat.chart import Chart
from scalarflat.errors import ConfigError
from scalarflat.report import load_report


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report = None
    if (out / "report.json").exists():
        report = load_report(out / "report.json")
    return code, report, out


def test_parse_grid():
    assert parse_grid("51", 3).shape == (51,)
    assert parse_grid("21x9", 3).shape == (21, 9)
    with pytest.raises(ConfigError):
        parse_grid("21x9", 4)
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
    code, report, out = run(tmp_path, "--mode", "dirichlet",
                            "--grid", "101", "--lambda-steps", "3")
    assert code == 0
    assert report["mode"] == "dirichlet"
    assert report["passed"] is True
    assert report["extrema"]["min_phi"] == pytest.approx(1.0, abs=1e-10)
    assert report["residuals"]["scalar_curvature_Linf_interior"] <= 1e-10
    assert (out / "fields.csv").exists()


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
    code, report, _ = run(tmp_path, "--mode", "convergence-study",
                          "--metric", "conformal:1,0,1")
    assert code == 0
    assert report["checks"]["second_order"] is True


def test_exit_code_config_error(tmp_path):
    assert main(["--mode", "dirichlet", "--grid", "oops"]) == 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_max_iter_below_one_is_config_error(tmp_path, capsys, max_iter):
    code = main(["--mode", "meancurv", "--f", "0.1", "--beta", "3",
                 "--max-iter", max_iter, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_iter" in err and "Traceback" not in err


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


def _json_file(directory, doc):
    path = directory / "metric.json"
    path.write_text(json.dumps(doc))
    return str(path)


ONES = np.ones((11, 5)).tolist()


@pytest.mark.parametrize("make_argv", [
    lambda d: ["--metric", _json_file(d, {"kind": "conformal"})],
    lambda d: ["--metric", _json_file(d, [1.0, 0.5])],
    lambda d: ["--metric", "conformal:1,abc"],
    lambda d: ["--grid", "11x5", "--metric",
               _json_file(d, {"kind": "axisym", "a_rr": ONES, "a_phi": ONES})],
    lambda d: ["--mode", "oracle", "--f", "cos:1", "--beta", "3"],
    lambda d: ["--mode", "meancurv", "--grid", "11x5", "--f", "cos:abc",
               "--beta", "3"],
    lambda d: ["--grid", "2"],
    lambda d: ["--grid=-5"],
    lambda d: ["--n-dim", "2"],
], ids=["conformal-no-coeffs", "json-list", "bad-coefficient",
        "axisym-no-a_theta", "oracle-cos-f", "bad-cos-f", "grid-2",
        "grid-negative",
        "dimension-2"])
def test_malformed_input_is_config_error(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path) + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err


def test_exit_code_solve_failure(tmp_path):
    code = main(["--mode", "meancurv", "--f", "0.2", "--beta", "3",
                 "--grid", "101", "--out", str(tmp_path / "o")])
    assert code == 3


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"mode": "dirichlet", "grid": "101",
                               "metric": "conformal:1,0,1",
                               "lambda_steps": 3}))
    code, report, _ = run(tmp_path, "--config", str(cfg))
    assert code == 0
    assert report["mass_coefficient"] == pytest.approx(2.0, rel=0.02)
    # flag overrides config
    code2, report2, _ = run(tmp_path, "--config", str(cfg),
                            "--metric", "flat")
    assert report2["extrema"]["max_phi"] == pytest.approx(1.0, abs=1e-10)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "dirichlet", "bogus": 1}))
    assert main(["--config", str(cfg)]) == 2


def test_report_determinism_modulo_timing(tmp_path):
    args = ["--mode", "dirichlet", "--grid", "101", "--metric",
            "conformal:1,0,1", "--lambda-steps", "3"]
    _, r1, _ = run(tmp_path / "a", *args)
    _, r2, _ = run(tmp_path / "b", *args)
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_job_requires_meancurv_data():
    cfg = merge_config(type("NS", (), {k: None for k in (
        "config", "mode", "tol", "max_iter", "grid", "n", "metric", "f",
        "beta", "target", "lambda_steps", "convention", "out")})())
    cfg["mode"] = "meancurv"
    with pytest.raises(ConfigError):
        run_job(cfg)


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SCALARFLAT_OUTDIR", str(tmp_path / "envout"))
    code = main(["--mode", "dirichlet", "--grid", "101",
                 "--lambda-steps", "2"])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()
