import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalarflat import Chart, ScalarField, SolveReport, emit_fields, emit_report, read_fields
from scalarflat import report
from scalarflat.errors import ScalarFlatError
from scalarflat.report import default_output_dir, load_report
from fields_reference import csv_writer_emit_fields


def sample_report():
    r = SolveReport(mode="dirichlet")
    r.residuals = {"linear_relative": 1.2e-12}
    r.decay = {"q": np.float64(1.0), "status": "ok"}
    r.mass_coefficient = 2.0
    r.checks = {"boundary_exact": True}
    r.iterations = {"linear": np.int64(7)}
    r.timing = {"wall_s": 0.123}
    return r


def test_report_roundtrip(tmp_path):
    r = sample_report()
    path = tmp_path / "report.json"
    emit_report(r, path)
    doc = load_report(path)
    assert doc["schema_version"] == 2
    assert doc["mode"] == "dirichlet"
    assert doc["passed"] is True
    assert doc["decay"]["q"] == 1.0
    assert doc["iterations"]["linear"] == 7


def test_report_passed_flag():
    r = sample_report()
    r.checks["other"] = False
    assert not r.passed


def test_report_deterministic_modulo_timing(tmp_path):
    r1, r2 = sample_report(), sample_report()
    r2.timing = {"wall_s": 9.9}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    d1, d2 = load_report(p1), load_report(p2)
    d1.pop("timing")
    d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_emit_fields_roundtrip(tmp_path):
    c = Chart.radial(3, 41)
    u = ScalarField(c, c.s ** 2)
    v = ScalarField(c, 1.0 + c.s)
    path = tmp_path / "fields.csv"
    emit_fields(path, u=u, v=v)
    coords, vals = read_fields(path)
    assert list(coords) == ["s"]
    assert np.array_equal(coords["s"], c.s)
    assert np.array_equal(vals["u"], u.values)
    assert np.array_equal(vals["v"], v.values)


def test_emit_fields_harmonic_row(tmp_path):
    # v = 1/r = s: the s = 0.5 (r = 2) row carries 0.5 exactly
    import csv
    c = Chart.radial(3, 41)
    v = ScalarField(c, c.s.copy())
    path = tmp_path / "f.csv"
    emit_fields(path, v=v)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["s", "v"]
    match = [row for row in rows if abs(float(row["s"]) - 0.5) < 1e-12]
    assert match and float(match[0]["v"]) == pytest.approx(0.5, abs=1e-12)


def test_emit_fields_axisym(tmp_path):
    c = Chart.axisymmetric(11, 5)
    u = ScalarField(c, np.outer(c.s, np.cos(c.theta)))
    path = tmp_path / "fields.csv"
    emit_fields(path, u=u)
    coords, vals = read_fields(path)
    assert list(coords) == ["s", "theta"]
    assert coords["s"].size == c.num_nodes
    assert np.array_equal(vals["u"], u.values.ravel())


def _edge_field(chart):
    # where repr switches between fixed and exponent form, the smallest
    # subnormal, signed zero and the non-finite values; ScalarField refuses
    # the last, so they are set after construction
    edge = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e-4,
            1e16, 1e15, 123456789.0, -2.5, 1 / 3]
    f = ScalarField(chart, np.zeros(chart.shape))
    f.values = np.resize(np.array(edge), chart.shape)
    return f


@pytest.mark.parametrize("chart, make", [
    (Chart.radial(3, 41), lambda c: {"u": ScalarField(c, c.s ** 2)}),
    (Chart.axisymmetric(11, 5),
     lambda c: {"u": ScalarField(c, np.outer(c.s, np.cos(c.theta)))}),
    # keyword order is not column order: columns are sorted by name
    (Chart.axisymmetric(11, 5),
     lambda c: {"zeta": ScalarField(c, np.ones(c.shape)),
                "alpha": ScalarField(c, np.outer(1.0 + c.s, c.theta))}),
    (Chart.radial(3, 41),
     lambda c: {"v": ScalarField(c, 1.0 + c.s),
                "edge": _edge_field(c)}),
    (Chart.axisymmetric(11, 5),
     lambda c: {"edge": _edge_field(c)}),
])
# one pass at the default size; 16 nodes give passes of 16 radial or 3
# axisymmetric levels, 3 nodes of 3 radial or 1 axisymmetric level, most with
# a shorter last pass
@pytest.mark.parametrize("chunk_nodes", [report._CHUNK_NODES, 16, 3])
def test_emit_fields_matches_csv_writer(tmp_path, monkeypatch, chunk_nodes,
                                        chart, make):
    monkeypatch.setattr(report, "_CHUNK_NODES", chunk_nodes)
    fields = make(chart)
    emit_fields(tmp_path / "new.csv", **fields)
    csv_writer_emit_fields(tmp_path / "ref.csv", **fields)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == chart.num_nodes + 1
    _, vals = read_fields(tmp_path / "new.csv")
    for name, f in fields.items():
        assert np.array_equal(vals[name], f.values.ravel(), equal_nan=True)


@pytest.mark.parametrize("chart", [Chart.radial(3, 41),
                                   Chart.axisymmetric(11, 5)],
                         ids=["radial", "axisym"])
def test_emit_fields_repeat_exports_match_csv_writer(tmp_path, chart):
    # the coordinate text is formatted on the first export of a chart and
    # reused by the next ones, with any number of fields
    chart.layouts.pop("coordinate-text", None)
    u = ScalarField(chart, np.broadcast_to(1.0 / (1.0 + chart.s_col),
                                           chart.shape))
    v = _edge_field(chart)
    for k, fields in enumerate(({"u": u}, {"u": u, "v": v}, {"v": v},
                                {"u": u})):
        emit_fields(tmp_path / f"new{k}.csv", **fields)
        csv_writer_emit_fields(tmp_path / f"ref{k}.csv", **fields)
        assert ((tmp_path / f"new{k}.csv").read_bytes()
                == (tmp_path / f"ref{k}.csv").read_bytes())
        if k == 0:
            text = chart.layouts["coordinate-text"]
    assert chart.layouts["coordinate-text"] is text


# where repr switches between fixed and exponent notation, both zeros, the
# smallest subnormal and the largest double
REPR_EDGES = [0.0, -0.0, 5e-324, 1e-4, float(np.nextafter(1e-4, 0.0)), 1e16,
              float(np.nextafter(1e16, 0.0)), 1.7976931348623157e308]


def _assert_reprs(values):
    a = np.asarray(values, dtype=np.float64)
    assert report._reprs(a) == [repr(x) for x in a.ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=40))
@example(REPR_EDGES + [-x for x in REPR_EDGES])
def test_reprs_match_repr_on_floats(values):
    _assert_reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_reprs_match_repr_on_bit_patterns(bits):
    # every double, subnormals and NaN payloads included, as a 64-bit pattern
    _assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64))


def test_reprs_match_repr_across_the_exponent_range():
    # 1e-320 to 1e308 of both signs, as whole arrays and as a strided 2-D
    # view, which _reprs reads in C order
    mags = np.logspace(-320.0, 308.0, 20001)
    for a in (mags, -mags, mags.reshape(-1, 3)[:, :2]):
        _assert_reprs(a)


def test_emit_fields_validations(tmp_path):
    c1, c2 = Chart.radial(3, 11), Chart.radial(3, 13)
    with pytest.raises(ScalarFlatError):
        emit_fields(tmp_path / "x.csv")
    with pytest.raises(ScalarFlatError):
        emit_fields(tmp_path / "y.csv",
                    a=ScalarField(c1, np.ones(11)),
                    b=ScalarField(c2, np.ones(13)))


def test_default_output_dir(monkeypatch):
    monkeypatch.delenv("SCALARFLAT_OUTDIR", raising=False)
    assert default_output_dir() == "scalarflat-out"
    monkeypatch.setenv("SCALARFLAT_OUTDIR", "/tmp/elsewhere")
    assert default_output_dir() == "/tmp/elsewhere"


def test_rewrite_replaces_longer_file(tmp_path):
    # a second, shorter write to the same path leaves only the second
    c = Chart.radial(3, 41)
    path = tmp_path / "fields.csv"
    emit_fields(path, u=ScalarField(c, c.s ** 2), v=ScalarField(c, c.s))
    emit_fields(path, w=ScalarField(c, 1.0 + c.s))
    coords, vals = read_fields(path)
    assert list(vals) == ["w"]
    assert np.array_equal(vals["w"], 1.0 + c.s)

    long_report = sample_report()
    long_report.iterations["increments"] = list(range(5000))
    short_report = SolveReport(mode="meancurv")
    rpath = tmp_path / "report.json"
    emit_report(long_report, rpath)
    emit_report(short_report, rpath)
    emit_report(short_report, tmp_path / "fresh.json")
    assert rpath.read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert load_report(rpath) == short_report.to_dict()
