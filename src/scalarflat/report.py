"""Structured solve reports and field export."""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ScalarFlatError

SCHEMA_VERSION = 2


@dataclass
class SolveReport:
    """Diagnostics for one pipeline run.

    ``residuals`` maps named weighted norms to values; ``checks`` maps
    acceptance-check names to booleans.  Timing lives in ``timing`` so that
    reports are byte-identical across runs once it is stripped.
    """

    mode: str
    residuals: dict = dfield(default_factory=dict)
    decay: dict = dfield(default_factory=dict)
    mass_coefficient: float | None = None
    extrema: dict = dfield(default_factory=dict)
    iterations: dict = dfield(default_factory=dict)
    barrier: dict = dfield(default_factory=dict)
    checks: dict = dfield(default_factory=dict)
    timing: dict = dfield(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in sorted(x.items())}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            if isinstance(x, float) and not np.isfinite(x):
                return repr(x)
            return x

        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "passed": self.passed,
            "residuals": clean(self.residuals),
            "decay": clean(self.decay),
            "mass_coefficient": clean(self.mass_coefficient),
            "extrema": clean(self.extrema),
            "iterations": clean(self.iterations),
            "barrier": clean(self.barrier),
            "checks": clean(self.checks),
            "timing": clean(self.timing),
        }


def _create(path):
    """Open ``path`` for writing as a new file.  On ext4, rewriting 120 KB
    in place (or ``os.replace`` over it) takes ~60 ms, a new file 0.05 ms."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", newline="")


def emit_report(report: SolveReport, path) -> None:
    """Write the report as JSON with stable key order."""
    doc = report.to_dict()
    with _create(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


#: nodes formatted per pass of ``emit_fields``, so that the strings alive at
#: once stay near 0.1 MB whatever the grid size
_CHUNK_NODES = 256


def _reprs(a) -> list:
    """``repr`` of every value of ``a`` in C order, from one list repr."""
    return repr(np.asarray(a).ravel().tolist())[1:-1].split(", ")


def _coordinate_text(chart) -> tuple:
    """The coordinate text of ``emit_fields`` rows, formatted once per
    chart and kept in ``chart.layouts``: ``"\\r\\ns,"`` per s level (the
    line break ends the line before) and ``"theta,"`` per theta column, or
    one empty string on radial charts."""
    text = chart.layouts.get("coordinate-text")
    if text is None:
        levels = tuple("\r\n" + s + "," for s in _reprs(chart.s))
        thetas = (("",) if chart.theta is None
                  else tuple(t + "," for t in _reprs(chart.theta)))
        text = chart.layouts["coordinate-text"] = levels, thetas
    return text


def emit_fields(path, **fields) -> None:
    """Write named fields to one CSV: one row per node in (s, theta) order,
    the coordinates s (and theta on axisymmetric grids), then one value
    column per field, every number as its Python ``repr`` and every line
    ended by ``\\r\\n``.  All fields must share a chart.
    """
    if not fields:
        raise ScalarFlatError("no fields to export")
    charts = {f.chart for f in fields.values()}
    if len(charts) != 1:
        raise ScalarFlatError("fields must share one chart")
    names = sorted(fields)
    chart = fields[names[0]].chart
    header = ["s"] if chart.theta is None else ["s", "theta"]
    levels, thetas = _coordinate_text(chart)
    nt = len(thetas)
    values = [fields[n].values.reshape(chart.s.size, -1) for n in names]
    step = max(1, _CHUNK_NODES // nt)
    with _create(path) as fh:
        fh.write(",".join(header + names))
        for i in range(0, chart.s.size, step):
            lv = levels[i:i + step]
            cols = [_reprs(v[i:i + step]) for v in values]
            # each row is its level's text, its theta's text and its values
            rows = [None] * (3 * len(lv) * nt)
            rows[0::3] = [level for level in lv for _ in thetas]
            rows[1::3] = thetas * len(lv)
            rows[2::3] = cols[0] if len(cols) == 1 else map(",".join,
                                                            zip(*cols))
            fh.write("".join(rows))
        # a row's text starts with the line break that ends the line before
        # it, so the last row is ended here
        fh.write("\r\n")


def read_fields(path):
    """Round-trip reader for ``emit_fields`` output.

    Returns (coordinate columns dict, value columns dict) as float arrays.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    coord_names = {"s", "theta"}
    coords = {h: body[:, k] for k, h in enumerate(header) if h in coord_names}
    vals = {h: body[:, k] for k, h in enumerate(header)
            if h not in coord_names}
    return coords, vals


def default_output_dir() -> str:
    return os.environ.get("SCALARFLAT_OUTDIR") or "scalarflat-out"
