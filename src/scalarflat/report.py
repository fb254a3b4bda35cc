"""Structured solve reports and field export."""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass, field as dfield

import numpy as np

from .chart import RADIAL, BoundaryField, ScalarField
from .errors import ScalarFlatError

SCHEMA_VERSION = 1


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


def emit_fields(path, **fields) -> None:
    """Write named fields to one CSV (coordinates + one value column each).

    All fields must share a chart.  Boundary fields are written separately
    by ``emit_boundary_fields``.
    """
    if not fields:
        raise ScalarFlatError("no fields to export")
    charts = {f.chart for f in fields.values()}
    if len(charts) != 1:
        raise ScalarFlatError("fields must share one chart")
    names = sorted(fields)
    chart = fields[names[0]].chart
    with _create(path) as fh:
        w = csv.writer(fh)
        if chart.mode == RADIAL:
            w.writerow(["s", "r"] + names)
            for i, s in enumerate(chart.s):
                r = float("inf") if s == 0 else 1.0 / s
                w.writerow([repr(float(s)), repr(float(r))]
                           + [repr(float(fields[n].values[i])) for n in names])
        else:
            w.writerow(["s", "r", "theta"] + names)
            for i, s in enumerate(chart.s):
                r = float("inf") if s == 0 else 1.0 / s
                for j, th in enumerate(chart.theta):
                    w.writerow([repr(float(s)), repr(float(r)),
                                repr(float(th))]
                               + [repr(float(fields[n].values[i, j]))
                                  for n in names])


def read_fields(path):
    """Round-trip reader for ``emit_fields`` output.

    Returns (coordinate columns dict, value columns dict) as float arrays.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {h: np.array([float(row[k]) for row in body])
            for k, h in enumerate(header)}
    coord_names = {"s", "r", "theta"}
    coords = {k: v for k, v in cols.items() if k in coord_names}
    vals = {k: v for k, v in cols.items() if k not in coord_names}
    return coords, vals


def emit_boundary_fields(path, **fields) -> None:
    if not fields:
        raise ScalarFlatError("no fields to export")
    names = sorted(fields)
    chart = fields[names[0]].chart
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if chart.mode == RADIAL:
            w.writerow(names)
            w.writerow([repr(float(fields[n].values[0])) for n in names])
        else:
            w.writerow(["theta"] + names)
            for j, th in enumerate(chart.theta):
                w.writerow([repr(float(th))]
                           + [repr(float(fields[n].values[j])) for n in names])


def default_output_dir() -> str:
    return os.environ.get("SCALARFLAT_OUTDIR", "scalarflat-out")
