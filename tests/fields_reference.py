"""Row-by-row reference for ``report.emit_fields``.

The ``csv.writer`` form of the field export that the column-formatted
writer replaced: one ``repr`` call per value and one list per row.  Tests
compare the bytes of the two files.
"""

import csv

import numpy as np

from scalarflat.errors import ScalarFlatError
from scalarflat.report import _create


def csv_writer_emit_fields(path, **fields) -> None:
    if not fields:
        raise ScalarFlatError("no fields to export")
    charts = {f.chart for f in fields.values()}
    if len(charts) != 1:
        raise ScalarFlatError("fields must share one chart")
    names = sorted(fields)
    chart = fields[names[0]].chart
    header = ["s"]
    coords = [chart.s_col]
    if chart.theta is not None:
        header.append("theta")
        coords.append(chart.theta)
    columns = ([np.broadcast_to(c, chart.shape).ravel().tolist()
                for c in coords]
               + [fields[n].values.ravel().tolist() for n in names])
    with _create(path) as fh:
        w = csv.writer(fh)
        w.writerow(header + names)
        w.writerows([repr(v) for v in row] for row in zip(*columns))
