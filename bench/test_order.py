"""Observed order of accuracy of each workload's job against its closed form.

Runs the hardest stratum of every workload through ``scalarflat.cli.main``
at two grid sizes.  The error ratio near 4 shows that the benchmark's
closed forms are the continuum answers the solver converges to at second
order, so a change that truly improves accuracy still passes the
benchmark's h^2-scaled tolerance.
"""

import contextlib
import io
import math

import pytest

import workloads
from scalarflat.cli import main

#: (workload, coarse grid, fine grid); the fine grid is the benchmark's own
CASES = (
    ("radial-dirichlet", (801,), workloads.GRIDS["radial-dirichlet"]),
    ("meancurv", (801,), workloads.GRIDS["meancurv"]),
    ("axisym-dirichlet", (101, 33), workloads.GRIDS["axisym-dirichlet"]),
)


def job_error(workload, grid, tmp_path):
    tag = "x".join(str(n) for n in grid)
    job = workloads.make_job(workload, workloads.STRATA[workload][-1],
                             str(tmp_path), tag, grid=grid)
    out = tmp_path / f"out-{tag}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(job.argv) + ["--out", str(out)]) == 0
    return job, workloads.job_error(job, str(out / "fields.csv"))


@pytest.mark.parametrize("workload,coarse,fine", CASES,
                         ids=[case[0] for case in CASES])
def test_observed_order_is_two(workload, coarse, fine, tmp_path):
    _, err_coarse = job_error(workload, coarse, tmp_path)
    job, err_fine = job_error(workload, fine, tmp_path)
    assert err_fine <= job.tolerance
    order = math.log2(err_coarse / err_fine)
    assert 1.6 <= order <= 2.4, (err_coarse, err_fine, order)


def test_minimal_boundary_root():
    for t in (0.02, 0.035, 0.05):
        b = workloads.minimal_boundary_b(t)
        assert 1.0 < b < 2.0
        assert abs(2.0 * b - 2.0 - t * (1.0 + b) ** 3) < 1e-14
