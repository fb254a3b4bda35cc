"""Seeded workloads for the scalarflat CLI and their closed-form answers.

A workload is a *round* of CLI jobs, one per fixed stratum of its
parameter space.  The seed draws each job's parameters in a box of +-1%
around its stratum centre and shuffles the job order.  Every run therefore
repeats the same spread of difficulty (the same worst case for the error,
the same mix of short and long jobs) while the exact inputs change with the
seed.

Each job's exported field is checked against a closed form computed here,
independently of ``scalarflat.oracle``:

* ``radial-dirichlet``: g = u0^4 flat with u0 = 1 + c1 s + c2 s^2 (s = 1/r).
  phi u0 is flat-harmonic, equals u0(1) on r = 1 and tends to 1, so
  phi = (1 + (c1 + c2) s) / u0.
* ``axisym-dirichlet``: the same conformal construction stored as frame
  tables a_rr = a_theta = a_phi = u0^4 with u0 = 1 + A s^2 (1 + B cos^2 theta).
  Since cos^2 = (1 + 2 P2)/3, the harmonic extension of u0(1, theta) is
  1 + A (1 + B/3) s + (2AB/3) s^3 P2(cos theta), and phi is that over u0.
* ``meancurv``: whatever radial conformal metric it starts from, the
  reduction yields (1 + s)^4 flat, and the answer on it is
  u = (1 + b s)/(1 + s) where (1 + b s)^4 flat has H = (2b - 2)/(1 + b)^3 = t.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: a job fails when its max-norm error exceeds TOL_FACTOR * h^2, where h is
#: the coarsest grid spacing; the hardest strata below reach 0.52 h^2
#: (radial-dirichlet), 0.74 h^2 (meancurv) and 1.0 h^2 (axisym-dirichlet)
TOL_FACTOR = 3.0

#: relative half-width of the box the seed draws each parameter from
JITTER = 0.01

GRIDS = {"radial-dirichlet": (1601,), "axisym-dirichlet": (201, 65),
         "meancurv": (1601,)}

#: stratum centres; the round runs one job per stratum, and the last one
#: has the largest error.  meancurv job time grows with t, so it has an odd
#: number of strata: the median job then sits in the middle stratum rather
#: than in the gap between two.
STRATA = {
    "radial-dirichlet":                                             # (c1, c2)
        ((0.3, 0.6), (0.9, 0.6), (0.3, 1.8), (0.9, 1.8)),
    "axisym-dirichlet":                                             # (A, B)
        ((0.3, 0.5), (0.9, 0.5), (0.3, 1.0), (0.9, 1.0)),
    "meancurv":                                                 # (t, c1, c2)
        ((0.021, 0.5, 0.5), (0.028, 1.0, 0.2), (0.035, 0.2, 1.0),
         (0.042, 0.4, 0.6), (0.049, 0.8, 0.8)),
}
WORKLOADS = tuple(STRATA)

# fixed inputs of the untimed warm-up job, independent of the seed
WARMUP = {"radial-dirichlet": (0.6, 1.2), "axisym-dirichlet": (0.6, 0.75),
          "meancurv": (0.035, 0.5, 0.5)}


@dataclass(frozen=True)
class Job:
    """One CLI invocation (without ``--out``) and its closed-form answer."""

    label: str
    argv: tuple
    field: str
    grid: tuple                      # (num_s,) or (num_s, num_theta)
    exact: Callable[[dict], np.ndarray]

    @property
    def h2(self) -> float:
        h = 1.0 / (self.grid[0] - 1)
        if len(self.grid) == 2:
            h = max(h, math.pi / (self.grid[1] - 1))
        return h * h

    @property
    def tolerance(self) -> float:
        return TOL_FACTOR * self.h2


def radial_dirichlet_job(c1: float, c2: float, num: int) -> Job:
    def exact(coords):
        s = coords["s"]
        return (1.0 + (c1 + c2) * s) / (1.0 + c1 * s + c2 * s * s)

    return Job(label=f"c1={c1:.6g},c2={c2:.6g}",
               argv=("--mode", "dirichlet", "--grid", str(num),
                     "--metric", f"conformal:1,{c1!r},{c2!r}"),
               field="phi", grid=(num,), exact=exact)


def write_axisym_metric(path: str, A: float, B: float, grid):
    """Write the frame tables of u0^4 flat, u0 = 1 + A s^2 (1 + B cos^2)."""
    ns, nt = grid
    s = np.linspace(0.0, 1.0, ns)[:, None]
    mu = np.cos(np.linspace(0.0, math.pi, nt))[None, :]
    table = ((1.0 + A * s * s * (1.0 + B * mu * mu)) ** 4).tolist()
    with open(path, "w") as fh:
        json.dump({"kind": "axisym", "a_rr": table, "a_theta": table,
                   "a_phi": table, "decay": 2.0}, fh)


def axisym_dirichlet_job(A: float, B: float, metric_path: str,
                         grid) -> Job:
    """The metric file must hold ``write_axisym_metric(path, A, B, grid)``."""
    def exact(coords):
        s, mu = coords["s"], np.cos(coords["theta"])
        u0 = 1.0 + A * s * s * (1.0 + B * mu * mu)
        p2 = 1.5 * mu * mu - 0.5
        return (1.0 + A * (1.0 + B / 3.0) * s
                + (2.0 * A * B / 3.0) * s ** 3 * p2) / u0

    return Job(label=f"A={A:.6g},B={B:.6g}",
               argv=("--mode", "dirichlet", "--grid", f"{grid[0]}x{grid[1]}",
                     "--metric", metric_path),
               field="phi", grid=tuple(grid), exact=exact)


def minimal_boundary_b(t: float) -> float:
    """Root b in (1, 2) of 2b - 2 = t (1 + b)^3, by bisection."""
    lo, hi = 1.0, 2.0
    if not 0.0 < t < 2.0 / 27.0:
        raise ValueError(f"target {t} has no root in (1, 2)")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if 2.0 * mid - 2.0 < t * (1.0 + mid) ** 3:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def meancurv_job(t: float, c1: float, c2: float, num: int) -> Job:
    b = minimal_boundary_b(t)

    def exact(coords):
        s = coords["s"]
        return (1.0 + b * s) / (1.0 + s)

    return Job(label=f"t={t:.6g},c1={c1:.6g},c2={c2:.6g}",
               argv=("--mode", "meancurv", "--grid", str(num),
                     "--metric", f"conformal:1,{c1!r},{c2!r}",
                     "--target", repr(t)),
               field="u", grid=(num,), exact=exact)


def make_job(workload: str, params, input_dir: str, tag: str,
             grid=None) -> Job:
    """Build one job of ``workload``; writes its input file, if any."""
    grid = tuple(grid or GRIDS[workload])
    if workload == "radial-dirichlet":
        return radial_dirichlet_job(*params, num=grid[0])
    if workload == "axisym-dirichlet":
        path = os.path.join(input_dir, f"metric-{tag}.json")
        write_axisym_metric(path, *params, grid=grid)
        return axisym_dirichlet_job(*params, path, grid=grid)
    if workload == "meancurv":
        return meancurv_job(*params, num=grid[0])
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, seed: int, input_dir: str) -> list:
    """The seeded round of jobs: one per stratum, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for k, centre in enumerate(STRATA[workload]):
        params = tuple(c * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
                       for c in centre)
        jobs.append(make_job(workload, params, input_dir, f"s{k}"))
    rng.shuffle(jobs)
    return jobs


def make_warmup(workload: str, input_dir: str) -> Job:
    return make_job(workload, WARMUP[workload], input_dir, "warmup")


def read_fields(path: str) -> tuple[dict, dict]:
    """Columns of an exported ``fields.csv`` as float arrays.

    Deliberately not ``scalarflat.report.read_fields``: the check does not
    rest on the program's own reader, and keeps working if that API changes.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, k] for k, name in enumerate(header)}
    coords = {k: cols.pop(k) for k in ("s", "r", "theta") if k in cols}
    return coords, cols


def check_grid(job: Job, coords: dict) -> str | None:
    """Why the exported nodes are not the job's grid, or None."""
    ns = job.grid[0]
    s_nodes = np.linspace(0.0, 1.0, ns)
    if len(job.grid) == 1:
        want = {"s": s_nodes}
    else:
        nt = job.grid[1]
        want = {"s": np.repeat(s_nodes, nt),
                "theta": np.tile(np.linspace(0.0, math.pi, nt), ns)}
    for name, nodes in want.items():
        got = coords.get(name)
        if got is None or got.shape != nodes.shape:
            return f"column {name!r} missing or of the wrong length"
        if np.max(np.abs(got - nodes)) > 1e-12:
            return f"column {name!r} does not hold the grid nodes"
    return None


def job_error(job: Job, fields_path: str) -> float:
    """Max-norm error of the exported field against the closed form."""
    coords, values = read_fields(fields_path)
    problem = check_grid(job, coords)
    if problem is not None:
        raise ValueError(problem)
    if job.field not in values:
        raise ValueError(f"field {job.field!r} not exported")
    return float(np.max(np.abs(values[job.field] - job.exact(coords))))
