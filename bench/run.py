"""Benchmark of the scalarflat CLI: one workload per process.

    python3 bench/run.py --workload radial-dirichlet --seed 1 --seconds 30 --trace 0

Runs the workload's seeded round of jobs through ``scalarflat.cli.main``
in-process, again and again for about ``--seconds`` seconds, checks every
job's exported field against its closed form, and prints as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions and reports the per-layer metrics instead.
Results, span dumps and failed jobs' outputs go to ``bench_results/`` at
the root of the checkout.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, "bench_results")

#: unit of each end-to-end metric
END_TO_END = {"job_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "err_max": "1"}

#: setup_s is the median of this many set-ups: the run's own and those of
#: fresh child processes that import and run the warm-up job, then exit
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cli():
    """Import ``scalarflat.cli`` from this checkout's ``src``."""
    sys.path.insert(0, SRC)
    import scalarflat.cli as cli

    where = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"scalarflat imported from {where}, not {SRC}")
    return cli


def run_job(cli_main, job, outdir):
    """Time one ``main(argv)`` call; returns (seconds, exit code, output)."""
    argv = list(job.argv) + ["--out", outdir]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:      # argparse rejects the argv
            rc = exc.code
        except Exception as exc:       # noqa: BLE001 - an uncaught traceback
            print(f"uncaught {type(exc).__name__}: {exc}")
            rc = "uncaught"
    return time.perf_counter() - t0, rc, buf.getvalue()


def check_job(job, outdir, rc, output):
    """Outcome of one job: (failed, error or None, inconsistency or None).

    A job fails when it exits non-zero or its error against the closed form
    exceeds the tolerance.  An inconsistency is a job that exited 0 but
    whose outputs contradict that (a red report, a missing or malformed
    field file): it makes the run incorrect.
    """
    if rc != 0:
        return True, None, None
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        error = workloads.job_error(job, os.path.join(outdir, "fields.csv"))
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable output: {exc}"
    if not (report.get("passed") is True
            and all(v is True for v in report.get("checks", {}).values())
            and "passed=True" in output):
        return False, error, "exit code 0 with a failed report check"
    return error > job.tolerance, error, None


def setup_sample(args) -> float:
    """Set-up time of one fresh process running only the warm-up job."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=150)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scalarflat", "cli.py")):
        print(f"error: no scalarflat sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    cli = import_cli()
    import_s = time.perf_counter() - T_START

    # benchmark-side input generation, outside every timed interval
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT_ROOT, "jobs", f"{tag}-{os.getpid()}")
    input_dir = os.path.join(run_dir, "inputs")
    os.makedirs(input_dir)
    warmup = workloads.make_warmup(args.workload, input_dir)
    jobs = workloads.make_round(args.workload, args.seed, input_dir)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    inconsistent = []

    def attempt(job, job_id):
        outdir = os.path.join(run_dir, f"job-{job_id}")
        if tracer is not None:
            tracer.job = job_id
        seconds, rc, output = run_job(cli.main, job, outdir)
        failed, error, problem = check_job(job, outdir, rc, output)
        if problem is not None:
            inconsistent.append(f"{job.label}: {problem}")
        if not failed and problem is None:
            shutil.rmtree(outdir, ignore_errors=True)
        return {"job": job_id, "label": job.label, "seconds": seconds,
                "exit_code": rc, "error": error,
                "tolerance": job.tolerance, "failed": failed,
                "problem": problem, "output": output if failed else None}

    warm = attempt(warmup, "warmup")
    setup_s = import_s + warm["seconds"]
    if args.setup_only:
        # the parent run reports whether its own warm-up job failed
        shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # whole rounds only; start another one while it is expected to end
    # no later than half a round past the deadline
    records = []
    round_s = []
    t_loop = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for job in jobs:
            records.append(attempt(job, len(records) + 1))
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t_loop
        if elapsed + 0.5 * statistics.median(round_s) > args.seconds:
            break
    loop_s = time.perf_counter() - t_loop

    job_p50 = statistics.median(r["seconds"] for r in records)
    failed = sum(r["failed"] for r in records)
    setups = [setup_s]
    if tracer is None:
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        errors = [r["error"] for r in records if r["error"] is not None]
        values = {"job_s.p50": job_p50, "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb,
                  "err_max": max(errors, default=0.0)}
        units = END_TO_END
    else:
        values = tracer.per_layer(r["job"] for r in records)
        units = spans.per_layer_units()
        spans_path = os.path.join(OUT_ROOT, f"spans-{tag}.json")
        tracer.dump(spans_path)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    if failed == 0 and not warm["failed"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": not inconsistent, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment(), import_s=import_s,
                  setup_samples=setups, warmup=warm, rounds=len(round_s),
                  loop_s=loop_s, job_s_p50=job_p50,
                  inconsistent=inconsistent, jobs=records)
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(records)} jobs in "
          f"{len(round_s)} rounds, {failed} failed, job_s.p50={job_p50:.4f} s"
          f"{' (traced)' if tracer else ''}")
    if warm["failed"]:
        print(f"warm-up job {warmup.label} failed")
    for problem in inconsistent:
        print(f"inconsistent: {problem}")
    if tracer is not None:
        print(f"spans: {spans_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
