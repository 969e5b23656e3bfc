"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/harness.py --workload W --seed N --seconds S --trace 0|1
        [--setup-only] --workdir DIR

Started by run.py, which times set-up from before this process exists.  The
process prints ``ready`` once inputs are generated and the workload is warm,
then (unless --setup-only) one JSON line with the run's result.

The loop is closed, with one client: a job starts only when the previous one
has finished.  It cycles through the workload's job list until the time is
up and at least one cycle has run.  With --trace 1 it runs whole cycles,
alternately untraced (the base for the tracing overhead) and traced.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import sys
import time
import traceback

import quasizeros as qz
from quasizeros.errors import NotConvergedError

import layers
import stats
import workloads
from tracer import Tracer

#: at most this many job failures are written to stderr
MAX_REPORTED_ERRORS = 5


def run_job(job, tracer, errors):
    """Run and check one job.  Returns None when a job flagged known_defect
    raised NotConvergedError, the documented defect."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = job.run()
        else:
            with tracer.span(layers.JOB_SPAN):
                output = job.run()
        seconds = time.perf_counter() - t0
        zeros, samples = job.check(output)
    except Exception as exc:  # noqa: BLE001 - a failing job is a measured outcome
        seconds = time.perf_counter() - t0
        if job.known_defect and isinstance(exc, NotConvergedError):
            return None
        if len(errors) < MAX_REPORTED_ERRORS:
            errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        return stats.JobResult(job.label, seconds, False, error=str(exc))
    return stats.JobResult(job.label, seconds, True, zeros, samples)


def run_jobs(jobs, tracer, results, defects, errors):
    """Run each job once; known-defect failures are tallied in defects."""
    for job in jobs:
        result = run_job(job, tracer, errors)
        if result is None:
            defects[job.label] = defects.get(job.label, 0) + 1
        else:
            results.append(result)


def write_spans(tracer, path):
    """Spans as name, start, end, parent, failed: one tab-separated line each."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.failed):
            fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.workdir,
                           in_process_cli=bool(args.trace))
    workloads.warm_up(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    results, defects, errors = [], {}, []
    start = time.perf_counter()
    record = {
        "backend": qz.backend_name(),
        "python": platform.python_version(),
    }
    if not args.trace:
        # whole cycles are not needed here: every job is weighted once
        # whatever the number of its repetitions (see stats.summarize).  A
        # calibration runs between jobs, outside their timing.
        done = 0
        cal = stats.calibrate()
        while done < len(jobs) or time.perf_counter() - start < args.seconds:
            first = len(results)
            run_jobs([jobs[done % len(jobs)]], None, results, defects, errors)
            cal_after = stats.calibrate()
            for r in results[first:]:
                r.scale = 2.0 * stats.REFERENCE_CALIBRATION_S / (cal + cal_after)
            cal = cal_after
            done += 1
        wall = time.perf_counter() - start
        summary = stats.summarize(results, wall)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "jobs_per_s": {"value": summary.get("jobs_per_s", 0.0), "unit": "1/s"},
            "job_p50_s": {"value": summary.get("job_p50_s", 0.0), "unit": "s"},
            "job_tail_s": {"value": summary.get("job_tail_s", 0.0), "unit": "s"},
            "zeros_per_s": {"value": summary.get("zeros_per_s", 0.0), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        }
        record.update(jobs_run=done, wall_s=wall,
                      **{k: v for k, v in summary.items() if k.startswith("raw_")},
                      samples_per_s=summary.get("samples_per_s"))
        accounting_ok = True
    else:
        # untraced and traced cycles alternate, so that the machine's drift
        # reaches both sides of the tracing overhead alike
        tracer = Tracer()
        plain_wall = traced_wall = 0.0
        base_samples = cycles = 0
        try:
            while cycles == 0 or time.perf_counter() - start < args.seconds:
                first = len(results)
                t0 = time.perf_counter()
                run_jobs(jobs, None, results, defects, errors)
                plain_wall += time.perf_counter() - t0
                base_samples += sum(r.samples for r in results[first:] if r.ok)
                layers.install(tracer)
                t0 = time.perf_counter()
                run_jobs(jobs, tracer, results, defects, errors)
                traced_wall += time.perf_counter() - t0
                tracer.uninstall()
                cycles += 1
        finally:
            tracer.uninstall()
        summary = stats.summarize(results, time.perf_counter() - start)
        metrics, accounting, shares = layers.summarize(
            tracer, cycles, traced_wall, plain_wall / cycles, base_samples / cycles,
            layers.fresh_import_seconds())
        accounting_ok = accounting["ok"]
        record.update(traced_cycles=cycles, trace_accounting=accounting,
                      trace_overhead_frac=traced_wall / plain_wall - 1.0,
                      inclusive_share={k: round(v, 4) for k, v in shares.items()})
        if args.spans_out:
            write_spans(tracer, args.spans_out)

    reproduced = sum(defects.values())
    record.update(
        fail_frac=summary["fail_frac"],
        fail_frac_with_known_defects=(summary["failed"] + reproduced)
        / (summary["attempted"] + reproduced),
        known_defects=defects,
        tail_percentile=summary.get("tail_percentile"),
        tail_beyond=summary.get("tail_beyond"),
        completed=summary["completed"],
        distinct_jobs=summary.get("distinct_jobs"),
        repetitions=summary.get("repetitions"),
        wall_jobs_per_s=summary["wall_jobs_per_s"],
        errors=errors,
    )
    result = {
        "correct": summary["failed"] == 0 and accounting_ok,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
        "record": record,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
