"""Summary statistics of one run: drift-corrected rates over completed jobs,
median and tail.

The machine this benchmark runs on is shared, and its speed drifts by up to
~1.6x over minutes.  Every job is therefore bracketed by a short, fixed
calibration loop, and its wall time is rescaled to the speed at which that
loop takes REFERENCE_CALIBRATION_S.  See perfbench/WORKLOADS.md for the
measurements behind this.
"""

import math
import statistics
import time
from dataclasses import dataclass

#: candidate percentiles for the tail latency, lowest first
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile is reported only with at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: iterations of the calibration loop (~7-15 ms on a 2-core Xeon)
CALIBRATION_ITERATIONS = 20_000

#: calibration time that corrected times are scaled to; a fixed constant, so
#: corrected figures compare across runs and commits
REFERENCE_CALIBRATION_S = 0.010


def calibrate():
    """Wall time of a fixed pure-Python loop of complex and float arithmetic,
    the kind of work the package does; it does not use the package."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        z = complex(i * 1e-3, 1.0)
        acc += abs(z * z) + math.sin(i * 1e-3)
    return time.perf_counter() - t0


@dataclass
class JobResult:
    """One executed job.  ok is False when it raised or failed its check.

    scale turns its wall time into corrected time: REFERENCE_CALIBRATION_S
    over the mean of the calibrations taken just before and after it.
    """

    label: str
    seconds: float
    ok: bool
    zeros: int = 0
    samples: int = 0
    error: str = ""
    scale: float = 1.0


def tail_percentile(durations, candidates=TAIL_PERCENTILES, min_beyond=TAIL_MIN_BEYOND):
    """Highest candidate percentile with at least min_beyond samples above it.

    Percentiles are nearest-rank: the p-th percentile of n sorted samples is
    the one at rank ceil(p/100 * n), and the samples beyond it are the
    n - rank above that rank.  Returns (percentile, value, beyond); when no
    candidate qualifies, the maximum is returned as percentile 100 with 0
    beyond.
    """
    xs = sorted(durations)
    n = len(xs)
    best = (100.0, xs[-1], 0)
    for p in candidates:
        # the epsilon keeps float noise in p * n (99.9 * 10000) off the rank
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        if n - rank >= min_beyond:
            best = (p, xs[rank - 1], n - rank)
    return best


def summarize(results, wall):
    """Rates and latencies over completed jobs; failures only in fail_frac.

    Each distinct job (label) counts once, at the median corrected time of
    its completed repetitions, so the job mix does not depend on where in a
    cycle the run stopped.  jobs_per_s is labels / the sum of those times;
    job_p50_s and job_tail_s are taken over them.  The same figures from
    uncorrected times are returned with a raw_ prefix, and wall_jobs_per_s
    is the plain completed / wall.
    """
    attempted = len(results)
    done = [r for r in results if r.ok]
    out = {
        "attempted": attempted,
        "failed": attempted - len(done),
        "fail_frac": (attempted - len(done)) / attempted if attempted else 0.0,
        "completed": len(done),
        "wall_jobs_per_s": len(done) / wall,
    }
    by_label = {}
    for r in done:
        by_label.setdefault(r.label, []).append(r)
    if not by_label:
        return out
    reps = list(by_label.values())
    zeros = sum(rs[0].zeros for rs in reps)
    samples = sum(rs[0].samples for rs in reps)
    for prefix, time_of in (("", lambda r: r.seconds * r.scale), ("raw_", lambda r: r.seconds)):
        durations = [statistics.median(time_of(r) for r in rs) for rs in reps]
        cycle = sum(durations)
        pct, value, beyond = tail_percentile(durations)
        out.update({
            prefix + "jobs_per_s": len(reps) / cycle,
            prefix + "zeros_per_s": zeros / cycle,
            prefix + "samples_per_s": samples / cycle,
            prefix + "job_p50_s": statistics.median(durations),
            prefix + "job_tail_s": value,
        })
    out.update(tail_percentile=pct, tail_beyond=beyond, distinct_jobs=len(reps),
               repetitions=min(len(rs) for rs in reps))
    return out
