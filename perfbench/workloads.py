"""The four benchmark workloads: seeded inputs, jobs and output checks.

``make_inputs(workload, seed)`` is pure: it turns the workload seed into
plain data, the (k, A, index range or radius, sampler seed) tuples the
package receives.  ``build`` turns those inputs into jobs.  Every job calls
the package through ``quasizeros.<name>`` (or the CLI) at call time, so the
tracer's rebound attributes are seen.

A job's ``run`` is what is timed; its ``check`` runs after the clock stops,
raises CheckError on a wrong output and returns (certified zeros, samples)
delivered.  For jobs flagged ``known_defect``, NotConvergedError is the
documented ladder-refinement defect (ROADMAP item 4): it is tallied apart
from failures.  Any other error or a wrong output is a failure.
"""

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import quasizeros as qz
from quasizeros.errors import NotConvergedError

WORKLOADS = ("ladder", "origin", "bounds", "cli")

TWO_PI = 2.0 * math.pi

#: the nine acceptance (k, A) combinations
COMBOS = tuple((k, a) for k in (1, 2, 3) for a in (1 + 0j, 2 + 1j, 0.5j))

#: residual every delivered zero must reach
RESIDUAL_LIMIT = 1e-10

#: seed-drawn ladder windows and origin disks per cycle
LADDER_WINDOWS = 8
ORIGIN_DISKS = 8

#: criterion-02 completeness window: Re in [-12, 12], |Im| <= 2*pi*20.6
WINDOW_CAP = TWO_PI * 20.6
WINDOW_ZEROS = 41


class CheckError(Exception):
    """A job returned a wrong output."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    known_defect: bool = False


def _rng(workload, seed):
    return random.Random(f"quasizeros-bench:{workload}:{seed}")


def _draw_qp(rng):
    """k in {1, 2, 3}; |A| log-uniform on [0.5, 2]; arg A uniform."""
    k = rng.choice((1, 2, 3))
    mag = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return k, cmath.rect(mag, rng.uniform(-math.pi, math.pi))


def make_inputs(workload, seed):
    """Seeded inputs of one workload as plain data (same seed, same inputs)."""
    rng = _rng(workload, seed)
    if workload == "ladder":
        windows = []
        for _ in range(LADDER_WINDOWS):
            k, a = _draw_qp(rng)
            lo = rng.randint(-1000, 900)
            windows.append((k, a, lo, lo + 100))
        return {
            "baseline": (1, 1 + 0j, -1000, 1000),
            "combos": [(k, a, -50, 50) for k, a in COMBOS],
            "windows": windows,
            "defects": [(1, 1 + 0j, 2500, 2700), (10, 1 + 0j, 1, 20), (25, 1 + 0j, 1, 20)],
        }
    if workload == "origin":
        # one radius per eighth of [5, 40], at a seed-drawn offset u that is
        # mirrored (1 - u) in every other stratum.  Each r is uniform in its
        # stratum, and strata i and 7 - i have radii summing to 45.  The disk
        # search costs about linearly in r, so pairs of them cost about the
        # same whatever the seed.
        u = rng.random()
        disks = []
        for i in range(ORIGIN_DISKS):
            k, a = _draw_qp(rng)
            r = 5.0 + 35.0 * (i + (u if i % 2 == 0 else 1.0 - u)) / ORIGIN_DISKS
            disks.append((k, a, r))
        return {
            "baseline": [(1, 1 + 0j, 40.0), (1, 1 + 0j, 100.0)],
            "oracle": (1, 1 + 0j, 2.0),
            "double": (1, complex(-math.e, 0.0), 1.5),
            "split": (1, complex(-math.e * (1 + 1e-3), 0.0), 1.5),
            "conjugate": (2, 3 + 0j, 8.0),
            "disks": disks,
        }
    if workload == "bounds":
        return {
            "exterior": [(k, a, rng.getrandbits(32), rng.getrandbits(32)) for k, a in COMBOS],
            "sector": [(delta, rng.getrandbits(32)) for delta in (0.5, 1.0)],
            "cdelta_seed": rng.getrandbits(32),
        }
    if workload == "cli":
        return {"bounds_seed": rng.getrandbits(31), "sector_seed": rng.getrandbits(31)}
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -----------------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _check_distinct(values, tol=1e-6):
    ordered = sorted(values, key=lambda v: v.imag)
    for i, v in enumerate(ordered):
        for w in ordered[i + 1:]:
            if w.imag - v.imag >= tol:
                break
            _require(abs(w - v) >= tol, f"duplicate zero near {v:.9g}")


def _check_records(records, certified=True):
    for rec in records:
        _require(rec.residual < RESIDUAL_LIMIT,
                 f"residual {rec.residual:.3g} at {rec.value:.9g}")
        _require(rec.certified or not certified, f"uncertified zero at {rec.value:.9g}")
    _check_distinct([rec.value for rec in records])


def _ladder_check(lo, hi, certified):
    expected = [nu for nu in range(lo, hi + 1) if nu != 0]

    def check(records):
        _require(sorted(rec.nu for rec in records) == expected,
                 f"records are not exactly one per nonzero nu in {lo}..{hi}")
        _check_records(records, certified)
        return (len(records) if certified else 0), 0

    return check


def _disk_check(r, ladder_values, conjugate_closed=False):
    """Certified zeros inside |l| <= r that include every ladder zero there."""

    def check(records):
        _check_records(records)
        for rec in records:
            _require(abs(rec.value) <= r, f"zero {rec.value:.9g} outside the disk")
        for v in ladder_values:
            if abs(v) < r - 1e-3:
                _require(any(abs(rec.value - v) < 1e-8 for rec in records),
                         f"disk search missed the ladder zero {v:.9g}")
        if conjugate_closed:
            for rec in records:
                _require(any(abs(rec.value.conjugate() - o.value) < 1e-9 for o in records),
                         f"conjugate of {rec.value:.9g} missing")
        return len(records), 0

    return check


def _bisect(f, lo, hi, iterations=200):
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- job lists --------------------------------------------------------------


def _ladder_job(label, k, a, lo, hi, certify, known_defect=False):
    qp = qz.QuasiPolynomial(k, a)
    return Job(label, lambda: qz.zeros_in_index_range(qp, lo, hi, 1e-12, certify),
               _ladder_check(lo, hi, certify), known_defect)


def _ladder_jobs(inp):
    k, a, lo, hi = inp["baseline"]
    jobs = [_ladder_job("a:baseline", k, a, lo, hi, True),
            _ladder_job("b:uncertified", k, a, lo, hi, False)]
    jobs += [_ladder_job(f"c:k{k}:A{a}", k, a, lo, hi, True) for k, a, lo, hi in inp["combos"]]
    # a window that reaches low |nu| can hit the same defect as the (e) jobs
    # (e.g. k=3, A=-0.519+0.045i fails at nu=-1), so it is flagged too
    jobs += [_ladder_job(f"d:window{i}", k, a, lo, hi, True, known_defect=True)
             for i, (k, a, lo, hi) in enumerate(inp["windows"])]
    jobs += [_ladder_job(f"e:k{k}:nu{lo}..{hi}", k, a, lo, hi, True, known_defect=True)
             for k, a, lo, hi in inp["defects"]]
    return jobs


def _disk_job(label, k, a, r, check=None, conjugate_closed=False):
    """find_zeros_in_disk(k, A, r), checked by `check` or, by default,
    against the ladder zeros inside the disk."""
    qp = qz.QuasiPolynomial(k, a)
    if check is None:
        # reference: the ladder zeros (found by Newton from asymptotic seeds,
        # a path independent of the subdivision search) in the disk.  Low
        # indices where the ladder refinement itself fails (a known defect)
        # give no reference; the disk search still has to find those zeros.
        n = math.ceil(r / TWO_PI) + 1
        ladder = []
        for nu in (*range(-n, 0), *range(1, n + 1)):
            try:
                ladder += [rec.value for rec in qz.zeros_in_index_range(qp, nu, nu, 1e-12, False)]
            except NotConvergedError:
                pass
        check = _disk_check(r, ladder, conjugate_closed)
    return Job(label, lambda: qz.find_zeros_in_disk(qp, r), check)


def _job_pair(first, second):
    """One job that runs two jobs back to back and checks both outputs."""

    def check(outputs):
        (z1, s1), (z2, s2) = first.check(outputs[0]), second.check(outputs[1])
        return z1 + z2, s1 + s2

    return Job(f"{first.label}+{second.label.split(':')[-1]}",
               lambda: (first.run(), second.run()), check)


def _origin_jobs(inp):
    jobs = [_disk_job(f"a:r{r:g}", k, a, r) for k, a, r in inp["baseline"]]
    oracle = _bisect(lambda x: math.exp(x) + x, -1.0, 0.0)

    def oracle_check(records):
        _check_records(records)
        _require(len(records) == 1 and records[0].multiplicity == 1
                 and abs(records[0].value - oracle) < 1e-10,
                 f"disk r=2 does not match the bisection oracle {oracle!r}")
        return 1, 0

    def double_check(records):
        _require(len(records) == 1 and records[0].multiplicity == 2 and records[0].certified
                 and abs(records[0].value - 1.0) < 1e-8,
                 "A = -e must give one certified double zero at l = 1")
        return 1, 0

    def split_check(records):
        _check_records(records)
        near = [rec for rec in records if abs(rec.value - 1.0) < 0.2]
        _require(len(near) == 2 and all(rec.multiplicity == 1 for rec in near),
                 "A = -e(1+1e-3) must split into two simple zeros near l = 1")
        return len(records), 0

    jobs.append(_disk_job("b:oracle", *inp["oracle"], check=oracle_check))
    jobs.append(_disk_job("b:double", *inp["double"], check=double_check))
    jobs.append(_disk_job("b:split", *inp["split"], check=split_check))
    jobs.append(_disk_job("b:k2A3", *inp["conjugate"], conjugate_closed=True))
    # the drawn disks are searched in mirrored pairs, strata i and 7 - i,
    # whose radii sum to 45: every pair job then costs about the same
    disks = [_disk_job(f"c:disk{i}", k, a, r) for i, (k, a, r) in enumerate(inp["disks"])]
    for i in range(ORIGIN_DISKS // 2):
        jobs.append(_job_pair(disks[i], disks[-1 - i]))

    qp1 = qz.QuasiPolynomial(1, 1 + 0j)
    box = qz.Rectangle(complex(-12, -WINDOW_CAP), complex(12, WINDOW_CAP))
    union = list(qz.zeros_in_index_range(qp1, -20, 20, 1e-12))
    for rec in qz.find_zeros_in_disk(qp1, 5.0):
        if all(abs(rec.value - u.value) >= 1e-6 for u in union):
            union.append(rec)
    window = [rec for rec in union if box.contains(rec.value)]
    if len(window) != WINDOW_ZEROS:
        raise CheckError(f"criterion-02 window holds {len(window)} records, not {WINDOW_ZEROS}")

    def count_check(report):
        _require(report.count == WINDOW_ZEROS, f"window winding count {report.count}")
        return 0, 0

    def completeness_check(result):
        ok, detail = result
        _require(ok and detail["contour_count"] == WINDOW_ZEROS,
                 f"completeness failed: {detail['contour_count']} vs {WINDOW_ZEROS}")
        return WINDOW_ZEROS, 0

    jobs.append(Job("d:window_count", lambda: qz.winding_count(qp1, box), count_check))
    jobs.append(Job("d:completeness", lambda: qz.certify_completeness(qp1, box, window),
                    completeness_check))
    return jobs


EXTERIOR_SAMPLES = 100_000
SECTOR_SAMPLES = 10_000
CDELTA_SAMPLES = 100_000


def _bounds_jobs(inp):
    jobs = []

    def passed(report):
        _require(report.passed, f"{report.region}: min margin {report.min_margin:.4g}")
        return 0, report.samples

    for k, a, seed1, seed2 in inp["exterior"]:
        qp = qz.QuasiPolynomial(k, a)
        h1 = qz.h_threshold(qp, "T1") + 0.5
        h2 = qz.h_threshold(qp, "T2") + 0.5
        jobs.append(Job(f"a:T1:k{k}:A{a}", lambda qp=qp, h=h1, s=seed1:
                        qz.verify_T1_bound(qp, h, 10.0, EXTERIOR_SAMPLES, s), passed))
        jobs.append(Job(f"a:T2:k{k}:A{a}", lambda qp=qp, h=h2, s=seed2:
                        qz.verify_T2_bound(qp, h, 10.0, EXTERIOR_SAMPLES, s), passed))

    qp1 = qz.QuasiPolynomial(1, 1 + 0j)

    def sector_job(delta, seed, scale):
        r_star = qz.sector_cover_radius(qp1, 2.0, delta)
        return qz.verify_sector_cover(qp1, 2.0, delta, r_star * scale, SECTOR_SAMPLES, seed)

    def covered(report):
        _require(report.violations == 0 and report.passed,
                 f"{report.violations} sector violations at R*")
        return 0, report.samples

    def witnessed(report):
        _require(report.violations >= 1, "no sector violation at R*/2")
        return 0, report.samples

    for delta, seed in inp["sector"]:
        jobs.append(Job(f"b:sector:d{delta}:R*", lambda d=delta, s=seed: sector_job(d, s, 1.0),
                        covered))
        jobs.append(Job(f"b:sector:d{delta}:R*/2", lambda d=delta, s=seed: sector_job(d, s, 0.5),
                        witnessed))

    seed = inp["cdelta_seed"]
    im_cap = TWO_PI * 60.0
    span = int(im_cap / TWO_PI) + 3

    def cdelta():
        # as `bounds --which cdelta` runs it: certified strip, then the
        # estimate with its completeness check
        strip = qz.zeros_in_index_range(qp1, -span, span, 1e-12, certify=True)
        return strip, qz.estimate_C_delta(qp1, 2.0, 10.0, 0.5, CDELTA_SAMPLES, seed, strip,
                                          im_cap=im_cap)

    def cdelta_check(result):
        strip, est = result
        zeros, _ = _ladder_check(-span, span, True)(strip)
        _require(est.c_hat > 0.0, f"c_hat = {est.c_hat!r}")
        return zeros, est.sample_count

    jobs.append(Job("c:cdelta", cdelta, cdelta_check))
    return jobs


# -- CLI ---------------------------------------------------------------------


class CliRunner:
    """Runs quasizeros argv either in a fresh interpreter or in-process.

    Returns (exit code, stdout bytes).  The in-process form is the traced
    replay: the same argv through ``quasizeros.cli.main``.
    """

    def __init__(self, in_process):
        self.in_process = in_process

    def __call__(self, argv):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "quasizeros", *argv],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
            return proc.returncode, proc.stdout
        from quasizeros import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue().encode()


def _cli_jobs(inp, workdir, runner):
    zeros_path = os.path.join(workdir, "zeros.json")
    tampered_path = os.path.join(workdir, "tampered.json")
    box = f"-12,{-WINDOW_CAP!r},12,{WINDOW_CAP!r}"
    common = ["--k", "1", "--a", "1+0i"]
    zeros_argv = ["zeros", *common, "--nu", "-20..20", "--tol", "1e-12", "--certify",
                  "--with-disk", "5", "--out", zeros_path]

    # set-up: the document the certify jobs read, and a copy missing one
    # record inside the window
    code, _ = runner(zeros_argv)
    if code != 0:
        raise CheckError(f"zeros --out exited {code} during set-up")
    with open(zeros_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    inside = [rec for rec in doc["results"] if abs(rec["im"]) < WINDOW_CAP]
    doc["results"].remove(inside[7])
    with open(tampered_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    # (label, argv, expected exit code, samples drawn)
    specs = [
        ("zeros", zeros_argv, 0, 0),
        ("certify", ["certify", *common, "--box", box, "--expect-from", zeros_path], 0, 0),
        ("certify-tampered",
         ["certify", *common, "--box", box, "--expect-from", tampered_path], 1, 0),
        ("origin", ["origin", *common, "--radius", "2"], 0, 0),
        ("bounds-T1", ["bounds", "--k", "2", "--a", "2+1i", "--which", "T1", "--samples",
                       "10000", "--seed", str(inp["bounds_seed"])], 0, 10000),
        ("gaps", ["gaps", *common, "--nu", "20..50"], 0, 0),
        ("classify", ["classify", *common, "--h", "2", "--R", "5", "--S", "1",
                      "--point", "2.33+10i", "--point", "-100+0i"], 0, 0),
        ("sector-radius", ["sector-radius", "--k", "1", "--h", "2", "--delta", "0.5",
                           "--samples", "1000", "--seed", str(inp["sector_seed"])], 0, 1000),
        ("zeros-k0", ["zeros", "--k", "0", "--a", "1+0i", "--nu", "1..5"], 2, 0),
    ]
    first_output = {}

    def make(label, argv, expected, samples):
        def run():
            code, out = runner(argv)
            if label == "zeros":
                with open(zeros_path, "rb") as fh:
                    out += fh.read()
            return code, out

        def check(result):
            code, out = result
            _require(code == expected, f"{label}: exit {code}, expected {expected}")
            _require(first_output.setdefault(label, out) == out,
                     f"{label}: output differs from the first run of the same argv")
            zeros = 0
            if label in ("zeros", "origin"):
                zeros = sum(1 for rec in json.loads(out)["results"] if rec["certified"])
            return zeros, samples

        return Job(label, run, check)

    return [make(*spec) for spec in specs]


def build(workload, seed, workdir, in_process_cli=False):
    """Inputs and jobs of a workload (runs set-up computations)."""
    inp = make_inputs(workload, seed)
    if workload == "ladder":
        return _ladder_jobs(inp)
    if workload == "origin":
        return _origin_jobs(inp)
    if workload == "bounds":
        return _bounds_jobs(inp)
    return _cli_jobs(inp, workdir, CliRunner(in_process_cli))


def warm_up(workload):
    """Run each code path of the workload once on a tiny input, so that lazy
    imports and first-call costs land in set-up, not in the first job."""
    qp = qz.QuasiPolynomial(1, 1 + 0j)
    if workload in ("ladder", "bounds"):
        strip = qz.zeros_in_index_range(qp, -3, 3, 1e-12, certify=True)
    if workload == "origin":
        qz.certify_completeness(qp, qz.Rectangle(complex(-1, -1), complex(1, 1)),
                                qz.find_zeros_in_disk(qp, 2.0))
    if workload == "bounds":
        qz.verify_T1_bound(qp, qz.h_threshold(qp, "T1") + 0.5, 10.0, 100, 1)
        qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.5, 10.0, 100, 1)
        qz.verify_sector_cover(qp, 2.0, 0.5, qz.sector_cover_radius(qp, 2.0, 0.5), 100, 1)
        qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 100, 1, strip, im_cap=TWO_PI * 2.0,
                            verify_completeness=False)
