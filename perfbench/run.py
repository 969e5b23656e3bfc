"""End-to-end benchmark of quasizeros: one workload per invocation.

    python3 perfbench/run.py --workload {ladder,origin,bounds,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is used from ./src; it
is pure Python, so there is nothing to build).  Set-up is timed SETUP_REPS
times, each in a fresh process from before ``import quasizeros`` to the
moment the workload is ready; the last of those processes then runs the
timed closed loop.  Times are corrected for the machine's speed drift (see
stats.py).  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  The line before it records the machine and run fields.  See
perfbench/WORKLOADS.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))

#: fresh processes whose set-up is timed; setup_s is their median
SETUP_REPS = 5

#: a worker still running after this many seconds is killed
DEADLINE_S = 170.0


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def start_worker(argv, env, deadline):
    """Start a harness process and wait for its 'ready' line.

    Returns (process, seconds from just before the start to 'ready').  The
    worker gets a process group of its own, so that a kill at the deadline
    also ends the CLI children it may have started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "harness.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    proc.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill, (proc,))
    proc.timer.start()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"benchmark worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(proc):
    """Read the rest of the worker's output and wait for it to end.  (A
    worker waits for each CLI child it starts, so none outlives it.)"""
    out = proc.stdout.read()
    proc.wait()
    proc.timer.cancel()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quasizeros", "__init__.py")):
        print("run.py: no quasizeros source under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # one CPU for the whole process tree: the closed loop needs only one, and
    # the calibration that corrects a job's time (stats.py) then runs where
    # the job runs, CLI children included
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    inherited_threads = env.pop("QZ_THREADS", None)
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir]
    if args.trace:
        worker_argv += ["--spans-out", os.path.join(root, ".perfbench-out",
                                                    f"spans-{args.workload}.tsv.gz")]
    try:
        setups, raw_setups = [], []
        for rep in range(SETUP_REPS):
            # set-up time is drift-corrected like job times (see stats.py),
            # by a calibration taken just before the process starts
            scale = stats.REFERENCE_CALIBRATION_S / stats.calibrate()
            setup_only = rep < SETUP_REPS - 1
            proc, elapsed = start_worker(worker_argv + ["--setup-only"] * setup_only,
                                         env, deadline)
            raw_setups.append(elapsed)
            setups.append(elapsed * scale)
            if setup_only:
                finish(proc)
        out = finish(proc)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: benchmark worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    record = result.pop("record")
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=nproc, pinned_cpu=cpu, cpu_model=cpu_model(),
        QZ_THREADS="unset" if inherited_threads is None else f"unset (was {inherited_threads})",
        setup_s_samples=setups,
        raw_setup_s_samples=raw_setups,
    )
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
