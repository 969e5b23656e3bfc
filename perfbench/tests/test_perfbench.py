"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench/tests"""

import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the benchmark's modules import each other as top-level modules, as they do
# when perfbench/run.py starts them; the package comes from ./src
for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_overlapping_children_once():
    # (start, end, parent) of: parent; a; b, which overlaps a on [3, 4];
    # c, which sticks out of the parent by 2; and a grandchild under a,
    # listed last although it starts before b
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (8.0, 12.0, 0), (1.5, 2.0, 1)]
    selfs = self_times(*zip(*spans))
    # parent: 10 minus the union [1, 6] + [8, 10]
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_times_of_nested_calls_add_up_to_the_root():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    leaf = tr.timed("leaf", lambda: None)
    mid = tr.timed("mid", lambda: (leaf(), leaf()))
    with tr.span("root"):
        mid()
        leaf()
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    assert sum(selfs) == pytest.approx(tr.ends[0] - tr.starts[0])
    assert list(tr.parents) == [-1, 0, 1, 1, 0]
    assert min(selfs) > 0


def test_failed_call_is_marked_and_the_stack_unwinds():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tr.timed("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.failed[0] == 1
    assert not tr.inside("boom")


def test_install_rebinds_every_alias_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def work():
        return 42

    pkg.work = sub.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        tr = Tracer()
        tr.install(work, tr.counted("fakepkg.work", work), "fakepkg")
        assert pkg.work() == 42 and sub.work() == 42
        assert tr.counts["fakepkg.work.calls"] == 2
        tr.uninstall()
        assert pkg.work is work and sub.work is work
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


@pytest.mark.parametrize("n, percentile, beyond", [
    (19, 100.0, 0),      # too few samples for any candidate: the maximum
    (20, 50.0, 10),
    (39, 50.0, 19),
    (40, 75.0, 10),
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    durations = [float(i) for i in range(n, 0, -1)]
    p, value, got_beyond = stats.tail_percentile(durations)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(1 for d in durations if d > value) == beyond


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_seed_drawn_inputs_stay_in_their_ranges():
    for seed in range(50):
        for k, a, lo, hi in workloads.make_inputs("ladder", seed)["windows"]:
            assert k in (1, 2, 3) and 0.5 <= abs(a) <= 2.0
            assert -1000 <= lo and hi == lo + 100 and hi <= 1000
        radii = [r for _, _, r in workloads.make_inputs("origin", seed)["disks"]]
        assert all(5.0 + 4.375 * i <= r <= 5.0 + 4.375 * (i + 1) for i, r in enumerate(radii))
        assert all(radii[i] + radii[-1 - i] == pytest.approx(45.0) for i in range(4))


def test_failed_job_counts_in_fail_frac_but_not_in_rates():
    results = [
        stats.JobResult("good", 1.0, True, zeros=10, samples=5),
        stats.JobResult("bad", 100.0, False, zeros=99, samples=99, error="boom"),
        stats.JobResult("other", 3.0, True, zeros=10, samples=5),
    ]
    out = stats.summarize(results, wall=104.0)
    assert (out["attempted"], out["failed"], out["completed"]) == (3, 1, 2)
    assert out["fail_frac"] == pytest.approx(1 / 3)
    assert out["jobs_per_s"] == pytest.approx(2 / 4.0)
    assert out["zeros_per_s"] == pytest.approx(20 / 4.0)
    assert out["samples_per_s"] == pytest.approx(10 / 4.0)
    assert out["job_p50_s"] == pytest.approx(2.0)
    assert out["wall_jobs_per_s"] == pytest.approx(2 / 104.0)


def test_each_job_counts_once_at_its_median_corrected_time():
    results = [
        stats.JobResult("a", 2.0, True, zeros=1),
        stats.JobResult("b", 1.0, True, zeros=3, scale=0.5),
        stats.JobResult("a", 3.0, True, zeros=1, scale=0.5),
        stats.JobResult("a", 4.0, True, zeros=1, scale=0.25),
    ]
    out = stats.summarize(results, wall=10.0)
    # corrected times: a -> median(2.0, 1.5, 1.0) = 1.5, b -> 0.5
    assert out["jobs_per_s"] == pytest.approx(2 / 2.0)
    assert out["zeros_per_s"] == pytest.approx(4 / 2.0)
    assert out["job_p50_s"] == pytest.approx(1.0)
    assert out["job_tail_s"] == pytest.approx(1.5)
    # uncorrected: a -> 3.0, b -> 1.0
    assert out["raw_jobs_per_s"] == pytest.approx(2 / 4.0)
    assert (out["distinct_jobs"], out["repetitions"]) == (2, 1)


def test_benchmark_json_lists_the_metrics_the_harness_emits():
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "zeros_per_s", "peak_rss_mb"}
