"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Functions that take milliseconds get a
span; the ~3 us scalar kernels and cheap helpers get a call counter only,
because a span would dwarf them.  Per-layer values are per workload cycle
(every cycle runs the same jobs), so they compare across commits whatever
number of cycles fits in the run.
"""

import statistics
import subprocess
import sys
from collections import Counter

from tracer import self_times

import quasizeros
from quasizeros import _backend, _serialize, bounds, certify, cli, core, regions, zeros

MODULES = {
    "core": core, "zeros": zeros, "certify": certify, "regions": regions,
    "bounds": bounds, "kernels": _backend.kernels, "cli": cli, "serialize": _serialize,
}

SAMPLERS = ("sample_exterior_margin", "sample_strip_sector", "sample_strip_ratio")

TIMED = (
    ("certify", "certify_record"), ("certify", "winding_count"),
    ("certify", "find_zeros_in_disk"), ("certify", "certify_completeness"),
    ("certify", "_edge_clear"),
    ("zeros", "zeros_in_index_range"), ("zeros", "newton_refine"),
    ("zeros", "fixed_point_refine"), ("zeros", "isolation_radii"),
    ("kernels", "arc_segment_logderiv"), ("kernels", "line_segment_logderiv"),
    *(("kernels", name) for name in SAMPLERS),
    ("bounds", "verify_T1_bound"), ("bounds", "verify_T2_bound"),
    ("bounds", "verify_sector_cover"), ("bounds", "estimate_C_delta"),
    ("regions", "sector_cover_radius"),
    ("cli", "main"), ("serialize", "dump_json"),
)

COUNTED = (
    ("core", "relative_residual"), ("core", "newton_ratio"),
    ("regions", "classify"), ("serialize", "record_from_obj"),
)

#: the root span the harness opens around each job
JOB_SPAN = "harness.job"

#: (metric, unit) in the order they are reported; BENCHMARK.json lists the same
PER_LAYER = (
    ("certify.certify_record.calls", "count/cycle"),
    ("certify.certify_record.self_s", "s/cycle"),
    ("certify.certify_record.certified_frac", "ratio"),
    ("certify.segments_per_record", "count"),
    ("certify.winding_per_record", "count"),
    ("kernels.arc_segment_logderiv.calls", "count/cycle"),
    ("kernels.arc_segment_logderiv.self_s", "s/cycle"),
    ("zeros.isolation_radii.self_s", "s/cycle"),
    ("zeros.isolation_radii.pairs", "count/cycle"),
    ("zeros.newton_refine.calls", "count/cycle"),
    ("zeros.newton_refine.iterations", "count/cycle"),
    ("zeros.newton_refine.fail", "count/cycle"),
    ("zeros.newton_refine.self_s", "s/cycle"),
    ("zeros.fixed_point_refine.calls", "count/cycle"),
    ("zeros.fixed_point_refine.fail", "count/cycle"),
    ("zeros.zeros_in_index_range.self_s", "s/cycle"),
    ("certify.winding_count.calls", "count/cycle"),
    ("certify.winding_count.segments", "count/cycle"),
    ("certify.winding_count.fail", "count/cycle"),
    ("certify.winding_count.self_s", "s/cycle"),
    ("certify.find_zeros_in_disk.self_s", "s/cycle"),
    ("certify.certify_completeness.self_s", "s/cycle"),
    ("certify.cell_windings_per_zero", "count"),
    ("certify.edge_clear.self_s", "s/cycle"),
    ("kernels.line_segment_logderiv.calls", "count/cycle"),
    ("kernels.line_segment_logderiv.self_s", "s/cycle"),
    ("core.relative_residual.calls", "count/cycle"),
    ("core.newton_ratio.calls", "count/cycle"),
    ("kernels.sample_exterior_margin.self_s", "s/cycle"),
    ("kernels.sample_strip_sector.self_s", "s/cycle"),
    ("kernels.sample_strip_ratio.self_s", "s/cycle"),
    ("kernels.sampler.calls", "count/cycle"),
    ("bounds.verify_T1_bound.self_s", "s/cycle"),
    ("bounds.verify_T2_bound.self_s", "s/cycle"),
    ("bounds.verify_sector_cover.self_s", "s/cycle"),
    ("bounds.estimate_C_delta.self_s", "s/cycle"),
    ("bounds.samples", "count/cycle"),
    ("samples_per_s", "1/s"),
    ("regions.sector_cover_radius.calls", "count/cycle"),
    ("regions.sector_cover_radius.self_s", "s/cycle"),
    ("regions.classify.calls", "count/cycle"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s/cycle"),
    ("serialize.dump_json.self_s", "s/cycle"),
    ("serialize.record_from_obj.calls", "count/cycle"),
    ("harness.self_s", "s/cycle"),
    ("trace.layer_share", "ratio"),
    ("trace.base_s", "s/cycle"),
    ("trace.overhead_s", "s/cycle"),
)


def span_name(layer, attr):
    return f"{layer}.{attr.lstrip('_')}"


def install(tracer):
    """Wrap every TIMED and COUNTED function of the package."""
    counts = tracer.counts

    def in_record():
        return tracer.inside("certify.certify_record")

    def add(key, amount):
        def after(args, kwargs, result):
            counts[key] += amount(result)
        return after

    def before_winding(args, kwargs):
        if in_record():
            counts["certify.record_windings"] += 1
        contour = args[1] if len(args) > 1 else kwargs["contour"]
        if isinstance(contour, certify.Rectangle) and tracer.inside("certify.find_zeros_in_disk"):
            counts["certify.cell_windings"] += 1

    def before_segment(args, kwargs):
        if in_record():
            counts["certify.record_segments"] += 1

    bound_samples = add("bounds.samples", lambda report: report.samples)
    hooks = {
        "certify.certify_record": (None, add("certify.certified", lambda rec: rec.certified)),
        "certify.winding_count": (
            before_winding, add("certify.winding_count.segments", lambda rep: rep.segments_used)),
        "certify.find_zeros_in_disk": (None, add("certify.disk_zeros", len)),
        "zeros.newton_refine": (
            None, add("zeros.newton_refine.iterations", lambda rec: rec.iterations)),
        "zeros.isolation_radii": (
            None, add("zeros.isolation_radii.pairs", lambda radii: len(radii) * (len(radii) - 1))),
        "kernels.arc_segment_logderiv": (before_segment, None),
        "kernels.line_segment_logderiv": (before_segment, None),
        "bounds.verify_T1_bound": (None, bound_samples),
        "bounds.verify_T2_bound": (None, bound_samples),
        "bounds.verify_sector_cover": (None, bound_samples),
        "bounds.estimate_C_delta": (None, add("bounds.samples", lambda est: est.sample_count)),
    }
    for layer, attr in TIMED:
        fn = getattr(MODULES[layer], attr)
        name = span_name(layer, attr)
        before, after = hooks.get(name, (None, None))
        tracer.install(fn, tracer.timed(name, fn, before, after), quasizeros.__name__)
    for layer, attr in COUNTED:
        fn = getattr(MODULES[layer], attr)
        tracer.install(fn, tracer.counted(span_name(layer, attr), fn), quasizeros.__name__)


def fresh_import_seconds(reps=3):
    """Median time of `import quasizeros` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import quasizeros; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  stdout=subprocess.PIPE, text=True).stdout)
             for _ in range(reps)]
    return statistics.median(times)


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer, cycles, traced_wall, base_wall, base_samples, import_s):
    """Per-layer metrics from the spans and counters of `cycles` traced cycles.

    traced_wall is the wall time of those cycles; base_wall and base_samples
    are per untraced cycle of the same jobs.  Also returns the accounting:
    layer self times plus the harness's own time must add up to the traced
    wall time, with no negative self time.
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = self_times(starts, ends, parents)
    calls, self_s, fails = Counter(names), Counter(), Counter()
    root_total = 0.0
    for i, name in enumerate(names):
        self_s[name] += selfs[i]
        fails[name] += tracer.failed[i]
        if parents[i] < 0:
            root_total += ends[i] - starts[i]
    counts = tracer.counts
    layer_self = sum(v for k, v in self_s.items() if k != JOB_SPAN)
    harness_self = traced_wall - layer_self
    accounting = {
        "traced_wall_s": traced_wall,
        "layer_self_s": layer_self,
        "harness_self_s": harness_self,
        "min_self_s": min(selfs, default=0.0),
        "self_sum_minus_roots_s": sum(selfs) - root_total,
    }
    accounting["ok"] = (accounting["min_self_s"] > -1e-9
                        and abs(accounting["self_sum_minus_roots_s"]) <= 1e-6 * traced_wall
                        and harness_self >= 0.0)

    per = {}
    for layer, attr in TIMED:
        name = span_name(layer, attr)
        per[name + ".calls"] = calls[name] / cycles
        per[name + ".self_s"] = self_s[name] / cycles
        per[name + ".fail"] = fails[name] / cycles
    for layer, attr in COUNTED:
        key = span_name(layer, attr) + ".calls"
        per[key] = counts[key] / cycles
    for key in ("zeros.newton_refine.iterations", "zeros.isolation_radii.pairs",
                "certify.winding_count.segments", "bounds.samples"):
        per[key] = counts[key] / cycles
    records = calls["certify.certify_record"]
    per["certify.certify_record.certified_frac"] = _ratio(counts["certify.certified"], records)
    per["certify.segments_per_record"] = _ratio(counts["certify.record_segments"], records)
    per["certify.winding_per_record"] = _ratio(counts["certify.record_windings"], records)
    per["certify.cell_windings_per_zero"] = _ratio(counts["certify.cell_windings"],
                                                   counts["certify.disk_zeros"])
    per["kernels.sampler.calls"] = sum(calls["kernels." + s] for s in SAMPLERS) / cycles
    per["samples_per_s"] = base_samples / base_wall
    per["cli.import_s"] = import_s
    per["harness.self_s"] = harness_self / cycles
    per["trace.layer_share"] = layer_self / traced_wall
    per["trace.base_s"] = base_wall
    per["trace.overhead_s"] = traced_wall / cycles - base_wall

    metrics = {name: {"value": per[name], "unit": unit} for name, unit in PER_LAYER}
    shares = inclusive_shares(tracer, traced_wall)
    return metrics, accounting, shares


def inclusive_shares(tracer, wall):
    """Share of the traced wall time spent inside each span name, counting
    only outermost spans of a name (a recursive call is not counted twice)."""
    names, parents = tracer.names, tracer.parents
    total = Counter()
    for i, name in enumerate(names):
        parent = parents[i]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            total[name] += tracer.ends[i] - tracer.starts[i]
    return {name: t / wall for name, t in sorted(total.items(), key=lambda kv: -kv[1])}
