"""The benchmark's tracer (perfbench/layers.py) wraps package functions by
module and attribute name.  A rename in the package must fail here, not
first show up as a broken `perfbench/run.py --trace 1`."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

import quasizeros

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))  # layers.py imports its sibling tracer.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                      PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_modules_are_the_package(layers):
    for module in layers.MODULES.values():
        assert module.__name__.startswith(quasizeros.__name__ + ".")


def test_traced_functions_resolve(layers):
    wrapped = layers.TIMED + layers.COUNTED
    missing = [f"{layer}.{attr}" for layer, attr in wrapped
               if not callable(getattr(layers.MODULES[layer], attr, None))]
    assert not missing
    assert ("certify", "_edge_clear") in wrapped


def test_winding_report_has_integer_segments(layers):
    # the traced winding_count hook adds report.segments_used to a counter
    report = quasizeros.winding_count(quasizeros.QuasiPolynomial(1, 1 + 0j),
                                      quasizeros.Circle(0j, 1.0))
    assert isinstance(report.segments_used, int) and report.segments_used > 0
    assert ("certify", "winding_count") in layers.TIMED


def test_traced_ladder_accounting(layers):
    # a traced ladder run adds up, although its records are certified from
    # their polish and none goes through certify_record
    tracer_module = sys.modules[layers.self_times.__module__]
    qp = quasizeros.QuasiPolynomial(1, 1 + 0j)
    start = time.perf_counter()
    quasizeros.zeros_in_index_range(qp, -20, 20)
    base_wall = time.perf_counter() - start
    ladder = quasizeros.zeros_in_index_range
    tracer = tracer_module.Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        records = quasizeros.zeros_in_index_range(qp, -20, 20)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert quasizeros.zeros_in_index_range is ladder
    assert len(records) == 40 and all(rec.certified for rec in records)
    metrics, accounting, _shares = layers.summarize(
        tracer, cycles=1, traced_wall=traced_wall, base_wall=base_wall, base_samples=0,
        import_s=0.0)
    assert accounting["ok"], accounting
    assert metrics["certify.certify_record.calls"]["value"] == 0
    assert metrics["certify.certify_record.certified_frac"]["value"] == 0.0
    assert metrics["zeros.isolation_radii.pairs"]["value"] == 40 * 39
    assert metrics["zeros.zeros_in_index_range.self_s"]["value"] > 0.0


def test_traced_samplers_are_counted(layers):
    # the layers reach the samplers through the kernels' forward to
    # _sampling; one T1 check runs one sampler call per substream
    from quasizeros import _sampling

    tracer_module = sys.modules[layers.self_times.__module__]
    qp = quasizeros.QuasiPolynomial(1, 1 + 0j)
    original = _sampling.sample_exterior_margin
    tracer = tracer_module.Tracer()
    layers.install(tracer)
    try:
        assert _sampling.sample_exterior_margin is not original
        report = quasizeros.verify_T1_bound(qp, quasizeros.h_threshold(qp, "T1") + 0.5, 10.0,
                                            2000, seed=1)
    finally:
        tracer.uninstall()
    assert _sampling.sample_exterior_margin is original
    assert report.samples == 2000
    assert tracer.names.count("kernels.sample_exterior_margin") == 16
    metrics, _accounting, _shares = layers.summarize(
        tracer, cycles=1, traced_wall=1.0, base_wall=1.0, base_samples=0, import_s=0.0)
    assert metrics["kernels.sampler.calls"]["value"] == 16
    assert metrics["kernels.sample_exterior_margin.self_s"]["value"] > 0.0
