"""The benchmark's tracer (perfbench/layers.py) wraps package functions by
module and attribute name.  A rename in the package must fail here, not
first show up as a broken `perfbench/run.py --trace 1`."""

import importlib.util
import sys
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
