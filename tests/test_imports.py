"""The package namespace loads its submodules on first use, and each CLI
subcommand imports only the modules it calls.

A stray top-level import (in __init__, cli, _serialize or bounds) would load
every compute module for every subcommand; the per-command checks below run
each in a fresh interpreter, as a user's command runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import quasizeros as qz

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: standard modules that cost a CLI command milliseconds to import and that
#: it does not need (dataclasses alone pulls in inspect, ast, dis and tokenize)
SLOW = ("dataclasses", "inspect")

#: runs the CLI on argv, then prints its exit code, the quasizeros
#: submodules it loaded, and the SLOW modules that importing and running the
#: CLI loaded (not those the interpreter's start, site hooks included,
#: already had)
CHILD = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from quasizeros.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("quasizeros.")),
                  sorted(m for m in {SLOW!r} if m in sys.modules and m not in before)]))
"""

COMPUTE = {"bounds", "certify", "regions", "zeros"}


def _loaded(*argv):
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, check=True)
    code, modules, slow = json.loads(proc.stdout)
    return code, {name.split(".", 1)[1] for name in modules}, slow


def test_subcommands_load_only_what_they_run(tmp_path):
    # the argv of the benchmark's cli workload; the zeros run writes the
    # document the certify runs read
    common = ["--k", "1", "--a", "1+0i"]
    zeros_json = str(tmp_path / "zeros.json")
    runs = [
        ("zeros", ["zeros", *common, "--nu", "-20..20", "--tol", "1e-12", "--certify",
                   "--with-disk", "5", "--out", zeros_json], 0, {"bounds", "regions"}),
        ("certify", ["certify", *common, "--box", "-12,-129.43,12,129.43",
                     "--expect-from", zeros_json], 0, {"bounds", "regions"}),
        ("origin", ["origin", *common, "--radius", "2"], 0, {"bounds", "regions"}),
        ("bounds-T1", ["bounds", "--k", "2", "--a", "2+1i", "--which", "T1",
                       "--samples", "10000"], 0, {"certify", "zeros", "regions"}),
        ("gaps", ["gaps", *common, "--nu", "20..50"], 0, {"certify", "bounds", "regions"}),
        ("classify", ["classify", *common, "--h", "2", "--R", "5", "--S", "1",
                      "--point", "2.33+10i", "--point", "-100+0i"], 0,
         {"zeros", "certify", "bounds"}),
        ("sector-radius", ["sector-radius", "--k", "1", "--h", "2", "--delta", "0.5",
                           "--samples", "1000"], 0, {"certify", "zeros"}),
        ("zeros-k0", ["zeros", "--k", "0", "--a", "1+0i", "--nu", "1..5"], 2, COMPUTE),
    ]
    for label, argv, expected_code, absent in runs:
        code, loaded, slow = _loaded(*argv)
        assert code == expected_code, label
        assert not loaded & absent, (label, sorted(loaded & absent))
        assert slow == [], (label, slow)


def test_bare_import_loads_no_submodule():
    code = ("import sys, quasizeros; "
            "before = sorted(m for m in sys.modules if m.startswith('quasizeros.')); "
            "print(before, quasizeros.certify.__name__, quasizeros.zeros.__name__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["[]", "quasizeros.certify", "quasizeros.zeros"]


def test_public_names_are_their_modules_objects():
    for name in qz.__all__:
        obj = getattr(qz, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("quasizeros."), name


def test_dir_and_star_import():
    assert set(qz.__all__) <= set(dir(qz))
    assert {"certify", "zeros", "__version__"} <= set(dir(qz))
    namespace = {}
    exec("from quasizeros import *", namespace)
    assert set(qz.__all__) <= set(namespace)
    assert namespace["winding_count"] is qz.certify.winding_count


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qz.no_such_name


def test_traced_name_shows_through_the_package():
    # the package never stores a resolved name: one first looked up while a
    # tracer's wrapper is installed must not keep the wrapper afterwards
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = qz.certify.find_zeros_in_disk
    assert "find_zeros_in_disk" not in vars(qz)
    tracer = tracer_module.Tracer()
    wrapper = tracer.counted("certify.find_zeros_in_disk", original)
    tracer.install(original, wrapper, "quasizeros")
    try:
        assert qz.find_zeros_in_disk is wrapper
        qz.find_zeros_in_disk(qz.QuasiPolynomial(1, 1 + 0j), 2.0)
    finally:
        tracer.uninstall()
    assert tracer.counts["certify.find_zeros_in_disk.calls"] == 1
    assert qz.find_zeros_in_disk is original
    assert "find_zeros_in_disk" not in vars(qz)
