import argparse
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasizeros import QuasiPolynomial, zeros_in_index_range
from quasizeros._serialize import parse_complex, parse_nu_range
from quasizeros.cli import _build_parser, _parse_box, main
from quasizeros.errors import DomainError


def _reject_constant(name):
    raise ValueError(f"the document holds {name}, which JSON does not allow")


def loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity: a document the
    CLI writes must be strict JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(*args, env=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "quasizeros", *args],
                          capture_output=True, text=True, env=full_env)
    return proc.returncode, proc.stdout, proc.stderr


class TestParsers:
    @pytest.mark.parametrize("text,value", [
        ("1+0i", 1 + 0j),
        ("-2.5+1i", -2.5 + 1j),
        ("3", 3 + 0j),
        ("-0.5i", -0.5j),
        ("1.5e-3+2e2i", 0.0015 + 200j),
        ("2+1j", 2 + 1j),
    ])
    def test_complex(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("bad", ["", "i+1", "1+", "2 3", "1+2", "abc", "nan", "inf+0i",
                                     "1e400", "1e400+0i", "1-1e400i", "-1e400i"])
    def test_complex_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_complex(bad)

    def test_nu_range(self):
        assert parse_nu_range("-5..5") == (-5, 5)
        assert parse_nu_range("3..3") == (3, 3)
        with pytest.raises(DomainError):
            parse_nu_range("5..-5")
        with pytest.raises(DomainError):
            parse_nu_range("1-5")

    @settings(max_examples=100)
    @given(re=st.floats(-1e6, 1e6), im=st.floats(-1e6, 1e6))
    def test_complex_roundtrip(self, re, im):
        assert parse_complex(f"{re}{im:+}i") == complex(re, im)


class TestNonFiniteInputs:
    """A number that overflows the float range in --a or --point exits 2
    with one DomainError line and no document."""

    @pytest.mark.parametrize("argv", [
        ("origin", "--k", "1", "--a", "1e400+0i", "--radius", "2"),
        ("zeros", "--k", "1", "--a", "1e400+0i", "--nu", "1..2"),
        ("bounds", "--k", "1", "--a", "1e400+0i", "--which", "T1", "--samples", "100"),
        ("certify", "--k", "1", "--a", "1e400+0i", "--box", "-1,-1,1,1"),
        ("classify", "--k", "1", "--a", "1e400+0i", "--h", "2", "--R", "5",
         "--point", "1+1i"),
        ("sector-radius", "--k", "1", "--a", "1e400+0i", "--h", "2", "--delta", "0.5"),
        ("classify", "--k", "1", "--a", "1+0i", "--h", "2", "--R", "5",
         "--point", "1e400+0i"),
        ("zeros", "--k", "1", "--a", "1-1e400i", "--nu", "1..2"),
    ], ids=["origin", "zeros", "bounds", "certify", "classify", "sector-radius",
            "classify-point", "zeros-imaginary-part"])
    def test_refused(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out, err.count("\n")) == (2, "", 1)
        error = loads(err)["error"]
        assert error["type"] == "DomainError" and "1e400" in error["message"]


class TestZerosCommand:
    def test_json_document(self):
        code, out, _ = run_cli("zeros", "--k", "1", "--a", "1+0i",
                               "--nu", "-5..5", "--tol", "1e-12", "--certify")
        assert code == 0
        doc = loads(out)
        assert doc["command"] == "zeros"
        assert doc["quasipolynomial"] == {"k": 1, "a": {"re": 1.0, "im": 0.0}}
        assert len(doc["results"]) == 10
        assert doc["summary"]["nu_skipped"] == [0]
        assert doc["summary"]["all_certified"] is True
        for rec in doc["results"]:
            assert rec["residual"] < 1e-12
            assert rec["certified"] is True
            assert set(rec) == {"nu", "re", "im", "residual", "certified",
                                "isolation_radius", "multiplicity"}

    def test_zero_coefficient_rejected(self):
        code, _out, err = run_cli("zeros", "--k", "1", "--a", "0+0i",
                                  "--nu", "1..2")
        assert code == 2
        assert loads(err.strip())["error"]["type"] == "DomainError"

    def test_bad_tolerance_rejected(self):
        code, _out, _err = run_cli("zeros", "--k", "1", "--a", "1+0i",
                                   "--nu", "1..2", "--tol", "0.5")
        assert code == 2

    @pytest.mark.parametrize("argv,expect_text", [
        (("zeros", "--k", "1", "--a", "1+0i"), None),
        (("certify", "--k", "1", "--a", "1+0i", "--box", "a,b,c,d"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "T1", "--h", "abc"),
         None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--h", "abc"), None),
        (("certify", "--k", "1", "--a", "1+0i", "--box", "-1,-1,1,1"),
         "nu,re,im\n1,2.0,3.0\n"),
        (("certify", "--k", "1", "--a", "1+0i", "--box", "-1,-1,1,1"),
         '{"command": "zeros"}'),
        (("certify", "--k", "1", "--a", "1+0i", "--box", "-inf,0,1,1"), None),
        (("origin", "--k", "1", "--a", "1+0i", "--radius", "nan"), None),
        (("origin", "--k", "1", "--a", "1+0i", "--radius", "inf"), None),
        (("zeros", "--k", "1", "--a", "1+0i", "--nu", "1..3", "--with-disk", "nan"),
         None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--im-cap", "inf"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--im-cap", "nan"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--im-cap", "0"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--im-cap", "1e200", "--samples", "1000"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta", "--R", "0"),
         None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta", "--R", "-5"),
         None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--delta", "0"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
          "--delta", "-0.5"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta", "--h", "-1"),
         None),
        (("origin", "--k", "1", "--a", "1+0i", "--radius", "2",
          "--quad-tol", "1e-6"), None),
        (("classify", "--k", "1", "--a", "1+0i", "--h", "nan", "--R", "5",
          "--point", "1+1i"), None),
        (("classify", "--k", "1", "--a", "1+0i", "--h", "2", "--R", "inf",
          "--point", "1+1i"), None),
        (("sector-radius", "--k", "1", "--h", "nan", "--delta", "0.5"), None),
        (("sector-radius", "--k", "1", "--h", "inf", "--delta", "0.5"), None),
        (("sector-radius", "--k", "1", "--h", "1e308", "--delta", "0.5"), None),
        (("sector-radius", "--k", "1", "--h", "2", "--delta", "0.5",
          "--samples", "-5"), None),
        (("bounds", "--k", "1", "--a", "1+0i", "--which", "T1", "--h", "nan"),
         None),
    ], ids=["zeros-no-nu", "certify-box-text", "bounds-T1-h-text",
            "bounds-cdelta-h-text", "certify-expect-not-json",
            "certify-expect-no-results", "certify-box-infinite",
            "origin-radius-nan", "origin-radius-inf", "zeros-with-disk-nan",
            "bounds-cdelta-im-cap-inf", "bounds-cdelta-im-cap-nan",
            "bounds-cdelta-im-cap-zero", "bounds-cdelta-im-cap-too-tall",
            "bounds-cdelta-R-zero",
            "bounds-cdelta-R-negative", "bounds-cdelta-delta-zero",
            "bounds-cdelta-delta-negative", "bounds-cdelta-h-negative",
            "origin-quad-tol-removed", "classify-h-nan", "classify-R-inf",
            "sector-radius-h-nan", "sector-radius-h-inf",
            "sector-radius-beyond-float-range", "sector-radius-samples-negative",
            "bounds-T1-h-nan"])
    def test_usage_error(self, argv, expect_text, tmp_path):
        if expect_text is not None:
            path = tmp_path / "expected.json"
            path.write_text(expect_text)
            argv = (*argv, "--expect-from", str(path))
        code, _out, err = run_cli(*argv)
        assert code == 2
        assert err.count("\n") == 1
        assert "message" in loads(err)["error"]

    def test_oversize_box_stalls(self, monkeypatch, capsys):
        # a box over the step budget exits 3 with one error line: its right
        # side runs along the zero strip and takes 3 steps after the bottom
        # side's 1, and a budget of 3 leaves it 2
        from quasizeros import certify as certify_mod

        monkeypatch.setattr(certify_mod, "STEP_BUDGET", 3)
        code = main(["certify", "--k", "1", "--a", "1+0i", "--box", "10,1e3,11,1e5"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert loads(err)["error"]["type"] == "QuadratureStalledError"

    @pytest.mark.parametrize("command", ["zeros", "gaps"])
    def test_index_range_over_the_budget_refused(self, monkeypatch, capsys, command):
        # at 4 branches per root, k = 1 lists at most 4 indices: 1..5 exits
        # 2 with one error line, before any zero is polished
        from quasizeros import zeros as zeros_mod

        monkeypatch.setattr(zeros_mod, "STEP_BUDGET", 4)
        argv = [command, "--k", "1", "--a", "1+0i", "--nu"]
        assert main([*argv, "1..4"]) == 0
        capsys.readouterr()
        code = main([*argv, "1..5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert loads(err)["error"] == {
            "type": "DomainError",
            "message": "index range [1, 5] holds 5 indices, more than the 4 a ladder lists "
                       "for k = 1 (4 branches per root)"}

    def test_box_with_corner_at_origin_counts(self, capsys):
        # the left side 5i -> 0 starts where e^l dominates and ends at 0
        code = main(["certify", "--k", "1", "--a", "0.1+0i", "--box", "0,0,5,5"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert loads(out)["summary"]["contour_count"] == 0

    @pytest.mark.parametrize("argv", [
        ("origin", "--k", "3", "--a", "2+1i", "--radius", "10"),
        ("zeros", "--k", "1", "--a", "1+0i", "--nu", "-20..20", "--certify",
         "--with-disk", "5"),
    ], ids=["origin-k3", "zeros-with-disk"])
    def test_ladder_labels_distinct(self, argv):
        code, out, _ = run_cli(*argv)
        assert code == 0
        indexed = [r for r in loads(out)["results"] if r["nu"] != "origin"]
        assert len({r["nu"] for r in indexed}) == len(indexed)
        assert all((r["nu"] > 0) == (r["im"] > 0) for r in indexed)

    @pytest.mark.parametrize("a,real,upper", [
        ("-3+0i", 1.5121345516578426, 3.76401928188419 + 13.87221103936666j),
        ("-2.73+0i", 1.0956431687878527, 3.6684271740829573 + 13.878757095433144j),
    ])
    def test_ladder_keeps_index_of_real_zero(self, a, real, upper):
        # for k=1 and real A < -e the index -1 zero is real; the ladder keeps
        # its requested index, as the disk search does
        code, out, _ = run_cli("zeros", "--k", "1", "--a", a, "--nu", "-1..1",
                               "--certify")
        assert code == 0
        results = loads(out)["results"]
        assert [r["nu"] for r in results] == [-1, 1]
        assert all(r["certified"] for r in results)
        for r, want in zip(results, (real, upper)):
            assert abs(complex(r["re"], r["im"]) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("k, a, code, count, near", [
        (1, -2.718281828459045, 0, 6, [(-1, 1.0, 2, True)]),
        (1, -3.0, 0, 7, [("origin", 0.619061287, 1, True), (-1, 1.512134552, 1, True)]),
        (1, -2.73, 0, 7, [("origin", 0.910091762, 1, True), (-1, 1.095643169, 1, True)]),
        (1, -math.e * (1 + 1e-3), 0, 7,
         [("origin", 0.955953651, 1, True), (-1, 1.045378987, 1, True)]),
        (1, -math.e * (1 - 1e-3), 0, 7,
         [(-1, 0.999332985 - 0.04473006j, 1, True),
          ("origin", 0.999332985 + 0.04473006j, 1, True)]),
        (2, -math.e ** 2 / 4, 0, 7, [("origin", -0.556929086, 1, True), (-1, 2.0, 2, True)]),
        (4, -math.e ** 4 / 256, 0, 9,
         [("origin", -0.411918915 - 1.26199823j, 1, True),
          ("origin", -1.113858171, 1, True), (-1, 4.0, 2, True),
          ("origin", -0.411918915 + 1.26199823j, 1, True)]),
    ], ids=["k1-minus-e", "k1-minus-3", "k1-minus-2.73", "k1-above-e", "k1-below-e",
            "k2-branch-point", "k4-branch-point"])
    def test_disk_merge_at_the_branch_point(self, k, a, code, count, near):
        # the disk search adds only the zeros the ladder does not name; at
        # the branch point the double zero is the ladder's nu = -1, listed
        # once.  The records within the disk are pinned, certificates
        # included: nu = -1 beside its unnamed twin fails at its ladder-only
        # radius 0.0625 and certifies at the joint one, 0.0447
        got, out, err = run_cli("zeros", "--k", str(k), "--a", f"{a!r}+0i", "--nu", "-3..3",
                                "--certify", "--with-disk", "5")
        assert got == code, err
        results = loads(out)["results"]
        values = [complex(r["re"], r["im"]) for r in results]
        assert len(results) == count
        assert min(abs(u - v) for i, u in enumerate(values) for v in values[:i]) > 1e-6
        inside = [(r["nu"], v, r["multiplicity"], r["certified"])
                  for r, v in zip(results, values) if abs(v) <= 5.0]
        assert [(nu, mult, cert) for nu, _v, mult, cert in inside] == [
            (nu, mult, cert) for nu, _v, mult, cert in near]
        for (_nu, v, _m, _c), (_, want, _, _) in zip(inside, near):
            assert abs(v - want) <= 1e-8

    def test_low_indices_of_large_k(self):
        code, out, _ = run_cli("zeros", "--k", "10", "--a", "1+0i", "--nu", "-3..3",
                               "--certify")
        assert code == 0
        results = loads(out)["results"]
        assert [r["nu"] for r in results] == [-3, -2, -1, 1, 2, 3]
        assert all(r["certified"] for r in results)

    def test_residual_floor_exits_3(self):
        code, _out, err = run_cli("zeros", "--k", "1", "--a", "1+0i",
                                  "--nu", "2609..2609")
        assert code == 3
        error = loads(err)["error"]
        assert error["type"] == "NotConvergedError"
        assert "nu = 2609" in error["message"]

    def test_subnormal_coefficient(self):
        # |z_j| = 1/|A| = 1e320 is beyond the float range; the Lambert-W seed
        # is placed from Log z_j.  The zeros solve e^l = -A l, so their real
        # parts are ln|A| + ln|l|
        code, out, err = run_cli("zeros", "--k", "1", "--a", "1e-320+0i", "--nu", "1..3",
                                 "--certify")
        assert (code, err) == (0, "")
        results = loads(out)["results"]
        assert [r["nu"] for r in results] == [1, 2, 3]
        for r in results:
            assert r["certified"] and r["residual"] < 1e-12
            lam = complex(r["re"], r["im"])
            assert abs(lam.real - math.log(1e-320) - math.log(abs(lam))) < 1e-9
        code, out, err = run_cli("origin", "--k", "1", "--a", "1e-320+0i", "--radius", "5")
        assert (code, err) == (0, "")
        assert loads(out)["summary"]["count"] == 0

    def test_coefficient_beyond_the_float_range(self):
        # |A| = 1.97e308 overflows abs(); ln|A| is formed from A/4.  The
        # zeros solve e^l = -A l, so their real parts are ln|A| + ln|l|
        code, out, err = run_cli("zeros", "--k", "1", "--a", "1.7e308+1e308i", "--nu", "-3..3",
                                 "--certify")
        assert (code, err) == (0, "")
        results = loads(out)["results"]
        assert [r["nu"] for r in results] == [-3, -2, -1, 1, 2, 3]
        ln_a = math.log(abs(complex(1.7e308, 1e308) / 4)) + math.log(4.0)
        for r in results:
            assert r["certified"] and r["residual"] < 1e-12
            lam = complex(r["re"], r["im"])
            assert abs(lam.real - ln_a - math.log(abs(lam))) < 1e-9

    def test_byte_identical_reruns(self):
        args = ("zeros", "--k", "2", "--a", "2+1i", "--nu", "-3..3",
                "--certify")
        _c1, out1, _ = run_cli(*args)
        _c2, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_csv_format(self):
        code, out, _ = run_cli("zeros", "--k", "1", "--a", "1+0i",
                               "--nu", "1..3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "nu,re,im,residual,certified,isolation_radius,multiplicity"
        assert len(lines) == 4
        # floats round-trip exactly through the CSV text
        first = lines[1].split(",")
        assert float(first[1]) == loads(
            run_cli("zeros", "--k", "1", "--a", "1+0i", "--nu", "1..3")[1]
        )["results"][0]["re"]

    def test_out_file(self, tmp_path):
        path = tmp_path / "z.json"
        code, out, _ = run_cli("zeros", "--k", "1", "--a", "1+0i",
                               "--nu", "1..2", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = loads(path.read_text())
        assert len(doc["results"]) == 2


    @pytest.mark.parametrize("k, a", [("3", "1e300+0i"), ("25", "1e150+0i"),
                                      ("25", "1e300+0i")])
    def test_tiny_disk_zeros_are_distinct(self, k, a):
        # the disk's zeros lie at |l| = |A|^(-1/k), closer together than the
        # duplicate distance 1e-6 read as absolute; it is 1e-6 min(1, |l|)
        code, out, err = run_cli("zeros", "--k", k, "--a", a, "--nu", "1..2",
                                 "--with-disk", "1")
        assert (code, err) == (0, "")
        assert loads(out)["summary"]["count"] == 2 + int(k)


class TestOriginCommand:
    def test_single_zero(self):
        code, out, _ = run_cli("origin", "--k", "1", "--a", "1+0i",
                               "--radius", "2")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["count"] == 1
        rec = doc["results"][0]
        assert rec["nu"] == "origin"
        assert rec["re"] == pytest.approx(-0.5671432904, abs=1e-9)

    def test_zero_below_squaring_range(self):
        # e^l + 1e300 l has a zero at about -1e-300, where l^2 underflows;
        # for k = 1 the Rouche test's second-order term is exactly 0
        code, out, err = run_cli("origin", "--k", "1", "--a", "1e300+0i", "--radius", "5")
        assert (code, err) == (0, "")
        doc = loads(out)
        assert doc["summary"] == {"count": 1, "all_certified": True}
        assert doc["results"][0]["re"] == pytest.approx(-1e-300, rel=1e-12)

    def test_zeros_where_powers_are_subnormal(self):
        # e^l + 1e308 l^2 has its zeros at about +-1e-154 i, where |l|^2 is
        # near the bottom of the normal range and |A| k overflows; the
        # tracker forms |A| |l|^k there in logarithms
        code, out, err = run_cli("origin", "--k", "2", "--a", "1e308+0i", "--radius", "5")
        assert (code, err) == (0, "")
        doc = loads(out)
        assert doc["summary"] == {"count": 2, "all_certified": True}
        ims = sorted(r["im"] for r in doc["results"])
        assert ims == [pytest.approx(-1e-154, rel=1e-12), pytest.approx(1e-154, rel=1e-12)]
        assert all(abs(r["re"]) < 1e-165 for r in doc["results"])

    def test_walk_over_budget_message_is_short(self, capsys):
        # the branch walk's refusal names the budget, not the branch count
        code = main(["origin", "--k", "1", "--a", "1+0i", "--radius", "1e300"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert loads(err)["error"]["type"] == "QuadratureStalledError"

    @pytest.mark.parametrize("radius, code, error", [
        ("1e4", 0, None),
        ("2e4", 3, "NotConvergedError"),
        ("3e4", 3, "NotConvergedError"),
        ("1e5", 3, "NotConvergedError"),
        ("3e5", 3, "QuadratureStalledError"),
    ])
    def test_large_disk_exit_codes(self, radius, code, error):
        # the square's count holds at any of these radii; above |Im l| of
        # about 16,400 the Newton polish cannot reach the default tolerance
        # (1e-12), and beyond 2.05e5 the branch walk is over the budget
        got, out, err = run_cli("origin", "--k", "1", "--a", "1+0i", "--radius", radius)
        assert got == code
        if error is None:
            assert loads(out)["summary"]["count"] > 3000
        else:
            assert out == "" and loads(err)["error"]["type"] == error
        if error == "NotConvergedError":
            # the walk names the zero whose polish failed, as the ladder does
            assert loads(err)["error"]["message"].startswith("refinement failed for nu = ")


class TestClassifyCommand:
    def test_labels(self):
        code, out, _ = run_cli("classify", "--k", "1", "--a", "1+0i",
                               "--h", "2", "--R", "5", "--S", "1",
                               "--point", "-100+0i", "--point", "100+0i",
                               "--point", "2.33+10i", "--point", "1+1i")
        assert code == 0
        doc = loads(out)
        tags = [row["tag"] for row in doc["results"]]
        assert tags == ["t_exterior_1", "t_exterior_2", "strip", "origin_disk"]
        assert doc["results"][2]["half"] == 1
        assert doc["summary"]["counts"]["strip"] == 1


class TestGapsCommand:
    def test_document(self):
        code, out, _ = run_cli("gaps", "--k", "1", "--a", "1+0i",
                               "--nu", "20..25")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["count"] == 5
        assert doc["summary"]["max_deviation"] < 0.1
        for row in doc["results"]:
            assert row["gap"] == pytest.approx(2 * math.pi, abs=0.1)

    def test_mixed_range_rejected(self):
        code, _out, _err = run_cli("gaps", "--k", "1", "--a", "1+0i",
                                   "--nu", "-2..2")
        assert code == 2


class TestSectorRadiusCommand:
    def test_radius_and_verification(self):
        code, out, _ = run_cli("sector-radius", "--k", "1", "--h", "2",
                               "--delta", "0.5", "--samples", "2000")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["r_star"] == pytest.approx(8.68, abs=0.05)
        assert doc["summary"]["violations"] == 0

    def test_large_h(self):
        # exp(1 - h/k) underflowed here and the command exited 1 with a
        # ValueError traceback
        code, out, _ = run_cli("sector-radius", "--k", "1", "--h", "1e3",
                               "--delta", "0.5")
        assert code == 0
        r_star = loads(out)["summary"]["r_star"]
        assert (1e3 + math.log(r_star)) / r_star == pytest.approx(math.sin(0.5), rel=1e-9)

    def test_radius_beyond_sampled_shell_rejected(self):
        # r_star = 1911 exceeds the 1e3 outer sampling radius: sampling the
        # reversed shell would test points inside the certified radius
        code, out, err = run_cli("sector-radius", "--k", "1", "--h", "2",
                                 "--delta", "0.005", "--samples", "2000")
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert loads(lines[0])["error"]["type"] == "DomainError"


class TestBoundsCommand:
    def test_T1_auto(self):
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "T1", "--samples", "5000",
                               "--seed", "1")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["pass"] is True
        assert doc["summary"]["min_margin"] >= 1.0

    @pytest.mark.parametrize("a", ["1e-308+0i", "1e-320+0i", "5e-324+0i", "3e-300+2e-300i"])
    def test_T1_auto_tiny_coefficient(self, a):
        # below |A| = 2/FLOAT_MAX the threshold ln 2 - ln|A| is finite, so
        # the automatic h = threshold + 1/2 is admissible
        code, out, _ = run_cli("bounds", "--k", "1", "--a", a, "--which", "T1",
                               "--samples", "1000", "--seed", "1")
        assert code == 0
        summary = loads(out)["summary"]
        lna = math.log(abs(complex(a.replace("i", "j"))))
        assert summary["threshold_h"] == pytest.approx(math.log(2.0) - lna, rel=1e-15)
        assert summary["proven_margin"] == pytest.approx(2.0 - math.exp(-0.5), rel=1e-12)
        assert summary["pass"] is True

    def test_proven_margin_reported(self):
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "T1", "--samples", "1000",
                               "--seed", "7")
        summary = loads(out)["summary"]
        assert code == 0
        assert round(summary["proven_margin"], 4) == 1.3935
        assert summary["min_margin"] >= summary["proven_margin"]
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "T2", "--samples", "1000",
                               "--seed", "7", "--s-branch", "2")
        assert loads(out)["summary"]["proven_margin"] is None

    def test_T2_printed_branch_fails(self):
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "T2", "--samples", "100000",
                               "--seed", "1", "--s-branch", "2")
        assert code == 1
        assert loads(out)["summary"]["pass"] is False

    def test_cdelta(self):
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "cdelta", "--samples", "5000",
                               "--seed", "1", "--delta", "0.5",
                               "--im-cap", "40")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["c_hat"] > 0

    @pytest.mark.parametrize("a, c_hat", [(-math.e * (1 + 1e-3), 1.0756),
                                          (-math.e * (1 - 1e-3), 1.0702)],
                             ids=["above-e", "below-e"])
    def test_cdelta_beside_the_branch_point(self, a, c_hat):
        # the ladder's nu = -1 has an unnamed twin 0.09 away, a disk zero
        # outside the sampled window; with every disk zero in the isolation
        # radii it certifies at the joint radius 0.0447, not 0.0625
        code, out, err = run_cli("bounds", "--k", "1", "--a", f"{a!r}+0i", "--which", "cdelta",
                                 "--delta", "0.5", "--samples", "2000")
        assert code == 0, err
        summary = loads(out)["summary"]
        assert summary["pass"] is True and round(summary["c_hat"], 4) == c_hat

    @pytest.mark.parametrize("k, a", [("3", "1+0i"), ("2", "0+0.5i"), ("1", "-3+0i")])
    def test_cdelta_window_zero_off_the_ladder(self, k, a):
        # the default window holds a zero the index ladder does not list
        # (6.31+5.21i for k=3, 3.40+6.94i for k=2); the disk search adds it.
        # For k=1, A=-3 the disk's two real zeros, 0.89 apart, lie outside
        # the window and stay out of the list, whose separation radius
        # would otherwise fall below delta = 0.5
        code, out, err = run_cli("bounds", "--k", k, "--a", a, "--which", "cdelta",
                                 "--samples", "2000")
        assert code == 0, err
        assert loads(out)["summary"]["pass"] is True

    @pytest.mark.parametrize("k, a, r_cut", [("1", "1e-5+0i", "1e-6"), ("1", "1e-10+0i", "1e-10"),
                                             ("1", "1e-20+0i", "1e-20"),
                                             ("2", "1e-300+0i", "1e-300")])
    def test_cdelta_window_left_edge_from_the_strip(self, k, a, r_cut):
        # at R <= A the box's left edge k ln R - h - (delta + 1) reached far
        # past the strip, whose points all have Re l >= x* with
        # x* = k ln(-x*) - h, and a zero there (-677.74+3.13i for k = 2)
        # was in neither the ladder nor the disk list
        code, out, err = run_cli("bounds", "--k", k, "--a", a, "--which", "cdelta",
                                 "--samples", "50", "--delta", "0.1", "--R", r_cut)
        assert code == 0, err
        assert loads(out)["summary"]["pass"] is True

    @pytest.mark.parametrize("a", ["300+0i", "500+0i"])
    def test_cdelta_window_listed_by_branch_walk(self, a, capsys):
        # at R = 1e-6 the disk search of radius R + h + 2 pi k held fewer
        # window zeros than the winding count (3 of 4 at A = 300, 1 of 2 at
        # A = 500), and the command exited 1; one branch walk lists them all
        code = main(["bounds", "--k", "1", "--a", a, "--which", "cdelta", "--R", "1e-6",
                     "--delta", "0.1", "--samples", "50"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert loads(out)["summary"]["pass"] is True

    @pytest.mark.parametrize("argv", [
        ("--k", "3", "--a", "1e-5+0i", "--R", "50"),
        ("--k", "4", "--a", "0.0023+0i", "--im-cap", "1"),
        ("--k", "4", "--a", "0.0023+0i", "--im-cap", "3"),
    ])
    def test_cdelta_empty_window(self, argv, capsys):
        # the window holds no zero: its list is empty, and the count agrees
        code = main(["bounds", "--which", "cdelta", *argv, "--samples", "2000"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert loads(out)["summary"]["pass"] is True

    def test_cdelta_window_right_of_its_left_edge(self, capsys):
        # k = 25, R = 12.4, im_cap = 1: the boxes' right edge, once
        # h + k ln(im_cap + delta + 6) + delta + 1, lay left of their left
        # edge k ln R - h - (delta + 1), and the command exited 2
        code = main(["bounds", "--which", "cdelta", "--k", "25", "--a", "12.523716236143063+0i",
                     "--R", "12.4", "--im-cap", "1", "--delta", "0.1", "--samples", "2000"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""

    def test_cdelta_window_over_the_walk_budget(self, capsys):
        # the window's branch walk refuses more than 65,536 branches per root
        # up front: exit 2 naming the limit, not 3 from a failed polish
        code = main(["bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
                     "--im-cap", "3e5", "--samples", "10"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        error = loads(err)["error"]
        assert error == {"type": "DomainError", "message": "im_cap = 300000 exceeds the limit "
                                                           "205878 of the window's branch walk"}

    def test_cdelta_walk_failure_names_its_zero(self, capsys):
        # within the budget but above the height where the polish reaches
        # 1e-12: exit 3 with the ladder's error type, naming the zero's index
        code = main(["bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
                     "--im-cap", "2e4", "--samples", "10"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        error = loads(err)["error"]
        assert error["type"] == "NotConvergedError"
        assert error["message"].startswith("refinement failed for nu = ")

    @pytest.mark.parametrize("k, a", [("25", "1e300+0i"), ("3", "1e300+0i")])
    def test_cdelta_tiny_zeros_are_distinct(self, k, a):
        # the disk zeros at |l| = |A|^(-1/k) lie closer together than 1e-6
        code, out, err = run_cli("bounds", "--which", "cdelta", "--k", k, "--a", a,
                                 "--samples", "200")
        assert code == 0, err
        assert loads(out)["summary"]["pass"] is True

    def test_cdelta_records_tol(self):
        code, out, _ = run_cli("bounds", "--k", "1", "--a", "1+0i",
                               "--which", "cdelta", "--samples", "1000",
                               "--seed", "1", "--im-cap", "40", "--tol", "1e-10")
        assert code == 0
        assert loads(out)["params"]["tol"] == 1e-10

    @pytest.mark.parametrize("which", ["T1", "cdelta"])
    def test_s_branch_2_outside_T2_rejected(self, which):
        code, out, err = run_cli("bounds", "--k", "1", "--a", "1+0i",
                                 "--which", which, "--samples", "100",
                                 "--s-branch", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert loads(err)["error"]["type"] == "DomainError"

    def test_thread_env_invariance(self):
        # The sampler's stream layout is fixed, so thread settings in the
        # environment must not change a byte of the output.
        args = ("bounds", "--k", "1", "--a", "1+0i", "--which", "T1",
                "--samples", "20000", "--seed", "3")
        _c, out1, _ = run_cli(*args, env={"OMP_NUM_THREADS": "1"})
        _c, out4, _ = run_cli(*args, env={"OMP_NUM_THREADS": "4"})
        assert out1 == out4


def test_readme_box_examples():
    # every `certify --box` example the README quotes with its count and
    # step count, run as quoted
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    quoted = re.findall(r"`certify --k (\S+) --a (\S+) --box (\S+)`[^`]*?"
                        r"counts ([\d,]+) zeros in (\d+) steps", readme)
    above = re.search(r"For the box above these are\s+(\d+) zeros and (\d+) steps", readme)
    assert len(quoted) >= 3 and above
    assert ("1", "1+0i", "-12,-129.43,12,129.43", *above.groups()) in quoted
    for k, a, box, count, steps in quoted:
        code, out, err = run_cli("certify", "--k", k, "--a", a, "--box", box)
        assert code == 0, err
        summary = loads(out)["summary"]
        assert (summary["contour_count"], summary["segments_used"]) == (
            int(count.replace(",", "")), int(steps)), box


class TestCertifyRoundTrip:
    def test_count_only(self):
        code, out, _ = run_cli("certify", "--k", "1", "--a", "1+0i",
                               "--box", "-10,5,10,33")
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["contour_count"] == 4
        assert set(doc["summary"]) == {"contour_count", "min_scaled_modulus", "segments_used"}
        assert isinstance(doc["summary"]["segments_used"], int)

    def test_edge_through_a_zero_exits_3(self):
        z = zeros_in_index_range(QuasiPolynomial(1, 1 + 0j), 4, 4, 1e-12)[0].value
        code, out, err = run_cli("certify", "--k", "1", "--a", "1+0i",
                                 "--box", f"-10,0.5,10,{z.imag!r}")
        assert code == 3 and out == ""
        assert loads(err)["error"]["type"] == "ZeroOnContourError"

    def test_round_trip_and_tamper(self, tmp_path):
        zpath = tmp_path / "zeros.json"
        cap = 2 * math.pi * 6.6
        code, _out, _err = run_cli("zeros", "--k", "1", "--a", "1+0i",
                                   "--nu", "-6..6", "--certify",
                                   "--with-disk", "5", "--out", str(zpath))
        assert code == 0
        box = f"-12,{-cap},12,{cap}"
        code, out, _ = run_cli("certify", "--k", "1", "--a", "1+0i",
                               "--box", box, "--expect-from", str(zpath))
        assert code == 0
        doc = loads(out)
        assert doc["summary"]["pass"] is True
        assert doc["summary"]["contour_count"] == doc["summary"]["expected_count"]
        # tamper: drop one in-window record
        zdoc = loads(zpath.read_text())
        kept = [r for r in zdoc["results"] if abs(r["im"]) < cap]
        zdoc["results"].remove(kept[0])
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(zdoc))
        code, out, _ = run_cli("certify", "--k", "1", "--a", "1+0i",
                               "--box", box, "--expect-from", str(tampered))
        assert code == 1
        assert loads(out)["summary"]["pass"] is False


def _csv_field(value):
    """The CSV text of one summary value: bools as true/false, None empty,
    numbers and strings as str writes them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


class TestSummaryCsv:
    """A command whose document holds no results writes its summary as CSV:
    the summary's keys as the header, in order, and one row."""

    @pytest.mark.parametrize("argv, code", [
        (("certify", "--box", "-12,-129.43,12,129.43"), 0),
        (("bounds", "--which", "T2", "--s-branch", "2"), 1),
        (("bounds", "--which", "cdelta"), 0),
        (("sector-radius", "--h", "2", "--delta", "0.5"), 0),
    ], ids=["certify", "bounds-T2", "bounds-cdelta", "sector-radius"])
    def test_one_summary_row(self, argv, code, capsys):
        argv = [*argv, "--k", "1", "--a", "1+0i"]
        assert main(argv) == code
        doc = loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == code
        out, err = capsys.readouterr()
        assert err == "" and doc["results"] == []
        header, row = csv.reader(io.StringIO(out))
        summary = doc["summary"]
        assert header == list(summary)
        assert row == [_csv_field(value) for value in summary.values()]

    def test_bools_and_none(self, capsys):
        # T2 at S = 2 fails its check (exit 1), and its proven margin is None
        assert main(["bounds", "--which", "T2", "--s-branch", "2", "--k", "1", "--a", "1+0i",
                     "--format", "csv"]) == 1
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        fields = dict(zip(header, row))
        assert fields["pass"] == "false" and fields["proven_margin"] == ""
        assert main(["bounds", "--which", "cdelta", "--k", "1", "--a", "1+0i",
                     "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert dict(zip(header, row))["pass"] == "true"


class TestBoxRefused:
    """A --box that is not four numbers exits 2 with a DomainError."""

    @pytest.mark.parametrize("box", ["-1,-1,1", "-1,-1,1,1,2"], ids=["three", "five"])
    def test_box_of_the_wrong_length(self, box, capsys):
        assert main(["certify", "--k", "1", "--a", "1+0i", "--box", box]) == 2
        out, err = capsys.readouterr()
        assert out == "" and loads(err) == {"error": {
            "type": "DomainError", "message": "box must be re_min,im_min,re_max,im_max"}}
        with pytest.raises(DomainError, match="^box must be re_min,im_min,re_max,im_max$"):
            _parse_box(box)


class TestNegativeExponentForm:
    """A negative number in exponent form, which argparse would take for an
    option, reaches its validator and exits 2 with its DomainError."""

    @pytest.mark.parametrize("argv", [
        ("zeros", "--k", "1", "--a", "1+0i", "--nu", "1..2", "--tol", "-1e-12"),
        ("origin", "--k", "1", "--a", "1+0i", "--radius", "-2e3"),
        ("zeros", "--k", "1", "--a", "1+0i", "--nu", "1..2", "--with-disk", "-5e0"),
        ("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta", "--R", "-1e3"),
        ("sector-radius", "--k", "1", "--h", "2", "--delta", "-5e-1"),
        ("bounds", "--k", "1", "--a", "1+0i", "--which", "T1", "--rmax", "-1e3"),
        ("bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta", "--im-cap", "-4e1"),
    ], ids=["tol", "radius", "with-disk", "R", "delta", "rmax", "im-cap"])
    def test_refused_by_its_validator(self, argv, capsys):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert loads(err)["error"]["type"] == "DomainError"


class TestInProcessMain:
    def test_main_returns_code(self, capsys):
        assert main(["classify", "--k", "1", "--a", "1+0i", "--h", "2",
                     "--R", "5", "--point", "1+1i"]) == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestOptionSurface:
    """The options each subcommand accepts.  Adding or removing one must
    edit this table on purpose."""

    COMMON = {"-h", "--help", "--k", "--a", "--format", "--out"}
    EXPECTED = {
        "zeros": COMMON | {"--tol", "--nu", "--certify", "--with-disk"},
        "origin": COMMON | {"--tol", "--radius"},
        "classify": COMMON | {"--h", "--R", "--S", "--delta", "--point"},
        "certify": COMMON | {"--box", "--expect-from"},
        "bounds": COMMON | {"--which", "--h", "--R", "--samples", "--seed",
                            "--rmax", "--s-branch", "--delta", "--im-cap",
                            "--tol"},
        "gaps": COMMON | {"--tol", "--nu"},
        "sector-radius": {"-h", "--help", "--k", "--a", "--h", "--delta",
                          "--samples", "--seed", "--format", "--out"},
    }

    def test_options_per_subcommand(self):
        parser = _build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        found = {name: {opt for action in command._actions
                        for opt in action.option_strings}
                 for name, command in sub.choices.items()}
        assert found == self.EXPECTED


#: documents of README commands, of `bounds --which cdelta` for the nine
#: acceptance combinations (k = 1, 2, 3 with A = 1, 2 + i, 0.5i) and of
#: certified ladders for real A > 0 and even k, real A < 0 and k = 10,
#: pinned byte for byte
GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("pin", GOLDEN, ids=[" ".join(p["argv"]) for p in GOLDEN])
def test_pinned_documents(pin, capsys):
    assert main(list(pin["argv"])) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == pin["document"]
