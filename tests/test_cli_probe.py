"""A seeded probe of the command line: argv drawn over all seven subcommands,
with edge values for every number (0, negative, subnormal, 1e+-300, A at the
Lambert-W branch point) at small sizes, run in-process through cli.main.

Every run must exit 0-3 without a traceback and write strict JSON: the
document on stdout and one object per stderr line.  An exit 1 must be one of
the two documented outcomes (_check_exit_one), and an exit 0 never reports
a failed check (_check_exit_zero).  A zero list that the program
builds itself (origin, zeros --with-disk, bounds --which cdelta) must never
be refused by its own completeness or duplicate checks, and a polish that
fails raises NotConvergedError, whichever walk ran it.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasizeros import errors as errors_mod
from quasizeros.cli import main

#: errors that name a defect of the program when the zero list is its own
SELF_CHECKS = {"IncompleteZeroListError", "DuplicateZeroError"}

#: the summary field a document that exits 1 reports false, by subcommand,
#: and the option without which that subcommand verifies nothing
FAILURE_FIELDS = {"zeros": ("all_certified", "--certify"), "origin": ("all_certified", None),
                  "certify": ("pass", "--expect-from"), "bounds": ("pass", None),
                  "sector-radius": ("pass", None)}


def _reject_constant(name):
    raise ValueError(f"the output holds {name}, which JSON does not allow")


def _loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def _real(text):
    return f"{text}+0i"


KS = st.sampled_from(["1", "2", "3", "5", "25"])
NUMBERS = st.sampled_from(["5e-324", "1e-300", "1e-6", "0.5", "1", "2", "3", "1e300"])
COEFFICIENTS = st.sampled_from(
    [_real(x) for x in ("1", "2", "0.5", "1e-6", "5e-324", "1e-300", "1e300", "-1", "-3",
                        "-1e300")]
    + ["2+1i", "0+0.5i", "1e-300+1e-300i", "1e300-1e300i",
       # -e^k / k^k puts z_(k-1) at the branch point -1/e
       _real(repr(-math.e)), _real(repr(-math.e ** 2 / 4)), _real(repr(-math.e ** 3 / 27)),
       _real(repr(-math.e * (1 + 1e-3)))])
NU_RANGES = st.tuples(st.integers(-8, 8), st.integers(0, 6)).map(
    lambda p: f"{p[0]}..{p[0] + p[1]}")
RADII = st.sampled_from(["5e-324", "1e-300", "0.5", "1", "2.5", "6"])
POINTS = st.sampled_from(["0+0i", "-1+0i", "5e-324+0i", "1e300+0i", "1e-300+1e-300i",
                          "2.33+10i", "-100+0i", "0-1e300i"])
TOLERANCES = st.sampled_from(["1e-12", "1e-8"])
#: |A| in [1e2, 1e3], real of either sign or complex, drawn with R <= 1e-3
#: for a C_delta window
LARGE_A = st.tuples(st.floats(2.0, 3.0), st.sampled_from([0.0, math.pi, 1.0, -2.5])).map(
    lambda p: f"{10 ** p[0] * math.cos(p[1])!r}{10 ** p[0] * math.sin(p[1]):+}i")
#: a value the CLI must refuse; argparse keeps an option's last occurrence
REFUSED = st.sampled_from([
    ["--k", "0"], ["--k", "-1"], ["--a", "0+0i"], ["--a", "0-0i"], ["--a", "nan"],
    ["--tol", "0"], ["--tol", "-1"], ["--radius", "0"], ["--radius", "-1"],
    ["--with-disk", "0"], ["--samples", "0"], ["--h", "0"], ["--h", "-1"],
    ["--R", "-1e300"], ["--delta", "0"], ["--nu", "2..1"], ["--point", "1e400+0i"]])


def _options(**choices):
    """Each option, present or absent, with its drawn value."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda picked: [part for name, value in picked.items()
                        for part in (f"--{name.replace('_', '-')}", value)])


def _command(name, *parts, **options):
    return st.tuples(*[st.just(p) if isinstance(p, str) else p for p in parts],
                     _options(**options)).map(lambda t: [name, *t[:-1], *t[-1]])


VALID = st.one_of(
    st.tuples(_command("zeros", "--k", KS, "--a", COEFFICIENTS, "--nu", NU_RANGES,
                       tol=TOLERANCES, with_disk=RADII),
              st.sampled_from([[], ["--certify"]])).map(lambda t: t[0] + t[1]),
    _command("origin", "--k", KS, "--a", COEFFICIENTS, "--radius", RADII, tol=TOLERANCES),
    _command("classify", "--k", KS, "--a", COEFFICIENTS, "--h", NUMBERS, "--R", NUMBERS,
             "--point", POINTS, delta=NUMBERS, S=st.sampled_from(["1", "2"])),
    _command("certify", "--k", KS, "--a", COEFFICIENTS, "--box",
             st.sampled_from(["-1,-1,1,1", "-5,0,5,20", "0,0,1e-300,1e-300", "1,1,-1,-1",
                              "-1e300,-1,1e300,1", "-12,-129.43,12,129.43"])),
    _command("bounds", "--k", KS, "--a", COEFFICIENTS, "--which",
             st.sampled_from(["T1", "T2", "cdelta"]),
             "--samples", st.sampled_from(["1", "50", "200"]),
             "--im-cap", st.sampled_from(["10", "40"]),
             h=st.sampled_from(["auto", "2", "1e300"]), R=RADII,
             delta=st.sampled_from(["0.1", "0.5"]),
             s_branch=st.sampled_from(["1", "2"]), seed=st.sampled_from(["1", "7"])),
    _command("bounds", "--k", KS, "--a", LARGE_A, "--which", "cdelta",
             "--R", st.sampled_from(["1e-3", "1e-6", "1e-300"]),
             "--samples", st.sampled_from(["50", "200"]),
             delta=st.sampled_from(["0.1", "0.5"]), im_cap=st.sampled_from(["10", "40"])),
    _command("gaps", "--k", KS, "--a", COEFFICIENTS, "--nu", NU_RANGES, tol=TOLERANCES),
    _command("sector-radius", "--k", KS, "--h", NUMBERS, "--delta", NUMBERS,
             a=COEFFICIENTS, samples=st.sampled_from(["0", "50"])),
)
ARGV = st.one_of(VALID, st.tuples(VALID, REFUSED).map(lambda t: t[0] + t[1]))


def _check_exit_one(argv, out, errors):
    """An exit 1 is a document whose summary reports the failure, or exactly
    one error line naming a QuasiZeroError that is neither a DomainError nor
    a NumericalError (a check of a zero list that did not hold)."""
    if out:
        assert not errors, (argv, errors)
        field, option = FAILURE_FIELDS[argv[0]]
        assert option is None or option in argv, argv
        assert _loads(out)["summary"][field] is False, argv
        return
    assert len(errors) == 1, (argv, errors)
    kind = getattr(errors_mod, errors[0]["type"], None)
    assert isinstance(kind, type) and issubclass(kind, errors_mod.QuasiZeroError), (argv, errors)
    assert not issubclass(kind, (errors_mod.DomainError, errors_mod.NumericalError)), \
        (argv, errors)


def _check_exit_zero(argv, out):
    """An exit 0 never hides a failed check: where the subcommand verifies
    something, its document does not report the failure field false."""
    field, option = FAILURE_FIELDS.get(argv[0], (None, None))
    if out and field and (option is None or option in argv):
        assert _loads(out)["summary"].get(field) is not False, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500)
@given(argv=ARGV)
# tiny disk zeros, closer together than 1e-6, read as duplicates
@example(argv=["zeros", "--k", "3", "--a", "1e300+0i", "--nu", "1..2", "--with-disk", "1"])
@example(argv=["zeros", "--k", "25", "--a", "1e150+0i", "--nu", "1..2", "--with-disk", "1"])
@example(argv=["zeros", "--k", "25", "--a", "1e300+0i", "--nu", "1..2", "--with-disk", "1"])
@example(argv=["bounds", "--which", "cdelta", "--k", "25", "--a", "1e300+0i",
               "--samples", "200"])
# a C_delta window reaching left past the strip, to a zero no list held
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "1", "--a", "1e-5+0i", "--R", "1e-6"])
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "1", "--a", "1e-10+0i", "--R", "1e-10"])
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "1", "--a", "1e-20+0i", "--R", "1e-20"])
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "2", "--a", "1e-300+0i", "--R", "1e-300"])
# at large A and small R the disk search held fewer window zeros than the
# window's count
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "1", "--a", "300+0i", "--R", "1e-6"])
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--delta", "0.1",
               "--k", "1", "--a", "500+0i", "--R", "1e-6"])
# windows that hold no zero
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--k", "3",
               "--a", "1e-5+0i", "--R", "50"])
@example(argv=["bounds", "--which", "cdelta", "--samples", "50", "--k", "4",
               "--a", "0.0023+0i", "--im-cap", "1"])
# an abbreviation of --help printed help text and raised SystemExit(0)
@example(argv=["zeros", "--k", "1", "--a", "1+0i", "--nu", "1..2", "--h", "0"])
# a polish that fails in the disk search's walk, at nu = 3184
@example(argv=["origin", "--k", "1", "--a", "1+0i", "--radius", "2e4"])
def test_cli_probe(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if out:
        _loads(out)
    errors = [_loads(line)["error"] for line in err.splitlines()]
    if code == 0:
        assert not errors, argv
        _check_exit_zero(argv, out)
    elif code == 1:
        _check_exit_one(argv, out, errors)
    else:
        assert len(errors) == 1 and not out, (argv, code, err)
    # a failed polish raises one type, whichever walk ran it
    assert all(e["type"] == "NotConvergedError" for e in errors
               if e["message"].startswith("refinement failed for")), (argv, errors)
    own_list = (argv[0] == "origin" or argv[0] == "zeros" and "--with-disk" in argv
                or argv[0] == "bounds" and "cdelta" in argv)
    if own_list:
        assert not {e["type"] for e in errors} & SELF_CHECKS, (argv, err)


def test_origin_near_double_pair_across_the_square():
    # A = -e (1 + 1e-3) has zeros at 0.956 and 1.045, across the edge of the
    # r = 1 square; the walk of the padded square lists both, so 0.956
    # certifies at half their distance, not at a radius holding both
    code, out, err = _run(["origin", "--k", "1", "--a", f"{-math.e * (1 + 1e-3)!r}+0i",
                           "--radius", "1"])
    assert code == 0, err
    record, = _loads(out)["results"]
    assert record["certified"] and abs(record["re"] - 0.956) < 1e-3
    assert abs(record["isolation_radius"] - 0.0447) < 1e-4


#: a value of each class outside the zeros document's schema, as JSON text
OFF_SCHEMA = [("nu", "1.5"), ("nu", "true"), ("nu", '"1"'), ("nu", "null"),
              ("multiplicity", "1.9"), ("multiplicity", "0"), ("multiplicity", "true"),
              ("certified", '"false"'), ("certified", "1"), ("re", "NaN"),
              ("im", "Infinity"), ("re", "1e400"), ("re", "1" + "0" * 400),
              ("residual", "-Infinity"), ("isolation_radius", "NaN"), ("im", '"0"')]


def test_expect_from_refuses_values_outside_the_schema(tmp_path):
    # one result of a valid document tampered at a time: a zeros document
    # holds exactly the schema's values, so anything else exits 2 before
    # any certificate
    path = tmp_path / "zeros.json"
    base = ["--k", "1", "--a", "1+0i"]
    assert _run(["zeros", *base, "--nu", "-20..20", "--certify", "--with-disk", "5",
                 "--out", str(path)])[0] == 0
    doc = _loads(path.read_text())
    certify = ["certify", *base, "--box", "-12,-129.43,12,129.43", "--expect-from", str(path)]
    assert _run(certify)[0] == 0
    for key, text in OFF_SCHEMA:
        tampered = json.dumps(dict(doc, results=[{**doc["results"][3], key: "@"},
                                                 *doc["results"][4:]]))
        path.write_text(tampered.replace('"@"', text))
        code, out, err = _run(certify)
        assert (code, out) == (2, ""), (key, text)
        error = _loads(err)["error"]
        assert error["type"] == "DomainError", (key, text)
        assert "is not a zeros document" in error["message"], (key, text)


def test_expect_from_wrong_documents_exit_one(tmp_path):
    # valid zeros documents that list the window wrongly: a value moved 0.01
    # off its zero, an in-window zero dropped, one repeated.  Each exits 1
    # with a document that names the record or the count
    path = tmp_path / "zeros.json"
    base = ["--k", "1", "--a", "1+0i"]
    assert _run(["zeros", *base, "--nu", "-20..20", "--certify", "--with-disk", "5",
                 "--out", str(path)])[0] == 0
    doc = _loads(path.read_text())
    results = doc["results"]
    moved = dict(results[3], re=results[3]["re"] + 0.01)
    certify = ["certify", *base, "--box", "-12,-129.43,12,129.43", "--expect-from", str(path)]
    for wrong, counts in (
            ([*results[:3], moved, *results[4:]], (41, 41, 1)),
            ([*results[:3], *results[4:]], (41, 40, 0)),
            ([*results, results[3]], (41, 42, 0))):
        path.write_text(json.dumps(dict(doc, results=wrong)))
        code, out, err = _run(certify)
        assert (code, err) == (1, ""), counts
        _check_exit_one(certify, out, [])
        summary = _loads(out)["summary"]
        assert (summary["contour_count"], summary["expected_count"],
                summary["record_failures"]) == counts


@pytest.mark.parametrize("command", [
    ["zeros", "--k", "1", "--a", "1+0i", "--nu", "1..3"],
    ["origin", "--k", "1", "--a", "1+0i", "--radius", "2"],
    ["classify", "--k", "1", "--a", "1+0i", "--h", "2", "--R", "5", "--S", "1",
     "--point", "2+1i"],
])
def test_out_that_names_no_writable_file(tmp_path, command):
    # a directory, a file under a missing directory and the empty string
    # each exit 2 with one JSON error line, and nothing on stdout
    for out, kind in ((str(tmp_path), "io"), (str(tmp_path / "missing" / "doc.json"), "io"),
                      ("", "DomainError")):
        code, stdout, err = _run([*command, "--out", out])
        assert (code, stdout) == (2, ""), (out, err)
        assert "Traceback" not in err and err.count("\n") == 1, out
        assert _loads(err)["error"]["type"] == kind, out
    assert not (tmp_path / "missing").exists()
