"""Command-line front end.

Subcommands: zeros, origin, classify, certify, bounds, gaps, sector-radius.
Documents go to stdout (or --out) as JSON or CSV; errors are single-line
JSON on stderr.  Exit codes: 0 success/pass, 1 verification failure,
2 usage/validation error, 3 numerical failure.  Identical argv and seed
produce byte-identical output.

`main` alone turns parsed arguments into output: it builds the
quasi-polynomial, calls the subcommand's handler, writes the document and
picks the exit code from the handler's pass flag.  A handler only validates
and computes, returning (params, results, summary, passed).  It imports the
compute modules it calls just before its first call into them, so a run
loads only what its subcommand needs and an input error exits before any of
them loads.
"""

import argparse
import json
import math
import sys

from ._serialize import (
    document,
    dump_csv,
    dump_json,
    parse_complex,
    parse_nu_range,
    record_from_obj,
    record_to_obj,
)
from .errors import DomainError, NumericalError, QuasiZeroError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Options must be spelled out: an abbreviation would read `--h` as
    `--help` where a subcommand has no `--h`, and print help, not JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _write(doc, fmt, out_path):
    text = dump_json(doc) if fmt == "json" else dump_csv(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p, tol=True):
    p.add_argument("--k", type=int, required=True, help="monomial exponent k >= 1")
    p.add_argument("--a", type=str, required=True, help="coefficient A as 'a+bi'")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None, help="write the document here")
    if tol:
        p.add_argument("--tol", type=float, default=1e-12,
                       help="refinement tolerance in (0, 1e-4]")


def _build_parser():
    parser = _Parser(prog="quasizeros",
                     description="zeros and region certificates of e^l + A*l^k")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="refined zeros over an index range")
    p.set_defaults(handler=_cmd_zeros)
    _add_common(p)
    p.add_argument("--nu", type=str, required=True, help="index range 'lo..hi'")
    p.add_argument("--certify", action="store_true",
                   help="certify each record: exactly multiplicity zeros in "
                        "|l - value| < isolation_radius (Rouche test, "
                        "else winding count)")
    p.add_argument("--with-disk", type=float, default=None, metavar="R",
                   help="also search the disk |l| <= R and merge the results")

    p = sub.add_parser("origin", help="exhaustive zero search in a disk")
    p.set_defaults(handler=_cmd_origin)
    _add_common(p)
    p.add_argument("--radius", type=float, required=True)

    p = sub.add_parser("classify", help="classify points into regions")
    p.set_defaults(handler=_cmd_classify)
    _add_common(p, tol=False)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--S", type=int, choices=(1, 2), default=1)
    p.add_argument("--delta", type=float, default=None,
                   help="also report sector membership for this half-angle")
    p.add_argument("--point", action="append", required=True,
                   help="point as 'a+bi' (repeatable)")

    p = sub.add_parser("certify", help="winding count over a box, optionally "
                                       "against an expected record file")
    p.set_defaults(handler=_cmd_certify)
    _add_common(p, tol=False)
    p.add_argument("--box", type=str, required=True,
                   help="re_min,im_min,re_max,im_max")
    p.add_argument("--expect-from", type=str, default=None,
                   help="JSON document whose records should be complete")

    p = sub.add_parser("bounds", help="sampled lower-bound verification")
    p.set_defaults(handler=_cmd_bounds)
    _add_common(p, tol=False)
    p.add_argument("--which", choices=("T1", "T2", "cdelta"), required=True)
    p.add_argument("--h", type=str, default="auto",
                   help="half-width, or 'auto' for threshold + 0.5")
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--s-branch", type=int, choices=(1, 2), default=1,
                   help="T2 only: which offset branch bounds the region")
    p.add_argument("--delta", type=float, default=0.5, help="cdelta only")
    p.add_argument("--im-cap", type=float, default=2.0 * math.pi * 60.0,
                   help="cdelta only")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("gaps", help="consecutive gap statistics of refined zeros")
    p.set_defaults(handler=_cmd_gaps)
    _add_common(p)
    p.add_argument("--nu", type=str, required=True,
                   help="index range 'lo..hi', entirely positive or negative")

    p = sub.add_parser("sector-radius", help="certified sector-cover radius")
    p.set_defaults(handler=_cmd_sector_radius)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=str, default="1+0i")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, default=0,
                   help="verify containment with this many strip samples")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)
    return parser


def _check_tol(tol):
    if not 0.0 < tol <= 1e-4:
        raise DomainError(f"tolerance must lie in (0, 1e-4], got {tol:g}")


def _cmd_zeros(qp, args):
    _check_tol(args.tol)
    lo, hi = parse_nu_range(args.nu)
    from . import zeros as zeros_mod

    records = zeros_mod.zeros_in_index_range(qp, lo, hi, args.tol,
                                             certify=args.certify)
    notes = {}
    if lo <= 0 <= hi:
        notes["nu_skipped"] = [0]
    if args.with_disk is not None:
        # the disk search adds the zeros whose index the ladder did not walk
        from . import certify as certify_mod

        disk = certify_mod.find_zeros_in_disk(qp, args.with_disk, args.tol)
        records = certify_mod.join_disk(qp, records, disk, range(lo, hi + 1), args.certify)
        notes["disk_radius"] = args.with_disk
    records.sort(key=lambda rec: zeros_mod.im_order(rec.value))
    results = [record_to_obj(r) for r in records]
    summary = {
        "count": len(records),
        "max_residual": max((r.residual for r in records), default=0.0),
        "all_certified": all(r.certified for r in records) if args.certify else False,
        **notes,
    }
    params = {"nu_min": lo, "nu_max": hi, "tol": args.tol, "certify": args.certify}
    return params, results, summary, summary["all_certified"] or not args.certify


def _cmd_origin(qp, args):
    _check_tol(args.tol)
    from . import certify as certify_mod

    records = certify_mod.find_zeros_in_disk(qp, args.radius, args.tol)
    results = [record_to_obj(r) for r in records]
    summary = {"count": len(records),
               "all_certified": all(r.certified for r in records)}
    return ({"radius": args.radius, "tol": args.tol}, results, summary,
            summary["all_certified"])


def _cmd_classify(qp, args):
    from . import regions

    params = regions.RegionParams(args.h, args.R, args.S, args.delta)
    results = []
    tallies = {}
    for text in args.point:
        lam = parse_complex(text)
        label = regions.classify(qp, lam, params)
        row = {
            "point_re": lam.real,
            "point_im": lam.imag,
            "tag": label.tag.value,
            "half": label.half if label.half is not None else "",
            "offset": (regions.signed_offset(qp, lam, args.S)
                       if lam != 0 else ""),
        }
        if args.delta is not None:
            row["in_sector_1"] = (regions.sector_contains(lam, args.delta, 1)
                                  if lam != 0 else "")
            row["in_sector_2"] = (regions.sector_contains(lam, args.delta, 2)
                                  if lam != 0 else "")
        results.append(row)
        tallies[label.tag.value] = tallies.get(label.tag.value, 0) + 1
    return ({"h": args.h, "R": args.R, "S": args.S, "delta": args.delta},
            results, {"counts": tallies}, True)


def _parse_float(text, what):
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{what} must be a number, got {text!r}") from None


def _parse_box(text):
    """The lower-left and upper-right corners of 're_min,im_min,re_max,im_max'."""
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError("box must be re_min,im_min,re_max,im_max")
    re0, im0, re1, im1 = (_parse_float(p, "box coordinate") for p in parts)
    return complex(re0, im0), complex(re1, im1)


def _load_records(path):
    """Zero records of a JSON document written by the zeros command."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return [record_from_obj(obj) for obj in json.load(fh)["results"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(
                f"{path} is not a zeros document ({type(exc).__name__}: {exc})"
            ) from None


def _cmd_certify(qp, args):
    corners = _parse_box(args.box)
    from . import certify as certify_mod

    box = certify_mod.Rectangle(*corners)
    if args.expect_from is None:
        report = certify_mod.winding_count(qp, box)
        summary = {
            "contour_count": report.count,
            "min_scaled_modulus": report.min_scaled_modulus,
            "segments_used": report.segments_used,
        }
        return {"box": args.box}, [], summary, True
    records = _load_records(args.expect_from)
    inside = [r for r in records if box.contains(r.value)]
    ok, detail = certify_mod.certify_completeness(qp, box, inside)
    summary = {
        "pass": ok,
        "contour_count": detail["contour_count"],
        "expected_count": detail["expected_count"],
        "records_outside_window": len(records) - len(inside),
        "record_failures": len(detail["record_failures"]),
    }
    return {"box": args.box, "expect_from": args.expect_from}, [], summary, ok


def _cmd_bounds(qp, args):
    if args.s_branch != 1 and args.which != "T2":
        raise DomainError(f"--s-branch {args.s_branch} applies to --which T2 only")
    from . import bounds

    if args.h != "auto":
        h = _parse_float(args.h, "--h")
    elif args.which == "cdelta":
        h = 2.0
    else:
        h = bounds.h_threshold(qp, args.which) + 0.5
    rmax = bounds.DEFAULT_R_MAX if args.rmax is None else args.rmax
    if args.which == "T1":
        report = bounds.verify_T1_bound(qp, h, args.R, args.samples, args.seed,
                                        rmax)
    elif args.which == "T2":
        report = bounds.verify_T2_bound(qp, h, args.R, args.samples, args.seed,
                                        rmax, s_branch=args.s_branch)
    else:
        _check_tol(args.tol)
        bounds._check_strip(h, args.R, args.delta, args.im_cap, args.samples)
        strip = bounds.window_zeros(qp, h, args.R, args.im_cap, args.delta, args.tol)
        est = bounds.estimate_C_delta(qp, h, args.R, args.delta, args.samples,
                                      args.seed, strip, im_cap=args.im_cap)
        summary = {
            "pass": est.c_hat > 0.0,
            "c_hat": est.c_hat,
            "argmin_re": est.argmin.real,
            "argmin_im": est.argmin.imag,
            "delta": est.delta_used,
            "h": est.h_used,
            "R": est.r_used,
            "samples": est.sample_count,
        }
        params = {"which": "cdelta", "h": h, "R": args.R, "delta": args.delta,
                  "im_cap": args.im_cap, "samples": args.samples, "seed": args.seed,
                  "tol": args.tol}
        return params, [], summary, summary["pass"]
    summary = {
        "pass": report.passed,
        "min_margin": report.min_margin,
        "proven_margin": report.proven_margin,
        "worst_re": report.worst_point.real,
        "worst_im": report.worst_point.imag,
        "threshold_h": report.threshold_h_used,
        "region": report.region,
        "samples": report.samples,
    }
    params = {"which": args.which, "h": h, "R": args.R, "samples": args.samples,
              "seed": args.seed, "rmax": rmax, "s_branch": args.s_branch}
    return params, [], summary, report.passed


def _cmd_gaps(qp, args):
    _check_tol(args.tol)
    lo, hi = parse_nu_range(args.nu)
    if lo <= 0 <= hi:
        raise DomainError("gap ranges must be entirely positive or negative")
    from . import zeros as zeros_mod

    records = zeros_mod.zeros_in_index_range(qp, lo, hi, args.tol, certify=False)
    stats = zeros_mod.gap_statistics(records)
    ordered = sorted(records, key=lambda r: r.value.imag)
    results = [
        {"nu_lower": min(abs(a.nu), abs(b.nu)) * (1 if a.nu > 0 else -1),
         "gap": gap,
         "deviation": abs(gap - 2.0 * math.pi),
         "deviation_scaled": scaled}
        for a, b, gap, scaled in zip(ordered, ordered[1:], stats.gaps,
                                     stats.deviations_scaled)
    ]
    summary = {"count": len(stats.gaps), "max_deviation": stats.max_deviation}
    return {"nu_min": lo, "nu_max": hi, "tol": args.tol}, results, summary, True


def _cmd_sector_radius(qp, args):
    if args.samples < 0:
        raise DomainError(f"--samples must be 0 or more, got {args.samples}")
    from . import regions

    r_star = regions.sector_cover_radius(qp, args.h, args.delta)
    summary = {"r_star": r_star, "h": args.h, "delta": args.delta}
    passed = True
    if args.samples > 0:
        from . import bounds

        report = bounds.verify_sector_cover(qp, args.h, args.delta, r_star,
                                            args.samples, args.seed)
        summary["violations"] = report.violations
        summary["min_margin"] = report.min_margin
        summary["pass"] = passed = report.passed
    return {"h": args.h, "delta": args.delta, "samples": args.samples}, [], summary, passed


#: options whose values can legitimately start with '-' (negative numbers,
#: in exponent form too, and negative index ranges); joined as --opt=value
#: so argparse accepts them and the value reaches its validator
_DASH_VALUE_OPTS = ("--a", "--nu", "--point", "--box", "--h", "--tol", "--radius",
                    "--with-disk", "--R", "--delta", "--rmax", "--im-cap")


def _join_dash_values(argv):
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _DASH_VALUE_OPTS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_dash_values(list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    try:
        if args.out == "":
            raise DomainError("--out needs a file name, got ''")
        a = parse_complex(args.a)
        from . import core

        qp = core.QuasiPolynomial(args.k, a)
        params, results, summary, passed = args.handler(qp, args)
        _write(document(qp, args.command, params, results, summary), args.format, args.out)
        return EXIT_OK if passed else EXIT_VERIFICATION
    except DomainError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_USAGE
    except NumericalError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except QuasiZeroError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_VERIFICATION
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
