"""Parsing and document serialization for the CLI.

The JSON document schema is stable:
    {"quasipolynomial": {"k": int, "a": {"re": float, "im": float}},
     "command": str, "params": object, "results": array, "summary": object}
Zero records serialize as
    {"nu": int | "origin", "re": float, "im": float, "residual": float,
     "certified": bool, "isolation_radius": float, "multiplicity": int}.
Floats rely on shortest round-trip repr, so re-parsing recovers the exact
double value.
"""

import cmath
import io
import json
import re
import sys

from .errors import DomainError

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_FLOAT})([+-]{_FLOAT})[ij]$")
_IMAG_RE = re.compile(rf"^([+-]?{_FLOAT})[ij]$")
_REAL_RE = re.compile(rf"^([+-]?{_FLOAT})$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_complex(text):
    """Parse 'a+bi' (also plain 'a' or 'bi') into a complex number.  A part
    that overflows the float range (1e400) is refused, as 'nan' and 'inf'
    are."""
    s = text.strip()
    m = _COMPLEX_RE.match(s)
    if m:
        z = complex(float(m.group(1)), float(m.group(2)))
    elif m := _IMAG_RE.match(s):
        z = complex(0.0, float(m.group(1)))
    elif m := _REAL_RE.match(s):
        z = complex(float(m.group(1)), 0.0)
    else:
        raise DomainError(f"cannot parse complex number {text!r}; expected 'a+bi'")
    if not cmath.isfinite(z):
        raise DomainError(f"complex number {text!r} is beyond the float range")
    return z


def parse_nu_range(text):
    """Parse 'lo..hi' (inclusive) into a pair of ints."""
    m = _RANGE_RE.match(text.strip())
    if not m:
        raise DomainError(f"cannot parse index range {text!r}; expected 'lo..hi'")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise DomainError(f"empty index range {text!r}")
    return lo, hi


def record_to_obj(rec):
    return {
        "nu": "origin" if rec.nu is None else rec.nu,
        "re": rec.value.real,
        "im": rec.value.imag,
        "residual": rec.residual,
        "certified": rec.certified,
        "isolation_radius": rec.isolation_radius if rec.isolation_radius is not None else 0.0,
        "multiplicity": rec.multiplicity,
    }


def record_from_obj(obj):
    """The ZeroRecord of one result of a zeros document; a value outside the
    schema above (a bool or 1.5 for an int, NaN or inf) raises ValueError."""
    from .zeros import ZeroRecord

    nu, residual, radius = obj["nu"], obj.get("residual", 0.0), obj.get("isolation_radius", 0.0)
    certified, multiplicity = obj.get("certified", False), obj.get("multiplicity", 1)
    # type(x) is int refuses a bool, which JSON writes as true or false
    if not ((nu == "origin" or type(nu) is int) and type(certified) is bool
            and type(multiplicity) is int and multiplicity >= 1
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max
                    for x in (obj["re"], obj["im"], residual, radius))):
        raise ValueError(f"a result holds a value outside the schema: {obj!r}")
    value = complex(obj["re"], obj["im"])
    return ZeroRecord(None if nu == "origin" else nu, value, float(residual), value, 0,
                      certified, radius or None, multiplicity)


def document(qp, command, params, results, summary):
    return {
        "quasipolynomial": {"k": qp.k, "a": {"re": qp.a.real, "im": qp.a.imag}},
        "command": command,
        "params": params,
        "results": results,
        "summary": summary,
    }


def dump_json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _flatten(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return value


def dump_csv(doc):
    """CSV rendering: one row per result, or one summary row for commands
    whose payload is a single report."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    results = doc["results"]
    if results:
        header = list(results[0].keys())
        writer.writerow(header)
        for row in results:
            writer.writerow([_flatten(row.get(key)) for key in header])
    else:
        header = list(doc["summary"].keys())
        writer.writerow(header)
        writer.writerow([_flatten(doc["summary"][key]) for key in header])
    return out.getvalue()
