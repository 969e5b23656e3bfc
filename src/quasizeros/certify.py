"""Certification: per-record isolation certificates, winding counts,
exhaustive zero search in a disk, and completeness checks.

The winding count (1/2*pi*i) * contour integral of f'/f is computed by
per-segment Gauss quadrature with adaptive bisection; the integrand is
evaluated in dominance-factored form so contours with |Re l| in the
hundreds are safe.  The recursive disk search and the completeness of an
enumeration over a window reduce to integer winding counts.

A certified record has exactly `multiplicity` zeros in the open disk
|l - value| < isolation_radius.  For a simple zero this is proven by an
O(k) Rouche disk test (f against its linear Taylor part, with a closed-form
bound on the remainder; see _kernels_py.rouche_isolates); otherwise, or when
that test does not succeed, by a winding count over the disk.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import List, Union

from . import core, zeros as zeros_mod
from ._backend import kernels
from .errors import (
    DerivativeVanishesError,
    DomainError,
    EscapedBasinError,
    MaxIterationsError,
    QuadratureStalledError,
    RecordOutsideContourError,
    SubdivisionStalledError,
    ZeroOnContourError,
)

# 12-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = (
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
)
_GL_WEIGHTS = (
    0.04717533638651202, 0.10693932599531888, 0.1600783285433461,
    0.20316742672306565, 0.23349253653835464, 0.2491470458134027,
    0.2491470458134027, 0.23349253653835464, 0.20316742672306565,
    0.1600783285433461, 0.10693932599531888, 0.04717533638651202,
)

#: scaled |f| below this on a contour triggers ZeroOnContourError
ZERO_ON_CONTOUR_MODULUS = 1e-8

#: adaptive bisection segment budget per winding computation
SEGMENT_BUDGET = 1 << 16

#: initial segment length (contours are pre-split to about this length)
BASE_SEGMENT_LENGTH = 2.0

#: bisection error below this is accepted regardless of the local tolerance.
#: Near an off-contour zero the Gauss error per segment plateaus around
#: 1e-8 x |f'/f|*len, so halving tolerances forever would only burn budget;
#: the floor keeps the total error far below the 0.1 integer margin.
ACCEPT_FLOOR = 1e-7

#: adaptive bisection depth cap (the modulus check catches on-contour zeros
#: long before segments get this short)
MAX_BISECTION_DEPTH = 30


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("circle radius must be positive")

    def contains(self, point, margin=0.0):
        return abs(complex(point) - self.center) < self.radius - margin


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle given by two opposite corners (CCW oriented)."""

    corner_min: complex
    corner_max: complex

    def __post_init__(self):
        if not (self.corner_max.real > self.corner_min.real
                and self.corner_max.imag > self.corner_min.imag):
            raise DomainError("rectangle must have positive width and height")

    def contains(self, point, margin=0.0):
        p = complex(point)
        return (self.corner_min.real + margin < p.real < self.corner_max.real - margin
                and self.corner_min.imag + margin < p.imag < self.corner_max.imag - margin)


Contour = Union[Circle, Rectangle]


@dataclass(frozen=True)
class ContourReport:
    """Result of one winding-number computation."""

    count: int
    raw_integral: complex
    integer_distance: float
    min_scaled_modulus: float
    segments_used: int


class _Budget:
    __slots__ = ("segments", "minmod")

    def __init__(self):
        self.segments = 0
        self.minmod = math.inf


def _segment_eval(segment, p0, p1, budget):
    """One Gauss sum over the contour piece with parameters p0 -> p1."""
    budget.segments += 1
    total, mod = segment(p0, p1, _GL_NODES, _GL_WEIGHTS)
    if mod < budget.minmod:
        budget.minmod = mod
        if mod < ZERO_ON_CONTOUR_MODULUS:
            where = (f"near {p0:.6g}" if isinstance(p0, complex)
                     else f"(arc at angle {p0:.3g})")
            raise ZeroOnContourError(f"scaled |f| = {mod:.3g} on the contour {where}")
    return total


def _adaptive(segment, p0, p1, whole, tol, budget, depth):
    """Bisect p0 -> p1 until the two halves agree with the whole."""
    pm = 0.5 * (p0 + p1)
    left = _segment_eval(segment, p0, pm, budget)
    right = _segment_eval(segment, pm, p1, budget)
    if budget.segments > SEGMENT_BUDGET:
        raise QuadratureStalledError("segment budget exhausted")
    err = abs(whole - left - right)
    if err < tol or err < ACCEPT_FLOOR or depth >= MAX_BISECTION_DEPTH:
        return left + right
    half_tol = max(0.5 * tol, ACCEPT_FLOOR)
    return (_adaptive(segment, p0, pm, left, half_tol, budget, depth + 1)
            + _adaptive(segment, pm, p1, right, half_tol, budget, depth + 1))


def _integrate(qp, contour, tol):
    """Contour integral of f'/f.  Line pieces are parametrised by their
    complex end points, arc pieces by their angles."""
    budget = _Budget()
    parts = []
    if isinstance(contour, Rectangle):
        segment = partial(kernels.line_segment_logderiv, qp.k, qp.log_a)
        a, c = contour.corner_min, contour.corner_max
        b = complex(c.real, a.imag)
        d = complex(a.real, c.imag)
        for z0, z1 in ((a, b), (b, c), (c, d), (d, a)):
            length = abs(z1 - z0)
            pieces = max(1, math.ceil(length / BASE_SEGMENT_LENGTH))
            seg_tol = tol / (4.0 * pieces)
            for j in range(pieces):
                s0 = z0 + (z1 - z0) * (j / pieces)
                s1 = z0 + (z1 - z0) * ((j + 1) / pieces)
                parts.append((s0, s1, seg_tol))
    elif isinstance(contour, Circle):
        segment = partial(kernels.arc_segment_logderiv, qp.k, qp.log_a,
                          contour.center, contour.radius)
        pieces = max(8, math.ceil(2.0 * math.pi * contour.radius / BASE_SEGMENT_LENGTH))
        seg_tol = tol / pieces
        for j in range(pieces):
            t0 = 2.0 * math.pi * j / pieces
            t1 = 2.0 * math.pi * (j + 1) / pieces
            parts.append((t0, t1, seg_tol))
    else:
        raise DomainError(f"unsupported contour type {type(contour).__name__}")
    total = 0j
    for p0, p1, seg_tol in parts:
        whole = _segment_eval(segment, p0, p1, budget)
        total += _adaptive(segment, p0, p1, whole, seg_tol, budget, 0)
    return total, budget


def winding_count(qp, contour, quadrature_tolerance=1e-6):
    """Number of zeros of f inside the contour, with multiplicity.

    Computes (1/2*pi*i) * integral of f'/f by adaptive Gauss quadrature and
    rounds to the nearest integer; the rounding distance must come out below
    0.1 (the tolerance is tightened and the computation retried otherwise).
    Raises ZeroOnContourError when the contour runs too close to a zero.
    """
    if quadrature_tolerance <= 0:
        raise DomainError("quadrature tolerance must be positive")
    tol = quadrature_tolerance
    last_exc = None
    for _ in range(3):
        total, budget = _integrate(qp, contour, tol)
        raw = complex(total.imag / (2.0 * math.pi), -total.real / (2.0 * math.pi))
        count = round(raw.real)
        dist = abs(raw - count)
        if dist < 0.1 and count >= 0:
            return ContourReport(count=count, raw_integral=raw,
                                 integer_distance=dist,
                                 min_scaled_modulus=budget.minmod,
                                 segments_used=budget.segments)
        last_exc = QuadratureStalledError(
            f"winding integral {raw:.6g} is {dist:.3g} from the nearest "
            f"admissible integer")
        tol /= 100.0
    raise last_exc


def certify_record(qp, record, radius=None, quadrature_tolerance=1e-6):
    """Certify a zero record: prove that exactly record.multiplicity zeros
    lie in the open disk |l - value| < isolation_radius.

    The value must first have relative residual below 1e-6.  A simple zero
    is then tried with the closed-form Rouche disk test at the given radius;
    when that test does not prove the claim (or the record is not simple)
    a winding count over the disk decides.  The winding-count path shrinks
    the disk (up to three times) when the count exceeds the record's
    multiplicity because of a close neighbor.  A count of 2 around a
    multiplicity-1 record is re-read as a double zero when the critical point
    of f polishes to a genuine zero inside the disk; the record is then
    upgraded (value moved to the critical point, multiplicity 2).
    """
    r = radius if radius is not None else record.isolation_radius
    if r is None:
        r = 1.0
    # the value itself must be a zero; the disk count alone would also pass
    # for a stale value whose disk still happens to contain the true zero
    if core.relative_residual(qp, record.value) >= 1e-6:
        return replace(record, certified=False, isolation_radius=r)
    if record.multiplicity == 1 and kernels.rouche_isolates(
            qp.k, qp.log_a, complex(record.value), r):
        return replace(record, certified=True, isolation_radius=r)
    return _winding_certificate(qp, record, r, quadrature_tolerance)


def _winding_certificate(qp, record, r, quadrature_tolerance):
    """certify_record's winding-count path, starting at radius r."""
    mult = record.multiplicity
    for _ in range(4):
        try:
            report = winding_count(qp, Circle(complex(record.value), r),
                                   quadrature_tolerance)
        except ZeroOnContourError:
            r *= 0.5
            continue
        if report.count == mult:
            return replace(record, certified=True, isolation_radius=r,
                           multiplicity=mult)
        if report.count == 2 and mult == 1:
            try:
                c = _critical_point(qp, record.value)
            except (MaxIterationsError, DerivativeVanishesError):
                c = None
            if (c is not None and abs(c - record.value) < r
                    and core.relative_residual(qp, c) < 1e-10):
                return replace(record, value=c,
                               residual=core.relative_residual(qp, c),
                               certified=True, isolation_radius=r,
                               multiplicity=2)
        r *= 0.5
    return replace(record, certified=False, isolation_radius=r)


def _cell_winding(qp, xmin, xmax, ymin, ymax, tol):
    return winding_count(qp, Rectangle(complex(xmin, ymin), complex(xmax, ymax)), tol)


def _edge_clear(qp, z0, z1, floor=1e-5, points=33):
    """Cheap pre-check that a proposed cell edge stays away from zeros."""
    for j in range(points + 1):
        z = z0 + (z1 - z0) * (j / points)
        if core.relative_residual(qp, z) < floor:
            return False
    return True


def _split_cell(qp, xmin, xmax, ymin, ymax, count, tol):
    """Split a cell into four children whose contours avoid zeros.

    The split point starts at the midpoint and is nudged by multiples of
    1e-3 * diameter when a child contour runs through a zero; children always
    tile the parent exactly.  Child counts must add up to the parent count.
    """
    diam = math.sqrt((xmax - xmin) ** 2 + (ymax - ymin) ** 2)
    for j in range(9):
        shift = ((j + 1) // 2) * (1 if j % 2 else -1) * 1e-3 * diam
        xm = 0.5 * (xmin + xmax) + shift
        ym = 0.5 * (ymin + ymax) + shift
        if not (xmin < xm < xmax and ymin < ym < ymax):
            continue
        if not (_edge_clear(qp, complex(xm, ymin), complex(xm, ymax))
                and _edge_clear(qp, complex(xmin, ym), complex(xmax, ym))):
            continue
        quads = ((xmin, xm, ymin, ym), (xm, xmax, ymin, ym),
                 (xmin, xm, ym, ymax), (xm, xmax, ym, ymax))
        try:
            reports = [_cell_winding(qp, *q, tol) for q in quads]
        except (ZeroOnContourError, QuadratureStalledError):
            continue
        if sum(rep.count for rep in reports) != count:
            continue
        return [(q, rep.count) for q, rep in zip(quads, reports)]
    raise SubdivisionStalledError(
        f"could not split cell [{xmin:.4g},{xmax:.4g}]x[{ymin:.4g},{ymax:.4g}] "
        "without hitting a zero")


def _polish_cell(qp, xmin, xmax, ymin, ymax, tolerance):
    center = complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
    rec = zeros_mod.newton_refine(qp, center, tolerance)
    v = rec.value
    if not (xmin < v.real < xmax and ymin < v.imag < ymax):
        raise EscapedBasinError("polished zero left its cell")
    nu = zeros_mod.disk_zero_index(qp, v)
    return rec if nu == rec.nu else replace(rec, nu=nu)


def _critical_point(qp, seed, iterations=80):
    """Newton on f' from the seed (locates double zeros)."""
    lam = complex(seed)
    for _ in range(iterations):
        d1 = core.derivative(qp, lam)
        d2 = core.second_derivative(qp, lam)
        if d2 == 0:
            raise DerivativeVanishesError("f'' vanished during critical-point polish")
        step = d1 / d2
        lam -= step
        if abs(step) < 1e-14 * max(1.0, abs(lam)):
            return lam
    raise MaxIterationsError("critical-point polish did not converge")


def _search_cells(qp, cell, count, tolerance, tol, out, depth=0):
    xmin, xmax, ymin, ymax = cell
    if count == 0:
        return
    if depth > 60:
        raise SubdivisionStalledError("subdivision recursion limit reached")
    diam = math.sqrt((xmax - xmin) ** 2 + (ymax - ymin) ** 2)
    if count == 1 and diam < 0.5:
        try:
            out.append(_polish_cell(qp, xmin, xmax, ymin, ymax, tolerance))
            return
        except (EscapedBasinError, MaxIterationsError, DerivativeVanishesError):
            pass  # fall through to further subdivision
    if count == 2 and diam < 0.5:
        # a genuine double zero sits at a critical point and cannot be split
        # off (clearance around it decays quadratically); try that reading
        # first and only keep subdividing for a separable close pair
        try:
            c = _critical_point(qp, complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax)))
            if (xmin < c.real < xmax and ymin < c.imag < ymax
                    and core.relative_residual(qp, c) < 1e-10
                    and winding_count(qp, Circle(c, diam), tol).count == 2):
                out.append(zeros_mod.ZeroRecord(
                    nu=None, value=c, residual=core.relative_residual(qp, c),
                    seed=c, iterations=0, multiplicity=2))
                return
        except (MaxIterationsError, DerivativeVanishesError, ZeroOnContourError,
                QuadratureStalledError):
            pass
    if count > 2 and diam < 0.01:
        raise SubdivisionStalledError(
            f"count {count} in a cell of diameter {diam:.3g}: multiplicity above "
            "2 is impossible for this family, aborting")
    for child, child_count in _split_cell(qp, xmin, xmax, ymin, ymax, count, tol):
        _search_cells(qp, child, child_count, tolerance, tol, out, depth + 1)


def find_zeros_in_disk(qp, radius, tolerance=1e-12, quadrature_tolerance=1e-6):
    """All zeros of f with |l| <= radius, each certified.

    Recursive subdivision of the bounding square: cells with winding count 0
    are dropped, count-1 cells small enough are polished by Newton from the
    center, and persistent count-2 cells are resolved as double zeros.  Cell
    boundaries that hit zeros are nudged deterministically and retried.
    """
    if radius <= 0:
        raise DomainError("radius must be positive")
    outer_report = None
    outer = None
    for attempt in range(9):
        m = radius * 1e-3 * (attempt + 1)
        outer = (-radius - m, radius + m, -radius - m, radius + m)
        corners = (complex(outer[0], outer[2]), complex(outer[1], outer[2]),
                   complex(outer[1], outer[3]), complex(outer[0], outer[3]))
        if not all(_edge_clear(qp, corners[i], corners[(i + 1) % 4])
                   for i in range(4)):
            continue
        try:
            outer_report = _cell_winding(qp, *outer, quadrature_tolerance)
            break
        except (ZeroOnContourError, QuadratureStalledError):
            continue
    if outer_report is None:
        raise SubdivisionStalledError(
            "could not place the outer square off the zero set")
    found: List[zeros_mod.ZeroRecord] = []
    _search_cells(qp, outer, outer_report.count, tolerance,
                  quadrature_tolerance, found)
    # dedupe (polishing from adjacent cells can reach the same zero)
    unique: List[zeros_mod.ZeroRecord] = []
    for rec in sorted(found, key=lambda r: (r.value.imag, r.value.real)):
        if all(abs(rec.value - u.value) >= zeros_mod.DUPLICATE_DISTANCE
               for u in unique):
            unique.append(rec)
    radii = zeros_mod.isolation_radii(unique)
    records = []
    for rec, r in zip(unique, radii):
        if abs(rec.value) <= radius:
            records.append(certify_record(qp, rec, r, quadrature_tolerance))
    return records


def certify_completeness(qp, contour, records, quadrature_tolerance=1e-6):
    """Check that records are exactly the zeros of f inside the contour.

    Every record must lie strictly inside.  Passes when the contour winding
    count equals the sum of record multiplicities and every record
    individually certifies in its isolation disk.  Returns (ok, report).
    """
    for rec in records:
        if not contour.contains(rec.value):
            raise RecordOutsideContourError(
                f"record at {rec.value:.6g} lies outside the contour")
    report = winding_count(qp, contour, quadrature_tolerance)
    expected = sum(rec.multiplicity for rec in records)
    failures = []
    for rec in records:
        checked = certify_record(qp, rec, rec.isolation_radius, quadrature_tolerance)
        if not checked.certified or checked.multiplicity != rec.multiplicity:
            failures.append(rec)
    ok = report.count == expected and not failures
    detail = {
        "contour_count": report.count,
        "expected_count": expected,
        "record_failures": [r.value for r in failures],
        "integer_distance": report.integer_distance,
        "min_scaled_modulus": report.min_scaled_modulus,
    }
    return ok, detail
