"""Certification: per-record isolation certificates, winding counts,
exhaustive zero search in a disk, and completeness checks.

The winding count (1/2*pi*i) * contour integral of f'/f is computed by
per-segment Gauss quadrature with adaptive bisection; the integrand is
evaluated in dominance-factored form so contours with |Re l| in the
hundreds are safe.  The disk search and the completeness of an enumeration
over a window reduce to integer winding counts.

Both rest on one count identity (_count_identity): a contour's winding count
equals the sum of the multiplicities of the records inside it, and every
record certifies at its isolation radius.  The disk search lists the zeros
in its bounding square ahead of time, l = -k W_m(-1/(k w_j)) over the roots
w_j of w^k = -A and the branches m of Lambert W (Corless, Gonnet, Hare,
Jeffrey & Knuth, Adv. Comput. Math. 5, 1996), and proves the list with the
square's one winding count: count-then-polish run in reverse (Kravanja &
Van Barel, LNM 1727, 2000).  Recursive subdivision of the square (Delves &
Lyness, Math. Comp. 21, 1967) runs only when the identity fails.

A contour piece keeps its Gauss sum and its two halves once computed, and a
rectangle side is one piece in canonical direction (west to east, south to
north), added or subtracted.  The subdivision passes each cell's four sides
down the recursion: a child's outer sides are halves of its parent's, and
each half-edge of the inner cross is shared by the two children that border
it, so a split integrates only its new inner cross.  A piece's sum depends
only on its end points, so every cell's report is the one a fresh
winding_count on the same rectangle gives.

A certified record has exactly `multiplicity` zeros in the open disk
|l - value| < isolation_radius.  For a simple zero this is proven by an
O(k) Rouche disk test (f against its linear Taylor part, with a closed-form
bound on the remainder; see _kernels_py.rouche_isolates); otherwise, or when
that test does not succeed, by a winding count over the disk.
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Union

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

#: quadrature tolerance of every certificate and cell count: the adaptive
#: bisection's error target for a whole contour (see _report)
QUADRATURE_TOLERANCE = 1e-6

#: scaled |f| below this on a contour triggers ZeroOnContourError
ZERO_ON_CONTOUR_MODULUS = 1e-8

#: adaptive bisection segment budget per winding computation
SEGMENT_BUDGET = 1 << 16

#: rectangle sides are bisected at exact midpoints until each piece is at
#: most 2 * BASE_SEGMENT_LENGTH long, and the adaptive test compares each
#: with its two halves; circles are cut into arcs about this long
BASE_SEGMENT_LENGTH = 2.0

#: bisection error below this is accepted regardless of the local tolerance.
#: Near an off-contour zero the Gauss error per segment plateaus around
#: 1e-8 x |f'/f|*len, so halving tolerances forever would only burn budget;
#: the floor keeps the total error far below the 0.1 integer margin.
ACCEPT_FLOOR = 1e-7

#: |e z + 1| below this puts z = -1/(k w_j) at the Lambert-W branch point
#: -1/e, where W_0 and its partner branch meet in a double zero; a float A =
#: -e^k/k^k lands ~1e-16 from it, and A = -e^k/k^k (1 + eps) lands ~eps/k
BRANCH_POINT_DISTANCE = 1e-12

#: adaptive bisection depth cap (the modulus check catches on-contour zeros
#: long before segments get this short)
MAX_BISECTION_DEPTH = 30


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise DomainError("circle needs a finite center and a positive "
                              "finite radius")

    def contains(self, point):
        return abs(complex(point) - self.center) < self.radius


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle given by two opposite corners (CCW oriented)."""

    corner_min: complex
    corner_max: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.corner_min) and cmath.isfinite(self.corner_max)):
            raise DomainError("rectangle corners must be finite")
        if not (self.corner_max.real > self.corner_min.real
                and self.corner_max.imag > self.corner_min.imag):
            raise DomainError("rectangle must have positive width and height")

    def contains(self, point):
        p = complex(point)
        return (self.corner_min.real < p.real < self.corner_max.real
                and self.corner_min.imag < p.imag < self.corner_max.imag)


Contour = Union[Circle, Rectangle]


@dataclass(frozen=True)
class ContourReport:
    """Result of one winding-number computation.

    segments_used counts the Gauss sums the contour integral summed, whether
    evaluated for it or reused from a piece shared with another contour;
    SEGMENT_BUDGET bounds the same count.
    """

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


class _Piece:
    """A contour piece with parameters p0 -> p1 (complex end points for
    lines, angles for arcs).  Its Gauss sum and its two halves are computed
    once, on first use, and kept: the sum depends only on the end points, so
    every contour that runs along the piece, in either direction, reuses
    them."""

    __slots__ = ("p0", "p1", "_sum", "_mod", "_halves")

    def __init__(self, p0, p1):
        self.p0 = p0
        self.p1 = p1
        self._mod = None
        self._halves = None

    def halves(self):
        if self._halves is None:
            pm = 0.5 * (self.p0 + self.p1)
            self._halves = (_Piece(self.p0, pm), _Piece(pm, self.p1))
        return self._halves

    def visit(self, segment, budget):
        """The Gauss sum, counted as one segment of the contour being summed
        and checked against the zero-on-contour modulus, whether it is
        evaluated here or reused."""
        if self._mod is None:
            self._sum, self._mod = segment(self.p0, self.p1, _GL_NODES, _GL_WEIGHTS)
        mod = self._mod
        budget.segments += 1
        if mod < budget.minmod:
            budget.minmod = mod
            if mod < ZERO_ON_CONTOUR_MODULUS:
                p0 = self.p0
                where = (f"near {p0:.6g}" if isinstance(p0, complex)
                         else f"(arc at angle {p0:.3g})")
                raise ZeroOnContourError(f"scaled |f| = {mod:.3g} on the contour {where}")
        return self._sum


def _adaptive(segment, piece, whole, tol, budget, depth):
    """Bisect the piece until its two halves agree with the whole."""
    left, right = piece.halves()
    lsum = left.visit(segment, budget)
    rsum = right.visit(segment, budget)
    if budget.segments > SEGMENT_BUDGET:
        raise QuadratureStalledError("segment budget exhausted")
    err = abs(whole - lsum - rsum)
    if err < tol or err < ACCEPT_FLOOR or depth >= MAX_BISECTION_DEPTH:
        return lsum + rsum
    half_tol = max(0.5 * tol, ACCEPT_FLOOR)
    return (_adaptive(segment, left, lsum, half_tol, budget, depth + 1)
            + _adaptive(segment, right, rsum, half_tol, budget, depth + 1))


def _rect_sides(xmin, xmax, ymin, ymax):
    """The four sides (south, east, north, west) of a rectangle, each a piece
    in canonical direction: west to east, or south to north."""
    sw, se = complex(xmin, ymin), complex(xmax, ymin)
    nw, ne = complex(xmin, ymax), complex(xmax, ymax)
    return (_Piece(sw, se), _Piece(se, ne), _Piece(nw, ne), _Piece(sw, nw))


def _presplit(piece):
    """The piece bisected at exact midpoints into pieces whose parameter
    spans at most 2 * BASE_SEGMENT_LENGTH."""
    if abs(piece.p1 - piece.p0) <= 2.0 * BASE_SEGMENT_LENGTH:
        return [piece]
    left, right = piece.halves()
    return _presplit(left) + _presplit(right)


def _rect_parts(sides):
    """(part, sign) for the counter-clockwise boundary of a rectangle given
    by its four canonical sides."""
    return list(zip(sides, (1, 1, -1, -1)))


def _circle_parts(circle):
    """(part, sign) for a circle cut into equal arcs; an arc spans at most
    pi/4 in angle, so _presplit keeps it whole."""
    pieces = max(8, math.ceil(2.0 * math.pi * circle.radius / BASE_SEGMENT_LENGTH))
    return [(_Piece(2.0 * math.pi * j / pieces, 2.0 * math.pi * (j + 1) / pieces), 1)
            for j in range(pieces)]


def _report(segment, parts, quadrature_tolerance):
    """Winding count of the contour made of parts (see _rect_parts).

    Each part is presplit, and each of its pieces is summed by adaptive
    bisection at quadrature_tolerance / (number of parts * pieces of the
    part).  The integral, rounded to the nearest integer, must come out
    within 0.1 of it; otherwise the tolerance is tightened 100x and the sum
    taken again, reusing every Gauss sum already computed.

    A piece costs at least three visits (itself and its two halves), so a
    contour of more than SEGMENT_BUDGET / 3 pieces is refused before any
    sum: from the part lengths before any piece is built (a part L long
    needs at least L / (2 * BASE_SEGMENT_LENGTH) pieces), then from the
    exact count.
    """
    span = 2.0 * BASE_SEGMENT_LENGTH
    if 3.0 * sum(max(1.0, abs(part.p1 - part.p0) / span)
                 for part, _ in parts) > SEGMENT_BUDGET:
        raise QuadratureStalledError("segment budget exhausted")
    pieces = []
    for part, sign in parts:
        split = _presplit(part)
        pieces.extend((piece, len(parts) * len(split), sign) for piece in split)
    if 3 * len(pieces) > SEGMENT_BUDGET:
        raise QuadratureStalledError("segment budget exhausted")
    tol = quadrature_tolerance
    last_exc = None
    for _ in range(3):
        budget = _Budget()
        total = 0j
        for piece, div, sign in pieces:
            whole = piece.visit(segment, budget)
            s = _adaptive(segment, piece, whole, tol / div, budget, 0)
            total = total + s if sign > 0 else total - s
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


def _line_segment(qp):
    # bound at call time, so a rebinding of the kernel (tracing) is seen
    return partial(kernels.line_segment_logderiv, qp.k, qp.log_a)


def winding_count(qp, contour, quadrature_tolerance=QUADRATURE_TOLERANCE):
    """Number of zeros of f inside the contour, with multiplicity.

    Computes (1/2*pi*i) * integral of f'/f by adaptive Gauss quadrature and
    rounds to the nearest integer; the rounding distance must come out below
    0.1 (the tolerance is tightened and the computation retried otherwise).
    Raises ZeroOnContourError when the contour runs too close to a zero.
    """
    if quadrature_tolerance <= 0:
        raise DomainError("quadrature tolerance must be positive")
    if isinstance(contour, Rectangle):
        a, c = contour.corner_min, contour.corner_max
        return _report(_line_segment(qp),
                       _rect_parts(_rect_sides(a.real, c.real, a.imag, c.imag)),
                       quadrature_tolerance)
    if isinstance(contour, Circle):
        segment = partial(kernels.arc_segment_logderiv, qp.k, qp.log_a,
                          contour.center, contour.radius)
        return _report(segment, _circle_parts(contour), quadrature_tolerance)
    raise DomainError(f"unsupported contour type {type(contour).__name__}")


def certify_record(qp, record, radius=None):
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
    if not r > 0:  # a duplicate record's isolation radius: no room to prove
        return _certificate(record, False, r)
    # the value itself must be a zero; the disk count alone would also pass
    # for a stale value whose disk still happens to contain the true zero
    if core.relative_residual(qp, record.value) >= 1e-6:
        return _certificate(record, False, r)
    if record.multiplicity == 1 and kernels.rouche_isolates(
            qp.k, qp.log_a, complex(record.value), r):
        return _certificate(record, True, r)
    return _winding_certificate(qp, record, r)


def _certificate(record, certified, radius):
    """The record with its certificate fields set.  Built directly: this is
    about twice as fast as dataclasses.replace, and it runs once per record."""
    return zeros_mod.ZeroRecord(record.nu, record.value, record.residual, record.seed,
                                record.iterations, certified, radius,
                                record.multiplicity)


def _winding_certificate(qp, record, r):
    """certify_record's winding-count path, starting at radius r."""
    mult = record.multiplicity
    for _ in range(4):
        disk = Circle(complex(record.value), r)
        try:
            report = winding_count(qp, disk)
        except ZeroOnContourError:
            r *= 0.5
            continue
        if report.count == mult:
            return _certificate(record, True, r)
        if report.count == 2 and mult == 1:
            c = _double_zero(qp, disk, record.value)
            if c is not None:
                return zeros_mod.ZeroRecord(
                    record.nu, c, core.relative_residual(qp, c), record.seed,
                    record.iterations, True, r, 2)
        r *= 0.5
    return _certificate(record, False, r)


def _edge_clear(qp, z0, z1, floor=1e-5, points=33):
    """Cheap pre-check that a proposed cell edge stays away from zeros."""
    for j in range(points + 1):
        z = z0 + (z1 - z0) * (j / points)
        if core.relative_residual(qp, z) < floor:
            return False
    return True


def _split_cell(qp, segment, cell, sides, count):
    """Split a cell into four children whose contours avoid zeros.

    The split point starts at the midpoint and is nudged by multiples of
    1e-3 * diameter when a child contour runs through a zero; children always
    tile the parent exactly.  Child counts must add up to the parent count.
    Returns (child cell, its four sides, its ContourReport) per child.

    At the midpoint the children's outer sides are the halves of the parent's
    sides; a nudged split builds fresh ones.  Each half-edge of the inner
    cross is one piece, shared with opposite signs by the two children that
    border it.
    """
    xmin, xmax, ymin, ymax = cell
    diam = math.sqrt((xmax - xmin) ** 2 + (ymax - ymin) ** 2)
    for j in range(9):
        shift = ((j + 1) // 2) * (1 if j % 2 else -1) * 1e-3 * diam
        xm = 0.5 * (xmin + xmax) + shift
        ym = 0.5 * (ymin + ymax) + shift
        if not (xmin < xm < xmax and ymin < ym < ymax):
            continue
        mid_s, mid_n = complex(xm, ymin), complex(xm, ymax)
        mid_w, mid_e = complex(xmin, ym), complex(xmax, ym)
        if not (_edge_clear(qp, mid_s, mid_n) and _edge_clear(qp, mid_w, mid_e)):
            continue
        if shift == 0:
            south, east, north, west = (side.halves() for side in sides)
        else:
            sw, se = complex(xmin, ymin), complex(xmax, ymin)
            nw, ne = complex(xmin, ymax), complex(xmax, ymax)
            south = (_Piece(sw, mid_s), _Piece(mid_s, se))
            east = (_Piece(se, mid_e), _Piece(mid_e, ne))
            north = (_Piece(nw, mid_n), _Piece(mid_n, ne))
            west = (_Piece(sw, mid_w), _Piece(mid_w, nw))
        centre = complex(xm, ym)
        cross_s, cross_n = _Piece(mid_s, centre), _Piece(centre, mid_n)
        cross_w, cross_e = _Piece(mid_w, centre), _Piece(centre, mid_e)
        children = (
            ((xmin, xm, ymin, ym), (south[0], cross_s, cross_w, west[0])),
            ((xm, xmax, ymin, ym), (south[1], east[0], cross_e, cross_s)),
            ((xmin, xm, ym, ymax), (cross_w, cross_n, north[0], west[1])),
            ((xm, xmax, ym, ymax), (cross_e, east[1], north[1], cross_n)),
        )
        try:
            reports = [_report(segment, _rect_parts(child_sides), QUADRATURE_TOLERANCE)
                       for _, child_sides in children]
        except (ZeroOnContourError, QuadratureStalledError):
            continue
        if sum(rep.count for rep in reports) != count:
            continue
        return [(child, child_sides, rep)
                for (child, child_sides), rep in zip(children, reports)]
    raise SubdivisionStalledError(
        f"could not split cell [{xmin:.4g},{xmax:.4g}]x[{ymin:.4g},{ymax:.4g}] "
        "without hitting a zero")


def _polish(qp, seed, cell, tolerance):
    """Newton from the seed; the zero it reaches must lie strictly inside
    the cell (xmin, xmax, ymin, ymax).  Labelled by disk_zero_index."""
    xmin, xmax, ymin, ymax = cell
    rec = zeros_mod.newton_refine(qp, seed, tolerance)
    v = rec.value
    if not (xmin < v.real < xmax and ymin < v.imag < ymax):
        raise EscapedBasinError("polished zero left its cell")
    nu = zeros_mod.disk_zero_index(qp, v)
    return rec if nu == rec.nu else replace(rec, nu=nu)


def _double_zero(qp, region, seed):
    """The double zero that Newton on f' reaches from the seed, or None.

    The critical point it converges to must lie inside the region (a Circle
    or Rectangle whose count of 2 the caller has read) and be a zero of f to
    relative residual below 1e-10.
    """
    lam = complex(seed)
    for _ in range(80):
        d1 = core.derivative(qp, lam)
        d2 = core.second_derivative(qp, lam)
        if d2 == 0:
            return None
        step = d1 / d2
        lam -= step
        if abs(step) < 1e-14 * max(1.0, abs(lam)):
            if region.contains(lam) and core.relative_residual(qp, lam) < 1e-10:
                return lam
            return None
    return None


def _double_zero_record(qp, region, seed):
    """The record of the double zero _double_zero reads from the seed, or
    None."""
    c = _double_zero(qp, region, seed)
    if c is None:
        return None
    return zeros_mod.ZeroRecord(nu=None, value=c, residual=core.relative_residual(qp, c),
                                seed=c, iterations=0, multiplicity=2)


def _search_cells(qp, segment, cell, sides, count, tolerance, out, depth=0):
    xmin, xmax, ymin, ymax = cell
    if count == 0:
        return
    if depth > 60:
        raise SubdivisionStalledError("subdivision recursion limit reached")
    diam = math.sqrt((xmax - xmin) ** 2 + (ymax - ymin) ** 2)
    if count == 1 and diam < 0.5:
        try:
            out.append(_polish(qp, complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax)),
                               cell, tolerance))
            return
        except (EscapedBasinError, MaxIterationsError, DerivativeVanishesError):
            pass  # fall through to further subdivision
    if count == 2 and diam < 0.5:
        # a genuine double zero sits at a critical point and cannot be split
        # off (clearance around it decays quadratically); try that reading
        # first and only keep subdividing for a separable close pair.  The
        # cell's count of 2 makes a zero of f and f' inside it its only zero.
        rec = _double_zero_record(
            qp, Rectangle(complex(xmin, ymin), complex(xmax, ymax)),
            complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax)))
        if rec is not None:
            out.append(rec)
            return
    if count > 2 and diam < 0.01:
        raise SubdivisionStalledError(
            f"count {count} in a cell of diameter {diam:.3g}: multiplicity above "
            "2 is impossible for this family, aborting")
    for child, child_sides, report in _split_cell(qp, segment, cell, sides, count):
        _search_cells(qp, segment, child, child_sides, report.count, tolerance,
                      out, depth + 1)


def _outer_cell(qp, segment, radius):
    """The disk search's bounding square, a little wider than the disk and
    placed off the zero set: (cell, its four sides, its ContourReport).

    Only a zero on the square moves it; a QuadratureStalledError (a side
    over the segment budget, or an integral that will not settle) would
    recur on every wider square, so it propagates at once."""
    for attempt in range(9):
        m = radius * 1e-3 * (attempt + 1)
        cell = (-radius - m, radius + m, -radius - m, radius + m)
        corners = (complex(cell[0], cell[2]), complex(cell[1], cell[2]),
                   complex(cell[1], cell[3]), complex(cell[0], cell[3]))
        if not all(_edge_clear(qp, corners[i], corners[(i + 1) % 4])
                   for i in range(4)):
            continue
        sides = _rect_sides(*cell)
        try:
            report = _report(segment, _rect_parts(sides), QUADRATURE_TOLERANCE)
            return cell, sides, report
        except ZeroOnContourError:
            continue
    raise SubdivisionStalledError(
        "could not place the outer square off the zero set")


def _enumerate_cell(qp, cell, tolerance):
    """The zeros -k W_m(-1/(k w_j)) of f inside the square cell, centred on
    the origin: one record per zero, Newton-polished from its Lambert-W
    value and labelled by disk_zero_index.

    Every zero solves e^(l/k) = w_j l for exactly one root w_j of
    w^k = -A, so l = -k W_m(z_j) with z_j = -1/(k w_j) for exactly one
    branch m.  For each j the branches run m = 0, 1, 2, ... and m = -1,
    -2, ...; a direction stops after two consecutive values beyond the
    square's circumradius (|W_m| grows like 2 pi |m|).  Where z_j is the
    branch point -1/e (|e z_j + 1| < BRANCH_POINT_DISTANCE), W_0 and its
    partner branch give one double zero, read by _double_zero.  A seed whose
    Newton polish fails or leaves the square is dropped: the count identity
    in find_zeros_in_disk decides whether the list is complete.
    """
    k = qp.k
    xmin, xmax, ymin, ymax = cell
    reach = math.hypot(xmax, ymax)
    square = Rectangle(complex(xmin, ymin), complex(xmax, ymax))
    found = []
    for j in range(k):
        z = -1.0 / (k * cmath.exp((qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / k))
        # the two branches that meet at -1/e, when z_j is there
        branch_pair = ((0, -math.copysign(1.0, z.imag))
                       if abs(math.e * z + 1.0) < BRANCH_POINT_DISTANCE else ())
        for m, step in ((0, 1), (-1, -1)):
            outside = 0
            while outside < 2:
                lam = -k * kernels.lambert_w(z, m)
                outside = 0 if abs(lam) <= reach else outside + 1
                if m == 0 and branch_pair:
                    rec = _double_zero_record(qp, square, lam)
                    if rec is not None:
                        found.append(rec)
                elif m not in branch_pair and square.contains(lam):
                    try:
                        found.append(_polish(qp, lam, cell, tolerance))
                    except (EscapedBasinError, MaxIterationsError,
                            DerivativeVanishesError):
                        pass
                m += step
    return found


def _im_order(rec):
    return rec.value.imag, rec.value.real


def find_zeros_in_disk(qp, radius, tolerance=1e-12):
    """All zeros of f with |l| <= radius, each certified.

    The bounding square, a little wider than the disk, gets one winding
    count.  The zeros inside it are enumerated by their Lambert-W branches
    (_enumerate_cell) and certified at their isolation radii; when their
    multiplicities add up to the square's count and every record certifies
    (the count identity, see _count_identity), the list is complete.  Only
    when the identity fails does the search fall back to recursive
    subdivision of the same square, reusing its count and side sums: cells
    with winding count 0 are dropped, count-1 cells small enough are
    polished by Newton from the center, and persistent count-2 cells are
    resolved as double zeros.  Cell boundaries that hit zeros are nudged
    deterministically and retried.  Each record lies strictly inside its own
    leaf cell, and leaf cells are disjoint, so no zero is found twice.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    segment = _line_segment(qp)
    outer, sides, outer_report = _outer_cell(qp, segment, radius)
    found = sorted(_enumerate_cell(qp, outer, tolerance), key=_im_order)
    ok, records, _failures = _count_identity(
        qp, outer_report.count, found, zeros_mod.isolation_radii(found))
    if not ok:
        found = []
        _search_cells(qp, segment, outer, sides, outer_report.count, tolerance, found)
        found.sort(key=_im_order)
        records = [certify_record(qp, rec, r)
                   for rec, r in zip(found, zeros_mod.isolation_radii(found))]
    return [rec for rec in records if abs(rec.value) <= radius]


def _count_identity(qp, count, records, radii):
    """The count identity: a contour's winding count equals the sum of the
    multiplicities of the records inside it, and every record certifies, with
    its own multiplicity, at its radius.  Certified disks at isolation radii
    are disjoint, so the identity proves the records are all the zeros
    inside (Kravanja & Van Barel, LNM 1727, 2000).  Returns (whether it
    holds, the records as certified, the records that did not certify)."""
    checked = [certify_record(qp, rec, r) for rec, r in zip(records, radii)]
    failures = [rec for rec, c in zip(records, checked)
                if not c.certified or c.multiplicity != rec.multiplicity]
    ok = count == sum(rec.multiplicity for rec in records) and not failures
    return ok, checked, failures


def certify_completeness(qp, contour, records):
    """Check that records are exactly the zeros of f inside the contour.

    Every record must lie strictly inside.  Passes when the contour winding
    count equals the sum of record multiplicities and every record
    individually certifies in its isolation disk.  Returns (ok, report).
    """
    for rec in records:
        if not contour.contains(rec.value):
            raise RecordOutsideContourError(
                f"record at {rec.value:.6g} lies outside the contour")
    report = winding_count(qp, contour)
    ok, _checked, failures = _count_identity(
        qp, report.count, records, [rec.isolation_radius for rec in records])
    detail = {
        "contour_count": report.count,
        "expected_count": sum(rec.multiplicity for rec in records),
        "record_failures": [r.value for r in failures],
        "integer_distance": report.integer_distance,
        "min_scaled_modulus": report.min_scaled_modulus,
    }
    return ok, detail
