"""Certification: per-record isolation certificates, winding counts,
exhaustive zero search in a disk, and completeness checks.

The winding count (1/2*pi*i) * contour integral of f'/f is computed by
the embedded 7-point Gauss / 15-point Kronrod pair on each contour piece:
one pass over the fifteen nodes gives the Kronrod sum, the piece's value,
and the Gauss sum, and a piece is bisected while |K15 - G7| is above its
share of the tolerance.  The integrand is evaluated in dominance-factored
form so contours with |Re l| in the hundreds are safe.

The disk search and the completeness of an enumeration over a rectangle
rest on two proofs of the number of zeros in a region, and on one count
identity (_count_identity): that number equals the sum of the
multiplicities of the records inside, and every record certifies at its
isolation radius.  Every zero is l = -k W_m(z_j), z_j = -1/(k w_j), for
exactly one root w_j of w^k = -A and one branch m of Lambert W (Corless,
Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996).  The branch
proof (_branch_zeros) walks the (j, m) a rectangle can hold and proves, in
closed form, that each value is the zero of its own (j, m) and lies inside
or outside; the number inside follows with no contour integral.  Where a
value is undecided (a z_j at the branch point -1/e or on the cut, a failed
polish, a value within about 1e-8 |l| of the edge) the rectangle gets one
winding count instead: count-then-polish run in reverse (Kravanja & Van
Barel, LNM 1727, 2000).  When the identity fails the disk search raises
SubdivisionStalledError.

A contour piece keeps its sum, its error estimate and its two halves once
computed, so a count retried at a tighter tolerance reuses every sum
already taken, and a rectangle side is one piece in canonical direction
(west to east, south to north), added or subtracted.

A certified record has exactly `multiplicity` zeros in the open disk
|l - value| < isolation_radius.  For a simple zero this is proven by an
O(k) Rouche disk test (f against its linear Taylor part, with the exact
second-order term and a closed-form bound on the rest; see
_kernels_py.rouche_isolates), which also proves each zero of a near-double
pair at its own isolation radius; otherwise, or when that test does not
succeed, by a winding count over the disk.
"""

import cmath
import math
from dataclasses import dataclass
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

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (Piessens, de
# Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983): the
# fifteen Kronrod nodes, and per node its (Kronrod, Gauss) weights, the Gauss
# weight 0 at the eight nodes the Kronrod extension adds.  The Kronrod sum is
# exact for polynomials of degree 22 and the Gauss sum for degree 13.
_GK_NODES = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848,
    0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
    0.8648644233597691, 0.9491079123427585, 0.9914553711208126,
)
_GK_WEIGHTS = (
    (0.022935322010529224, 0.0), (0.06309209262997856, 0.1294849661688697),
    (0.10479001032225019, 0.0), (0.14065325971552592, 0.27970539148927664),
    (0.1690047266392679, 0.0), (0.19035057806478542, 0.3818300505051189),
    (0.20443294007529889, 0.0), (0.20948214108472782, 0.4179591836734694),
    (0.20443294007529889, 0.0), (0.19035057806478542, 0.3818300505051189),
    (0.1690047266392679, 0.0), (0.14065325971552592, 0.27970539148927664),
    (0.10479001032225019, 0.0), (0.06309209262997856, 0.1294849661688697),
    (0.022935322010529224, 0.0),
)

#: quadrature tolerance of every certificate and cell count: the adaptive
#: bisection's error target for a whole contour (see _report)
QUADRATURE_TOLERANCE = 1e-6

#: scaled |f| below this on a contour triggers ZeroOnContourError
ZERO_ON_CONTOUR_MODULUS = 1e-8

#: adaptive bisection segment budget per winding computation
SEGMENT_BUDGET = 1 << 16

#: rectangle sides are bisected at exact midpoints until each piece is at
#: most 2 * BASE_SEGMENT_LENGTH long, and each piece is then bisected while
#: its Kronrod and Gauss sums disagree; circles are cut into arcs about
#: this long
BASE_SEGMENT_LENGTH = 2.0

#: a piece's error estimate |K15 - G7| below this is accepted regardless of
#: the local tolerance.  Near an off-contour zero the estimate plateaus
#: around 1e-8 x |f'/f|*len, so halving tolerances forever would only burn
#: budget; the Kronrod sum is far more accurate than the estimate, and the
#: floor keeps the total error far below the 0.1 integer margin.
ACCEPT_FLOOR = 1e-7

#: |e z + 1| below this puts z = -1/(k w_j) at the Lambert-W branch point
#: -1/e, where W_0 and its partner branch meet in a double zero; a float A =
#: -e^k/k^k lands ~1e-16 from it, and A = -e^k/k^k (1 + eps) lands ~eps/k
BRANCH_POINT_DISTANCE = 1e-12

#: the closed-form count isolates each Lambert-W value l in a Rouche disk of
#: radius BRANCH_DISK * max(1, |l|) (see _proven_side)
BRANCH_DISK = 1e-8

#: the root, branch and side tests of _proven_side run on the Rouche disk
#: widened by this factor, a margin of 1e-12 * max(1, |l|).  Their closed
#: forms lose a few ulps of |l| (about 1e-13 absolute in the reduced angle
#: Im l / k for |l| near 1e3), so the margin covers rounding by orders of
#: magnitude, as the Rouche test's 1% margin does, until one error model
#: bounds both
BRANCH_WIDENING = 1.0001

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

    segments_used counts the contour pieces the integral summed, each one
    15-node Gauss-Kronrod sum, whether evaluated in its last pass or reused
    from an earlier, looser one; SEGMENT_BUDGET bounds the same count.
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
    lines, angles for arcs).  Its Kronrod sum and error estimate |K15 - G7|
    are computed once, on first use, and kept, as are its two halves, so a
    pass at a tighter tolerance reuses them."""

    __slots__ = ("p0", "p1", "_sum", "err", "_mod", "_halves")

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
        """The Kronrod sum, counted as one segment of the contour being
        summed and checked against the zero-on-contour modulus, whether it
        is evaluated here or reused."""
        if self._mod is None:
            kronrod, gauss, self._mod = segment(self.p0, self.p1, _GK_NODES, _GK_WEIGHTS)
            self._sum = kronrod
            self.err = abs(kronrod - gauss)
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


def _adaptive(segment, piece, tol, budget, depth):
    """The piece's Kronrod sum, bisected while its error estimate is
    above tol."""
    value = piece.visit(segment, budget)
    if budget.segments > SEGMENT_BUDGET:
        raise QuadratureStalledError("segment budget exhausted")
    err = piece.err
    if err < tol or err < ACCEPT_FLOOR or depth >= MAX_BISECTION_DEPTH:
        return value
    left, right = piece.halves()
    half_tol = max(0.5 * tol, ACCEPT_FLOOR)
    return (_adaptive(segment, left, half_tol, budget, depth + 1)
            + _adaptive(segment, right, half_tol, budget, depth + 1))


def _presplit(piece):
    """The piece bisected at exact midpoints into pieces whose parameter
    spans at most 2 * BASE_SEGMENT_LENGTH."""
    if abs(piece.p1 - piece.p0) <= 2.0 * BASE_SEGMENT_LENGTH:
        return [piece]
    left, right = piece.halves()
    return _presplit(left) + _presplit(right)


def _rect_parts(rect):
    """(part, sign) for the counter-clockwise boundary of a rectangle: its
    four sides (south, east, north, west), each a piece in canonical
    direction (west to east, or south to north), added or subtracted."""
    sw, ne = rect.corner_min, rect.corner_max
    se, nw = complex(ne.real, sw.imag), complex(sw.real, ne.imag)
    return [(_Piece(sw, se), 1), (_Piece(se, ne), 1), (_Piece(nw, ne), -1),
            (_Piece(sw, nw), -1)]


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
    taken again, reusing every Gauss-Kronrod sum already computed.

    A contour of more than SEGMENT_BUDGET / 3 pieces is refused before any
    sum, so the budget leaves room to bisect every piece once: from the
    part lengths before any piece is built (a part L long needs at least
    L / (2 * BASE_SEGMENT_LENGTH) pieces), then from the exact count.
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
            s = _adaptive(segment, piece, tol / div, budget, 0)
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


def winding_count(qp, contour, quadrature_tolerance=QUADRATURE_TOLERANCE):
    """Number of zeros of f inside the contour, with multiplicity.

    Computes (1/2*pi*i) * integral of f'/f by adaptive Gauss quadrature and
    rounds to the nearest integer; the rounding distance must come out below
    0.1 (the tolerance is tightened and the computation retried otherwise).
    Raises ZeroOnContourError when the contour runs too close to a zero.
    """
    if quadrature_tolerance <= 0:
        raise DomainError("quadrature tolerance must be positive")
    # kernels bound at call time, so a rebinding of them (tracing) is seen
    if isinstance(contour, Rectangle):
        segment = partial(kernels.line_segment_logderiv, qp.k, qp.log_a)
        return _report(segment, _rect_parts(contour), quadrature_tolerance)
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


def _polish(qp, seed, cell, tolerance):
    """Newton from the seed; the zero it reaches must lie strictly inside
    the cell (xmin, xmax, ymin, ymax).  Labelled by disk_zero_index."""
    xmin, xmax, ymin, ymax = cell
    rec = zeros_mod.newton_refine(qp, seed, tolerance)
    v = rec.value
    if not (xmin < v.real < xmax and ymin < v.imag < ymax):
        raise EscapedBasinError("polished zero left its cell")
    nu = zeros_mod.disk_zero_index(qp, v)
    if nu == rec.nu:
        return rec
    # newton_refine's record is uncertified and simple: its last three
    # fields are the defaults
    return zeros_mod.ZeroRecord(nu, v, rec.residual, rec.seed, rec.iterations)


def _double_zero(qp, region, seed):
    """The double zero that Newton on f' reaches from the seed, or None.

    The critical point it converges to must lie inside the region (a Circle
    or Rectangle whose count of 2 the caller has read) and be a zero of f to
    relative residual below 1e-10.  Newton on f' takes the step f'/f'' in
    dominance-factored form (kernels.critical_step), so it holds beyond the
    direct range; it stops once the step is below 1e-14 * max(1, |l|) or no
    longer shrinks, where rounding has taken over.
    """
    lam = complex(seed)
    last = math.inf
    for _ in range(80):
        step = kernels.critical_step(qp.k, qp.log_a, lam)
        if step is None:
            return None
        size = abs(step)
        if size >= last:
            break
        lam -= step
        if size < 1e-14 * max(1.0, abs(lam)):
            break
        last = size
    else:
        return None
    if region.contains(lam) and core.relative_residual(qp, lam) < 1e-10:
        return lam
    return None


def _double_zero_record(qp, region, seed):
    """The record of the double zero _double_zero reads from the seed, or
    None."""
    c = _double_zero(qp, region, seed)
    if c is None:
        return None
    return zeros_mod.ZeroRecord(nu=None, value=c, residual=core.relative_residual(qp, c),
                                seed=c, iterations=0, multiplicity=2)


def _square(radius, attempt):
    """The disk search's bounding square (xmin, xmax, ymin, ymax), wider
    than the disk by radius * 1e-3 * (attempt + 1) on each side."""
    m = radius * 1e-3 * (attempt + 1)
    return (-radius - m, radius + m, -radius - m, radius + m)


def _outer_cell(qp, radius):
    """The disk search's bounding square, placed off the zero set, with its
    winding count: (cell, its ContourReport).  The fallback of the
    closed-form count.

    Only a zero on the square moves it; a QuadratureStalledError (a side
    over the segment budget, or an integral that will not settle) would
    recur on every wider square, so it propagates at once."""
    for attempt in range(9):
        cell = _square(radius, attempt)
        corners = (complex(cell[0], cell[2]), complex(cell[1], cell[2]),
                   complex(cell[1], cell[3]), complex(cell[0], cell[3]))
        if not all(_edge_clear(qp, corners[i], corners[(i + 1) % 4])
                   for i in range(4)):
            continue
        try:
            return cell, winding_count(qp, Rectangle(corners[0], corners[2]))
        except ZeroOnContourError:
            continue
    raise SubdivisionStalledError(
        "could not place the outer square off the zero set")


def _branch_of(w, eps):
    """The branch m of Lambert W whose range holds the whole disk
    |v - w| < eps, or None when a boundary of the ranges may cross it.

    The ranges are bounded by the curves x = x_c(y) = -y cot y on the
    strips |y| < pi and 2n pi < |y| < (2n + 1) pi, and by the half-line
    y = 0, x <= -1 that the curve on |y| < pi meets (Corless, Gonnet, Hare,
    Jeffrey & Knuth, Adv. Comput. Math. 5, 1996).  For y > 0 a point right
    of the curve on strip n has branch n; left of it, or in the curve-free
    strip above it, branch n + 1.  The lower half-plane is the mirror image
    with the sign of m flipped.  x_c is even and increases with |y| on each
    strip, so testing the disk's x-range against x_c at the two ends of its
    |y|-range clears it of the curve; a disk that reaches a strip's edge is
    refused.
    """
    x, y = w.real, w.imag
    lo, hi = abs(y) - eps, abs(y) + eps
    if lo <= 0.0:
        # across the real axis only branch 0's range holds the disk: right
        # of the curve on |y| < pi, which also clears the half-line
        if hi < math.pi and x - eps > -hi / math.tan(hi):
            return 0
        return None
    n = math.floor(lo / math.pi)
    if hi >= (n + 1) * math.pi:
        return None
    if n % 2:
        branch = (n + 1) // 2
    elif x - eps > -hi / math.tan(hi):
        branch = n // 2
    elif x + eps < -lo / math.tan(lo):
        branch = n // 2 + 1
    else:
        return None
    return branch if y > 0 else -branch


def _root_index_holds(k, log_a, lam, j, rho):
    """True when every l in the disk |l - lam| < rho has arg(e^(l/k) / l)
    within pi/k of arg w_j = (arg A + pi (2j + 1)) / k: a zero of f there
    then solves e^(l/k) = w_j l for this root w_j of w^k = -A, since the
    roots lie 2 pi / k apart in argument.  Over the disk Im l / k moves by
    less than rho / k and arg l by at most asin(rho / |lam|)."""
    r = abs(lam)
    if not rho < r:
        return False
    d = kernels.wrap_angle(lam.imag / k - cmath.phase(lam)
                           - (log_a.imag + math.pi * (2 * j + 1)) / k)
    return abs(d) + rho / k + math.asin(rho / r) < math.pi / k


def _disk_side(cell, lam, rho):
    """True when the disk |l - lam| < rho lies inside the open cell
    (xmin, xmax, ymin, ymax), False when it misses the closed cell, None
    when it reaches an edge."""
    xmin, xmax, ymin, ymax = cell
    x, y = lam.real, lam.imag
    if xmin < x - rho and x + rho < xmax and ymin < y - rho and y + rho < ymax:
        return True
    if x + rho < xmin or xmax < x - rho or y + rho < ymin or ymax < y - rho:
        return False
    return None


def _proven_side(qp, lam, j, m, cell):
    """Whether the zero -k W_m(z_j) lies in the cell, proven from a value
    lam near it: True inside, False outside, None when undecided.

    The Rouche test proves exactly one zero l* in |l - lam| < rho with
    rho = BRANCH_DISK * max(1, |lam|).  On that disk, widened by
    BRANCH_WIDENING against rounding, the root test names the j of l*
    (for k > 1), _branch_of names the branch of -l*/k, and the side test
    places l* in or out of the cell.  With the right j and m, l* is the
    (j, m) zero.
    """
    k = qp.k
    rho = BRANCH_DISK * max(1.0, abs(lam))
    if not kernels.rouche_isolates(k, qp.log_a, lam, rho):
        return None
    rho *= BRANCH_WIDENING
    if k > 1 and not _root_index_holds(k, qp.log_a, lam, j, rho):
        return None
    if _branch_of(-lam / k, rho / k) != m:
        return None
    return _disk_side(cell, lam, rho)


def _branch_zeros(qp, cell, tolerance=1e-12, prove=True):
    """The zeros of f inside the cell (xmin, xmax, ymin, ymax), listed by
    Lambert-W branch: (records, count).  With prove, count is their number,
    proven in closed form, or None once a branch value is undecided, where
    the walk stops; without, the whole list is built and count is None.
    With tolerance None nothing is polished: records is empty and the count
    is proven from the Lambert-W values themselves, which lie within about
    1e-15 |l| of their zeros, far inside the Rouche disk of _proven_side.

    Every zero solves e^(l/k) = w_j l for exactly one root w_j of
    w^k = -A, so it is l = -k W_m(z_j) with z_j = -1/(k w_j) for exactly
    one (j, m), and every (j, m) gives a zero.  For |m| >= 2,
    |Im W_m| > 2 (|m| - 1) pi, so a cell with |Im l| <= Y holds none with
    |m| > Y / (2 pi k) + 1; the rest are walked.  A value inside the cell
    is Newton-polished into a record labelled by disk_zero_index, and each
    value is placed in or out of the cell by _proven_side; the count is the
    number inside.  Undecided: z_j at the branch point -1/e
    (|e z_j + 1| < BRANCH_POINT_DISTANCE), where W_0 and its partner branch
    give one double zero, read by _double_zero; a polish that fails or
    leaves the cell (without prove, that value is dropped); a value on a
    branch boundary, as every W value of a z_j on the cut (real A < 0) is;
    and a disk reaching an edge.  A cell reaching so far from the real axis
    that each root would walk more than SEGMENT_BUDGET / 3 branches is not
    walked: ([], None).
    """
    k = qp.k
    xmin, xmax, ymin, ymax = cell
    top = int(max(-ymin, ymax) / (2.0 * math.pi * k)) + 1
    if 3 * (2 * top + 1) > SEGMENT_BUDGET:
        return [], None
    square = Rectangle(complex(xmin, ymin), complex(xmax, ymax))
    found = []
    count = 0
    for j in range(k):
        z = zeros_mod.lambert_argument(qp, j)
        # the two branches that meet at -1/e, when z_j is there
        branch_pair = ((0, -math.copysign(1.0, z.imag))
                       if abs(math.e * z + 1.0) < BRANCH_POINT_DISTANCE else ())
        if branch_pair and prove:
            return found, None
        for m in range(-top, top + 1):
            lam = -k * kernels.lambert_w(z, m)
            if m in branch_pair:
                if m == 0:
                    rec = _double_zero_record(qp, square, lam)
                    if rec is not None:
                        found.append(rec)
                continue
            if tolerance is not None and square.contains(lam):
                try:
                    rec = _polish(qp, lam, cell, tolerance)
                except (EscapedBasinError, MaxIterationsError,
                        DerivativeVanishesError):
                    if prove:
                        return found, None
                    continue
                found.append(rec)
                lam = rec.value
            if prove:
                side = _proven_side(qp, lam, j, m, cell)
                if side is None:
                    return found, None
                count += side
    return found, (count if prove else None)


def find_zeros_in_disk(qp, radius, tolerance=1e-12):
    """All zeros of f with |l| <= radius, each certified.

    The zeros inside a square a little wider than the disk are listed by
    their Lambert-W branches, polished by Newton and certified at their
    isolation radii (see _branch_zeros).  The list is proven complete in
    closed form when every branch value is placed in or out of the square;
    otherwise the square, placed off the zero set (_outer_cell), gets one
    winding count.  The multiplicities must add up to that count and every
    record must certify (the count identity, see _count_identity); when
    they do not, SubdivisionStalledError names the count, the listed
    multiplicity sum and the records that did not certify.  The winding
    count runs for a z_j at the branch point (a double zero), for real
    A < 0 (a z_j on the cut), after a failed polish, and when a zero lies
    within about 1e-8 |l| of the square's edge.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    found, count = _branch_zeros(qp, _square(radius, 0), tolerance)
    proof = "Lambert-W branch"
    if count is None:
        cell, report = _outer_cell(qp, radius)
        found = _branch_zeros(qp, cell, tolerance, prove=False)[0]
        count, proof = report.count, "winding"
    found.sort(key=zeros_mod.im_order)
    ok, records, failures = _count_identity(
        qp, count, found, zeros_mod.isolation_radii(found))
    if not ok:
        listed = sum(rec.multiplicity for rec in found)
        raise SubdivisionStalledError(
            f"the square's {proof} count is {count}, the listed "
            f"multiplicities add up to {listed}, and the uncertified records "
            f"are [{', '.join(f'{rec.value:.12g}' for rec in failures)}]")
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

    Every record must lie strictly inside.  Passes when the number of zeros
    inside the contour equals the sum of record multiplicities and every
    record individually certifies in its isolation disk.  For a Rectangle
    that number is proven in closed form by Lambert-W branch (see
    _branch_zeros, from the unpolished Lambert-W values); a Circle, and a
    Rectangle where that proof is undecided (a z_j at the branch point or
    on the cut, a zero within about 1e-8 |l| of an edge), takes the winding
    count.  Returns (ok, detail); detail["proof"] is "branch" or "winding",
    and only the winding count adds integer_distance and min_scaled_modulus.
    """
    for rec in records:
        if not contour.contains(rec.value):
            raise RecordOutsideContourError(
                f"record at {rec.value:.6g} lies outside the contour")
    count = None
    if isinstance(contour, Rectangle):
        lo, hi = contour.corner_min, contour.corner_max
        count = _branch_zeros(qp, (lo.real, hi.real, lo.imag, hi.imag), None)[1]
    proof = {"proof": "branch"}
    if count is None:
        report = winding_count(qp, contour)
        count = report.count
        proof = {"proof": "winding",
                 "integer_distance": report.integer_distance,
                 "min_scaled_modulus": report.min_scaled_modulus}
    ok, _checked, failures = _count_identity(
        qp, count, records, [rec.isolation_radius for rec in records])
    detail = {
        "contour_count": count,
        "expected_count": sum(rec.multiplicity for rec in records),
        "record_failures": [r.value for r in failures],
        **proof,
    }
    return ok, detail
