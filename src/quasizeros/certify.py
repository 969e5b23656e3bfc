"""Certification: per-record isolation certificates, winding counts,
exhaustive zero search in a disk, and completeness checks.

A winding count tracks the argument of f around the contour in proven
steps (_kernels_py.line_segment_logderiv and arc_segment_logderiv): on
each step f = D (1 + t) with 1 + t kept away from zero by a closed bound,
so the change of arg f along the step is the exact change of arg D plus a
principal phase, and the count is the total over 2 pi with no tolerance
and no retry (Ying & Katz, Numer. Math. 53, 1988; Johnson & Tucker, J.
Comput. Appl. Math. 228, 2009).  On a rectangle's side away from the zero
strip the bound holds on the step's path, from Re w at its two ends, so
such a side takes a few steps whatever its length; near the strip, and on
a circle's arc, it holds on a disk around the step's start, and steps are
short only near zeros.  A step from a point where the scaled |f| is down
at the rounding floor means a zero on the contour.

The disk search and the completeness of an enumeration over a rectangle
rest on one count identity (_count_identity): the winding count equals the
sum of the multiplicities of the records inside, and every record
certifies at its isolation radius.  The disk search lists its zeros by
Lambert-W branch: every zero is l = -k W_m(z_j), z_j = -1/(k w_j), for
exactly one root w_j of w^k = -A and one branch m of Lambert W (Corless,
Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996), so walking the
(j, m) a square can hold and polishing each value lists its zeros; the
square's winding count then checks the list (count-then-polish run in
reverse; Kravanja & Van Barel, LNM 1727, 2000), polished and labelled by
the ladder's own zeros._branch_zero.  When the identity fails the disk
search raises SubdivisionStalledError.

A certified record has exactly `multiplicity` zeros in the open disk
|l - value| < isolation_radius.  For a simple zero this is proven by an
O(k) Rouche disk test (f against its linear Taylor part, with the exact
second-order term and a closed-form bound on the rest; see
_kernels_py.rouche_isolates), which also proves each zero of a near-double
pair at its own isolation radius; otherwise, or when that test does not
succeed, by a winding count over the disk.  certify_record evaluates f once
at the record's value for both the residual gate and the Rouche test; the
simple zeros the ladder and the disk search polish take that evaluation
from their Newton polish (certify_polished).
"""

import cmath
import math
from collections import namedtuple

from . import core, zeros as zeros_mod
from ._backend import kernels
from .errors import (
    DomainError,
    EscapedBasinError,
    QuadratureStalledError,
    RecordOutsideContourError,
    SubdivisionStalledError,
    ZeroOnContourError,
)

#: tracking steps per winding count, and Lambert-W branches per root per
#: disk-search walk
STEP_BUDGET = 1 << 16

#: a record's value must have relative residual below this to certify
RESIDUAL_GATE = 1e-6

#: |e z + 1| below this puts z = -1/(k w_j) at the Lambert-W branch point
#: -1/e, where W_0 and its partner branch meet in a double zero; a float A =
#: -e^k/k^k lands ~1e-16 from it, and A = -e^k/k^k (1 + eps) lands ~eps/k
BRANCH_POINT_DISTANCE = 1e-12


class Circle(namedtuple("Circle", "center radius")):
    __slots__ = ()

    def __new__(cls, center, radius):
        if not (cmath.isfinite(center) and 0 < radius < math.inf):
            raise DomainError("circle needs a finite center and a positive "
                              "finite radius")
        return super().__new__(cls, center, radius)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def contains(self, point):
        return abs(complex(point) - self.center) < self.radius


class Rectangle(namedtuple("Rectangle", "corner_min corner_max")):
    """Axis-aligned rectangle given by two opposite corners (CCW oriented)."""

    __slots__ = ()

    def __new__(cls, corner_min, corner_max):
        if not (cmath.isfinite(corner_min) and cmath.isfinite(corner_max)):
            raise DomainError("rectangle corners must be finite")
        if not (corner_max.real > corner_min.real
                and corner_max.imag > corner_min.imag):
            raise DomainError("rectangle must have positive width and height")
        if not cmath.isfinite(corner_max - corner_min):
            raise DomainError("rectangle width and height must be finite")
        return super().__new__(cls, corner_min, corner_max)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def contains(self, point):
        p = complex(point)
        return (self.corner_min.real < p.real < self.corner_max.real
                and self.corner_min.imag < p.imag < self.corner_max.imag)


class ContourReport(namedtuple("ContourReport", "count min_scaled_modulus segments_used")):
    """Result of one winding count.

    count is the number of zeros inside, with multiplicity;
    min_scaled_modulus is the smallest |1 + t| reached at a step's start (f
    over its dominant term; near the origin, |f| over max(|e^l|, |A l^k|)),
    so it reads only the points where steps start; segments_used is the
    number of tracking steps, at most STEP_BUDGET: a rectangle takes a few
    per side plus those where a side crosses the zero strip (8 for the
    41-zero box of criterion 02), a circle tens.
    """

    __slots__ = ()


def winding_count(qp, contour):
    """Number of zeros of f inside the contour, with multiplicity.

    Tracks arg f counter-clockwise around the contour in proven steps (a
    rectangle side by side, a circle as one arc) and divides the total
    change by 2 pi.  Raises ZeroOnContourError when the contour runs
    through or too near a zero, and QuadratureStalledError beyond
    STEP_BUDGET steps.
    """
    k, log_a = qp.k, qp.log_a
    if isinstance(contour, Rectangle):
        sw, ne = contour.corner_min, contour.corner_max
        corners = (sw, complex(ne.real, sw.imag), ne, complex(sw.real, ne.imag))
        pieces = [(kernels.line_segment_logderiv, (k, log_a, corners[i], corners[(i + 1) % 4]))
                  for i in range(4)]
    elif isinstance(contour, Circle):
        pieces = [(kernels.arc_segment_logderiv,
                   (k, log_a, contour.center, contour.radius, 0.0, 2.0 * math.pi))]
    else:
        raise DomainError(f"unsupported contour type {type(contour).__name__}")
    total = 0.0
    steps = 0
    minmod = math.inf
    for kernel, args in pieces:
        turn, used, mod = kernel(*args, STEP_BUDGET - steps)
        total += turn
        steps += used
        minmod = min(minmod, mod)
    return ContourReport(count=round(total / (2.0 * math.pi)), min_scaled_modulus=minmod,
                         segments_used=steps)


def certify_record(qp, record, radius=None):
    """Certify a zero record: prove that exactly record.multiplicity zeros
    lie in the open disk |l - value| < isolation_radius.

    The value must first have relative residual below RESIDUAL_GATE,
    recomputed here at record.value whatever the record stores, so a stale
    or tampered record is refused.  A simple zero is then tried with the
    closed-form Rouche disk test at the given radius, from the same
    evaluation of f; when that test does not prove the claim (or the record
    is not simple) a winding count over the disk decides.  The
    winding-count path shrinks the disk (up to three times) when the count
    exceeds the record's multiplicity because of a close neighbor.  A count
    of 2 around a multiplicity-1 record is re-read as a double zero when the
    critical point of f polishes to a genuine zero inside the disk; the
    record is then upgraded (value moved to the critical point,
    multiplicity 2).  The ladder and the disk search certify their simple
    zeros with certify_polished, which takes that evaluation from the polish.
    """
    r = radius if radius is not None else record.isolation_radius
    if r is None:
        r = 1.0
    if not r > 0:  # a duplicate record's isolation radius: no room to prove
        return _certificate(record, False, r)
    # the value itself must be a zero; the disk count alone would also pass
    # for a stale value whose disk still happens to contain the true zero
    value = complex(record.value)
    residual, cofactor = kernels.residual_cofactor(qp.k, qp.log_a, value)
    proven = _proven(qp, value, residual, cofactor, record.multiplicity, r)
    if proven is None:
        return _winding_certificate(qp, record, r)
    return _certificate(record, proven, r)


def certify_polished(qp, nu, value, residual, seed, iterations, cofactor, radius):
    """The record of a simple zero, certified as certify_record would certify
    it, from the residual and cofactor (expdom, t) that the polish computed
    at value (kernels.newton_polish): no further evaluation of f unless
    Rouche fails and a winding count decides.  Builds one ZeroRecord."""
    proven = _proven(qp, value, residual, cofactor, 1, radius)
    if proven is None:
        return _winding_certificate(
            qp, zeros_mod.ZeroRecord(nu, value, residual, seed, iterations), radius)
    return zeros_mod.ZeroRecord(nu, value, residual, seed, iterations, proven, radius)


def certify_joined(qp, records):
    """A joined list of certified records (a ladder's and a disk search's),
    each certified again (certify_record) at its isolation radius in the
    joined list where that is below the radius it holds: a zero of the other
    list nearer than its own list's neighbors shrinks its isolation disk,
    and a disk that held both zeros could not certify."""
    return [certify_record(qp, rec, r) if r < rec.isolation_radius else rec
            for rec, r in zip(records, zeros_mod.isolation_radii(records))]


def join_disk(qp, ladder, disk, on_ladder, certify=True):
    """The ladder's records plus the disk search's zeros whose index the
    ladder did not walk (on_ladder(nu) false, or no index), in that order.
    The disk search labels a zero as the ladder does, so two records on one
    zero raise DuplicateZeroError; with certify, the joined list is
    certified again (certify_joined)."""
    joined = ladder + [rec for rec in disk if rec.nu is None or not on_ladder(rec.nu)]
    zeros_mod._check_duplicates(joined)
    return certify_joined(qp, joined) if certify else joined


def _proven(qp, value, residual, cofactor, multiplicity, r):
    """A certificate settled without a winding count: False when the radius
    leaves no room or the residual at value fails RESIDUAL_GATE, True when
    the Rouche test (kernels.rouche_holds, from the cofactor at value)
    proves a simple zero, None when a winding count decides."""
    if not r > 0 or residual >= RESIDUAL_GATE:
        return False
    if multiplicity == 1 and kernels.rouche_holds(qp.k, value, *cofactor, r):
        return True
    return None


def _certificate(record, certified, radius):
    """The record with its certificate fields set.  Built directly: this is
    about twice as fast as record._replace, and it runs once per record."""
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


def _square(radius, attempt):
    """The disk search's bounding square (xmin, xmax, ymin, ymax), wider
    than the disk by radius * 1e-3 * (attempt + 1) on each side."""
    m = radius * 1e-3 * (attempt + 1)
    return (-radius - m, radius + m, -radius - m, radius + m)


def _outer_cell(qp, radius, tolerance):
    """The disk search's bounding square, placed off the zero set: its
    zeros listed by Lambert-W branch and polished to the tolerance, and its
    winding count, as (records, count).

    Only a zero on the square moves it.  A moved square is first checked
    for edges clear of the zero set (_edge_clear), which the first square,
    nearly always clear, is spared."""
    for attempt in range(9):
        cell = _square(radius, attempt)
        sw, ne = complex(cell[0], cell[2]), complex(cell[1], cell[3])
        if attempt:
            corners = (sw, complex(ne.real, sw.imag), ne, complex(sw.real, ne.imag))
            if not all(_edge_clear(qp, corners[i], corners[(i + 1) % 4]) for i in range(4)):
                continue
        found = _branch_zeros(qp, cell, tolerance)
        try:
            return found, winding_count(qp, Rectangle(sw, ne)).count
        except ZeroOnContourError:
            continue
    raise SubdivisionStalledError(
        "could not place the outer square off the zero set")


def _branch_zeros(qp, cell, tolerance=1e-12):
    """The zeros of f inside the cell (xmin, xmax, ymin, ymax), listed by
    Lambert-W branch, before their certificates.

    Every zero solves e^(l/k) = w_j l for exactly one root w_j of
    w^k = -A, so it is l = -k W_m(z_j) with z_j = -1/(k w_j) for exactly
    one (j, m), and every (j, m) gives a zero.  For |m| >= 2,
    |Im W_m| > 2 (|m| - 1) pi, so a cell with |Im l| <= Y holds none with
    |m| > Y / (2 pi k) + 1; the rest are walked, and a value inside the cell
    is polished and labelled by zeros._branch_zero, as the ladder does.  A
    polish that leaves the cell drops its value, whose zero then lies across
    the edge; one that fails raises its error.  At a z_j at the branch point
    -1/e (|e z_j + 1| < BRANCH_POINT_DISTANCE) W_0 and its partner branch
    give one double zero, read by _double_zero into a ZeroRecord labelled by
    the partner.  A cell reaching so far from the real axis that each root
    would walk more than STEP_BUDGET branches raises QuadratureStalledError
    before any is walked.
    """
    k = qp.k
    xmin, xmax, ymin, ymax = cell
    top = int(max(-ymin, ymax) / (2.0 * math.pi * k)) + 1
    if 2 * top + 1 > STEP_BUDGET:
        raise QuadratureStalledError(
            f"step budget exhausted: the branch walk takes {2 * top + 1} branches per root")
    square = Rectangle(complex(xmin, ymin), complex(xmax, ymax))
    found = []
    for j in range(k):
        z, logz = zeros_mod._lambert_root(qp, j)
        # the branch that meets W_0 at -1/e, when z_j is there
        partner = (int(-math.copysign(1.0, z.imag))
                   if abs(math.e * z + 1.0) < BRANCH_POINT_DISTANCE else None)
        for m in range(-top, top + 1):
            if m == partner:
                continue
            lam = -k * kernels.lambert_w(z, m, logz)
            if m == 0 and partner is not None:
                c = _double_zero(qp, square, lam)
                if c is not None:
                    found.append(zeros_mod.ZeroRecord(
                        zeros_mod._branch_nu(qp, j, partner), c,
                        core.relative_residual(qp, c), c, 0, multiplicity=2))
            elif square.contains(lam):
                try:
                    polished = zeros_mod._branch_zero(qp, j, m, lam, tolerance)
                except EscapedBasinError:
                    continue
                if square.contains(polished.value):
                    found.append(polished)
    return found


def find_zeros_in_disk(qp, radius, tolerance=1e-12):
    """All zeros of f with |l| <= radius, each certified.

    The zeros inside a square a little wider than the disk are listed by
    their Lambert-W branches, polished and labelled as the ladder does (see
    _branch_zeros) and certified at their isolation radii, and the square,
    placed off the zero set (_outer_cell), gets one winding count.  The
    multiplicities must add up to that count and every record must certify
    (the count identity, see _count_identity); when they do not,
    SubdivisionStalledError names the count, the listed multiplicity sum
    and the records that did not certify.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    found, count = _outer_cell(qp, radius, tolerance)
    found.sort(key=zeros_mod.im_order)
    # a simple zero certifies from its polish; the double zero at the
    # branch point by certify_record's winding count
    records = [certify_polished(qp, *rec, r) if isinstance(rec, zeros_mod._Polished)
               else certify_record(qp, rec, r)
               for rec, r in zip(found, zeros_mod.isolation_radii(found))]
    ok, failures = _count_identity(count, found, records)
    if not ok:
        listed = sum(rec.multiplicity for rec in found)
        raise SubdivisionStalledError(
            f"the square's count is {count}, the listed "
            f"multiplicities add up to {listed}, and the uncertified records "
            f"are [{', '.join(f'{rec.value:.12g}' for rec in failures)}]")
    return [rec for rec in records if abs(rec.value) <= radius]


def _count_identity(count, records, checked):
    """The count identity: a contour's winding count equals the sum of the
    multiplicities of the records inside it, and every record certifies, with
    its own multiplicity, at its radius (checked: the records as certified).
    Certified disks at isolation radii are disjoint, so the identity proves
    the records are all the zeros inside (Kravanja & Van Barel, LNM 1727,
    2000).  Returns (whether it holds, the records that did not certify)."""
    failures = [rec for rec, c in zip(records, checked)
                if not c.certified or c.multiplicity != rec.multiplicity]
    return count == sum(rec.multiplicity for rec in records) and not failures, failures


def certify_completeness(qp, contour, records):
    """Check that records are exactly the zeros of f inside the contour.

    Every record must lie strictly inside.  Passes when the contour's
    winding count equals the sum of record multiplicities and every record
    individually certifies in its isolation disk.  Returns (ok, detail):
    the count, the multiplicity sum and the values of the records that did
    not certify.
    """
    for rec in records:
        if not contour.contains(rec.value):
            raise RecordOutsideContourError(
                f"record at {rec.value:.6g} lies outside the contour")
    count = winding_count(qp, contour).count
    checked = [certify_record(qp, rec, rec.isolation_radius) for rec in records]
    ok, failures = _count_identity(count, records, checked)
    detail = {
        "contour_count": count,
        "expected_count": sum(rec.multiplicity for rec in records),
        "record_failures": [r.value for r in failures],
    }
    return ok, detail
