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
at the rounding floor means a zero on the contour.  For real A,
f(conj l) = conj f(l), so arg f changes along the lower half of a box
symmetric about the real axis as along its upper half: such a box tracks
its upper half only and doubles the turn.

The disk search and the completeness of an enumeration over a rectangle
rest on one count identity (_count_identity): the winding count equals the
sum of the multiplicities of the records inside, and every record
certifies at its isolation radius.  Every zero is l = -k W_m(z_j),
z_j = -1/(k w_j), for exactly one root w_j of w^k = -A and one branch m of
Lambert W (Corless, Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5,
1996), so walking the (j, m) a cell can hold and polishing each value as
the ladder does lists its zeros, as the ladder's columns (_branch_zeros).
One routine lists and certifies a box's zeros this way (_box_zeros), for
the disk search's square and the C_delta window alike.  The square's winding
count then checks the list (count-then-polish run in reverse; Kravanja &
Van Barel, LNM 1727, 2000); when the identity fails the disk search raises
SubdivisionStalledError.

A certified record has exactly `multiplicity` zeros in the open disk
|l - value| < isolation_radius.  For a simple zero this is proven by an
O(k) Rouche disk test (f against its linear Taylor part, with the exact
second-order term and a closed-form bound on the rest; see
_kernels_py.rouche_isolates), which also proves each zero of a near-double
pair at its own isolation radius; otherwise, or when that test does not
succeed, by a winding count over the disk.  One pass over columns decides
every certificate (_certify_columns), from one evaluation of f at each
value: made again for a stored record (certify_record), and taken from the
Newton polish for the ladder's and a box walk's zeros, whose double zeros
are rows too.  A polish that leaves its Newton basin is an error.
"""

import cmath
import math
from collections import namedtuple
from itertools import compress, repeat

from . import core, zeros as zeros_mod
from ._backend import kernels
from .errors import (
    DomainError,
    QuadratureStalledError,
    RecordOutsideContourError,
    SubdivisionStalledError,
    ZeroOnContourError,
)

#: tracking steps per winding count, and Lambert-W branches per root per
#: branch walk: the budget that also bounds the ladder's index range
STEP_BUDGET = zeros_mod.STEP_BUDGET

#: a box's branch walk also lists the zeros this near the box (_box_zeros)
WALK_PAD = 2.0

#: a record's value must have relative residual below this to certify
RESIDUAL_GATE = 1e-6

#: a moved square's edge is clear when |f| is above this at EDGE_POINTS + 1 points
EDGE_FLOOR = 1e-5
EDGE_POINTS = 33

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
    per side plus those where a side crosses the zero strip, a circle tens.
    For a real A, a box symmetric about the real axis is tracked over its
    upper half only (5 steps for the 41-zero box of criterion 02).
    """

    __slots__ = ()


def winding_count(qp, contour):
    """Number of zeros of f inside the contour, with multiplicity.

    Tracks arg f counter-clockwise around the contour in proven steps (a
    rectangle side by side, a circle as one arc) and divides the total
    change by 2 pi.  For a real A, a rectangle symmetric about the real
    axis is tracked over its upper half only, from (x1, 0) up, across and
    down to (x0, 0), and that turn doubled.  Raises ZeroOnContourError
    when the contour runs through or too near a zero, and
    QuadratureStalledError beyond STEP_BUDGET steps.
    """
    k, log_a = qp.k, qp.log_a
    turns = 1.0
    if isinstance(contour, Rectangle):
        (x0, y0), (x1, y1) = [(z.real, z.imag) for z in contour]
        if y0 == -y1 and qp.a.imag == 0:
            # the upper half, from the real axis and back to it
            path = (complex(x1, 0.0), complex(x1, y1), complex(x0, y1), complex(x0, 0.0))
            turns = 2.0
        else:
            path = (contour.corner_min, complex(x1, y0), contour.corner_max, complex(x0, y1),
                    contour.corner_min)
        pieces = [(kernels.line_segment_logderiv, (k, log_a, z0, z1))
                  for z0, z1 in zip(path, path[1:])]
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
    return ContourReport(count=round(turns * total / (2.0 * math.pi)), min_scaled_modulus=minmod,
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
    multiplicity 2).  The decision is _certify_columns', as for the zeros
    the ladder and the disk search polish (certify_polished, _box_zeros).
    """
    r = radius if radius is not None else record.isolation_radius
    return _certify_records(qp, (record,), (r,))[0]


def _certify_records(qp, records, radii):
    """certify_record for each record at its radius (None: 1.0), in one
    _certify_columns pass: the residual gate and the cofactor are computed
    again at each value whose radius leaves room, and each record keeps its
    stored residual."""
    k, log_a = qp.k, qp.log_a
    radii = [1.0 if r is None else r for r in radii]
    values = [complex(rec.value) for rec in records]
    # a duplicate record's isolation radius leaves no room to prove; and the
    # value itself must be a zero, since the disk count alone would also pass
    # for a stale value whose disk still holds the true zero
    gates = [kernels.residual_cofactor(k, log_a, value) if r > 0 else (math.inf, None)
             for value, r in zip(values, radii)]
    nus, _values, residuals, seeds, iterations, _certified, _radii, multiplicities = (
        list(zip(*records)) or [()] * 8)
    return _certify_columns(
        qp, (nus, values, residuals, seeds, iterations,
             [cofactor for _residual, cofactor in gates], multiplicities),
        [residual for residual, _cofactor in gates], radii)


def certify_polished(qp, columns, radii):
    """The records of simple zeros, given as the columns (nus, values,
    residuals, seeds, iterations, cofactors) of their polish, each certified
    as certify_record would certify it at its radius, from the residual and
    cofactor (expdom, t) the polish computed at its value (_certify_columns):
    no further evaluation of f unless a winding count decides."""
    return _certify_columns(qp, (*columns, repeat(1)), columns[2], radii)


def _certify_columns(qp, columns, gates, radii):
    """The records of the zeros given as the columns (nus, values,
    residuals, seeds, iterations, cofactors, multiplicities), each certified
    at its radius: the one place a certificate is decided.  A zero whose
    radius leaves room and whose gate residual is below RESIDUAL_GATE is
    tried, if simple, by one Rouche list from its cofactor (expdom, t), and
    otherwise, or where Rouche fails, by a winding count.  Builds each
    ZeroRecord once, from its row."""
    nus, values, residuals, seeds, iterations, cofactors, multiplicities = columns
    # the Rouche list reads a radius of 0 as not proven before any arithmetic
    tested = [r if m == 1 and r > 0 and not g >= RESIDUAL_GATE else 0.0
              for g, r, m in zip(gates, radii, multiplicities)]
    holds = kernels.rouche_holds_list(qp.k, values, cofactors, tested)
    make = zeros_mod.ZeroRecord._make
    # a count decides where Rouche was tried and failed, and for a zero
    # that passes the gate but is not simple
    return [_winding_certificate(qp, row, row[6])
            if not row[5] and (t or row[7] != 1 and row[6] > 0 and not g >= RESIDUAL_GATE)
            else make(row)
            for t, g, row in zip(tested, gates, zip(nus, values, residuals, seeds, iterations,
                                                     holds, radii, multiplicities))]


def join_disk(qp, ladder, disk, nus, certify=True):
    """The ladder's records plus the disk search's zeros whose index the
    ladder did not walk (not in its index range nus, or none), in that order.
    The disk search labels a zero as the ladder does, so two records on one
    zero raise DuplicateZeroError (zeros._check_duplicates).  With certify,
    each record is certified again (certify_record) at its isolation radius
    in the joined list where that is below the radius it holds: a zero of
    the other list nearer than its own list's neighbors shrinks its
    isolation disk, and a disk that held both zeros could not certify."""
    joined = ladder + [rec for rec in disk if rec.nu is None or rec.nu not in nus]
    labels, values = [rec.nu for rec in joined], [rec.value for rec in joined]
    if not certify:
        zeros_mod._check_duplicates(labels, values)
        return joined
    radii = zeros_mod._distinct_isolation_radii(labels, values)
    shrunk = [r < rec.isolation_radius for rec, r in zip(joined, radii)]
    certified = iter(_certify_records(qp, list(compress(joined, shrunk)),
                                      list(compress(radii, shrunk))))
    return [next(certified) if s else rec for rec, s in zip(joined, shrunk)]


def _winding_certificate(qp, row, r):
    """_certify_columns' winding-count path for a row of a record's fields,
    starting at radius r."""
    nu, value, residual, seed, iterations, _certified, _radius, mult = row
    for _ in range(4):
        disk = Circle(complex(value), r)
        try:
            report = winding_count(qp, disk)
        except ZeroOnContourError:
            r *= 0.5
            continue
        if report.count == mult:
            return zeros_mod.ZeroRecord(nu, value, residual, seed, iterations, True, r, mult)
        if report.count == 2 and mult == 1:
            c = _double_zero(qp, disk, value)
            if c is not None:
                return zeros_mod.ZeroRecord(nu, c, core.relative_residual(qp, c), seed,
                                            iterations, True, r, 2)
        r *= 0.5
    return zeros_mod.ZeroRecord(nu, value, residual, seed, iterations, False, r, mult)


def _edge_clear(qp, z0, z1):
    """Cheap pre-check that a proposed cell edge stays away from zeros: the
    relative residual is at least EDGE_FLOOR at EDGE_POINTS + 1 even steps."""
    for j in range(EDGE_POINTS + 1):
        z = z0 + (z1 - z0) * (j / EDGE_POINTS)
        if core.relative_residual(qp, z) < EDGE_FLOOR:
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
    zeros listed and certified (_box_zeros) and its winding count, as
    (listed, records, count).

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
        listed, records = _box_zeros(qp, Rectangle(sw, ne), tolerance)
        try:
            return listed, records, winding_count(qp, Rectangle(sw, ne)).count
        except ZeroOnContourError:
            continue
    raise SubdivisionStalledError(
        "could not place the outer square off the zero set")


def _walk_height(k):
    """The |Im l| from which a branch walk takes over STEP_BUDGET branches per root."""
    return 2.0 * math.pi * k * ((STEP_BUDGET - 1) // 2)


def _box_zeros(qp, box, tolerance):
    """The zeros of f inside the Rectangle box in im_order, as listed
    (values, multiplicities) and as certified: (listed, records).  One walk
    (_branch_zeros) lists the box widened by WALK_PAD, and the isolation
    radii min(1, d/2) over all it lists are the whole zero set's.  The
    zeros inside, double zeros among them, are certified in one
    _certify_columns call, gated on the residuals of their polish."""
    (x0, y0), (x1, y1) = [(z.real, z.imag) for z in box]
    columns = _branch_zeros(
        qp, (x0 - WALK_PAD, x1 + WALK_PAD, y0 - WALK_PAD, y1 + WALK_PAD), tolerance)
    values = columns[1]
    radii = zeros_mod.isolation_radii(values)
    inside = sorted((i for i, lam in enumerate(values) if box.contains(lam)),
                    key=lambda i: zeros_mod.im_order(values[i]))
    picked = [list(map(col.__getitem__, inside)) for col in columns]
    records = _certify_columns(qp, picked, picked[2], list(map(radii.__getitem__, inside)))
    return (picked[1], picked[6]), records


def _branch_zeros(qp, cell, tolerance=1e-12):
    """The zeros of f inside the cell (xmin, xmax, ymin, ymax), listed by
    Lambert-W branch, before their certificates: the columns (nus, values,
    residuals, seeds, iterations, cofactors, multiplicities), the double
    zeros' rows first.

    Every zero solves e^(l/k) = w_j l for exactly one root w_j of
    w^k = -A, so it is l = -k W_m(z_j) with z_j = -1/(k w_j) for exactly
    one (j, m), and every (j, m) gives a zero.  For |m| >= 2,
    |Im W_m| > 2 (|m| - 1) pi, so a cell with |Im l| <= Y holds none with
    |m| > Y / (2 pi k) + 1; the rest are walked, each root's branches in
    one kernels.lambert_w_list call, and the values inside the cell, in
    (j, m) order, are polished in one list (zeros._newton_polish) and
    index-checked by zeros._check_indices, as the ladder does.  For real
    A > 0 and a cell symmetric about the real axis only one branch of each
    conjugate pair (j, m), (k - 1 - j, -m) is walked and polished (the
    roots with 2j + 1 <= k, and the branches m <= 0 of a root that is its
    own partner), and the other is listed as its conjugate
    (zeros._mirror), index-checked too.  A polish that leaves the cell
    drops its value, whose zero then lies across the edge; one that fails,
    by leaving its basin or otherwise, raises its error again, of its type,
    naming the zero's index as the ladder does, or its (j, m) where no index
    names it.  At a z_j at the branch point -1/e (|e z_j + 1| <
    BRANCH_POINT_DISTANCE) W_0 and its partner branch give one double zero,
    read by _double_zero into a row labelled by the partner, with no
    cofactor and multiplicity 2.  A cell reaching _walk_height(k), where
    each root would walk more than STEP_BUDGET branches, raises
    QuadratureStalledError before any is walked.
    """
    k = qp.k
    xmin, xmax, ymin, ymax = cell
    height = max(-ymin, ymax)
    if not height < _walk_height(k):
        raise QuadratureStalledError(f"step budget exhausted: the branch walk takes more "
                                     f"than {STEP_BUDGET} branches per root")
    top = int(height / (2.0 * math.pi * k)) + 1
    square = Rectangle(complex(xmin, ymin), complex(xmax, ymax))
    # a cell symmetric about the real axis holds the conjugate of each of
    # its zeros, which for real A > 0 is another branch's (zeros._partner)
    mirror = ymin == -ymax and zeros_mod._partner(qp, 0) is not None
    found = ([], [], [], [], [], [], [])
    branches = []
    nus = []
    seeds = []
    partners = []
    for j in range(k):
        conj = zeros_mod._partner(qp, j) if mirror else None
        if conj is not None and conj[0] < j:
            continue
        # a root that is its own partner gives the conjugates of its
        # branches m < 0 on the branches -m
        ms = range(-top, 1 if conj is not None and conj[0] == j else top + 1)
        z, logz = zeros_mod._lambert_root(qp, j)
        # the branch that meets W_0 at -1/e, when z_j is there
        double = (int(-math.copysign(1.0, z.imag))
                  if abs(math.e * z + 1.0) < BRANCH_POINT_DISTANCE else None)
        for m, w in zip(ms, kernels.lambert_w_list(z, ms, logz)):
            if m == double:
                continue
            lam = -k * w
            if m == 0 and double is not None:
                c = _double_zero(qp, square, lam)
                if c is not None:
                    for col, field in zip(found, (zeros_mod._branch_nu(qp, j, double), c,
                                                  core.relative_residual(qp, c), c, 0, None, 2)):
                        col.append(field)
            elif square.contains(lam):
                branches.append((j, m))
                nus.append(zeros_mod._branch_nu(qp, j, m))
                seeds.append(lam)
                pair = zeros_mod._partner(qp, j, m) if mirror else None
                partners.append(None if pair == (j, m) else pair)
    values, residuals, iterations, cofactors, failure = zeros_mod._newton_polish(
        qp, seeds, tolerance)
    n = len(values)
    walked = (nus[:n], values, residuals, seeds[:n], iterations, cofactors)
    picks = [i for i in range(n) if partners[i] is not None]
    if picks:
        zeros_mod._mirror(walked, n, picks, [zeros_mod._branch_nu(qp, *partners[i])
                                             for i in picks])
    zeros_mod._check_indices(qp, walked[0], values)
    if failure is not None:
        name = f"nu = {nus[n]}" if nus[n] is not None else f"(j, m) = {branches[n]}"
        raise type(failure)(f"refinement failed for {name}: {failure}") from failure
    inside = [square.contains(lam) for lam in values]
    for col, new in zip(found, (*walked, repeat(1))):
        col += compress(new, inside)
    return found


def find_zeros_in_disk(qp, radius, tolerance=1e-12):
    """All zeros of f with |l| <= radius, each certified.

    The zeros inside a square a little wider than the disk are listed by
    Lambert-W branch, polished, labelled as the ladder does and certified
    at their isolation radii (_box_zeros), and the square, placed off the
    zero set (_outer_cell), gets one winding count.  The multiplicities
    must add up to that count and every record must certify (the count
    identity, see _count_identity); when they do not,
    SubdivisionStalledError names the count, the listed multiplicity sum
    and the records that did not certify.
    """
    if not 0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    listed, records, count = _outer_cell(qp, radius, tolerance)
    ok, failures = _count_identity(count, *listed, records)
    if not ok:
        raise SubdivisionStalledError(
            f"the square's count is {count}, the listed multiplicities add up to "
            f"{sum(listed[1])}, and the uncertified records "
            f"are [{', '.join(f'{z:.12g}' for z in failures)}]")
    return [rec for rec in records if abs(rec.value) <= radius]


def _count_identity(count, values, multiplicities, checked):
    """The count identity: a contour's winding count equals the sum of the
    multiplicities of the zeros listed inside it, and every zero certifies,
    with its own multiplicity, at its radius (checked: the records as
    certified).  Certified disks at isolation radii are disjoint, so the
    identity proves the list is all the zeros inside (Kravanja & Van Barel,
    LNM 1727, 2000).  Returns (whether it holds, the values that fail)."""
    failures = [z for z, m, c in zip(values, multiplicities, checked)
                if not c.certified or c.multiplicity != m]
    return count == sum(multiplicities) and not failures, failures


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
    checked = _certify_records(qp, records, [rec.isolation_radius for rec in records])
    multiplicities = [rec.multiplicity for rec in records]
    ok, failures = _count_identity(count, [rec.value for rec in records], multiplicities, checked)
    detail = {
        "contour_count": count,
        "expected_count": sum(multiplicities),
        "record_failures": failures,
    }
    return ok, detail
