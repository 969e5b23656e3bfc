"""The indexed zero family of f(l) = e^l + A*l^k.

Large zeros sit on the branch ladder
    l_nu ~ [ln|A| + k ln(2*pi*|nu|)] + i*[2*pi*nu + pi + sign(nu)*k*pi/2 + arg A],
one per nonzero integer nu, with consecutive gaps approaching 2*pi.  Every
zero is l = -k W_m(z_j), z_j = -1/(k w_j), for exactly one root w_j of
w^k = -A and one branch m of Lambert W (Corless, Gonnet, Hare, Jeffrey &
Knuth, Adv. Comput. Math. 5, 1996).  Index nu names j = nu mod k and
m = (j - nu)/k - [nu > 0]; the k + 1 pairs no index names, (j, 0) for each
j and (0, -1), are unlabelled.  The ladder and the disk search in the
certify module pass their zeros from the polish to the certificate as
columns, one list per field: nus, values, residuals, seeds, iterations and
the cofactors (expdom, t) at the values.  kernels.newton_polish_list
Newton-polishes the W values of a list of pairs (quadratic near simple
zeros), _check_indices checks each named zero against the fixed-point
equation Im l = 2*pi*nu + pi + arg A + k Arg l, and the isolation radii,
the residual gate and the Rouche test read the same columns.  Each stage
runs once per list, and each ZeroRecord is built once, from its row of the
columns.  For real A > 0 the zeros come in conjugate pairs (_partner), and
both searches polish one zero of each pair and take the other as its exact
conjugate (_mirror).
asymptotic_zero (the ladder formula above), fixed_point_refine (the
branch-anchored fixed-point iteration), newton_refine and branch_index are
standalone references; the package paths call none of them.
"""

import cmath
import math
from collections import namedtuple
from itertools import count, repeat

from . import core
from ._backend import kernels
from .errors import (
    DomainError,
    DuplicateZeroError,
    InvalidIndexError,
    NotConvergedError,
    TooFewRecordsError,
)

TWO_PI = 2.0 * math.pi

#: Newton steps the ladder allows each zero (newton_refine's default)
NEWTON_ITERATIONS = 60

#: Lambert-W branches per root that one ladder or one branch walk takes, and
#: tracking steps per winding count (certify.STEP_BUDGET is this budget)
STEP_BUDGET = 1 << 16

#: refined values closer than this times min(1, |l|) collapse onto one zero
DUPLICATE_DISTANCE = 1e-6

#: Newton iterates farther than this from the seed abandon the branch; kept
#: below half the ladder spacing so an escape cannot silently land on a
#: neighboring branch's zero.
ESCAPE_RADIUS = 3.0

#: past its iteration budget, fixed_point_refine continues only while each
#: step is at most this factor times the previous one.  The steps then decay
#: geometrically, so the tolerance is reached in a bounded number of further
#: steps (~230 per decade at worst).
FIXED_POINT_CONTRACTION = 0.99

#: |Im l| at or below this times |l| counts as the real axis
REAL_AXIS_NOISE = 1e-9


class ZeroRecord(namedtuple("ZeroRecord", "nu value residual seed iterations certified "
                                         "isolation_radius multiplicity",
                             defaults=(False, None, 1))):
    """One computed zero.

    nu is the ladder index of the branch pair (j, m) polished, whichever
    search found the zero, and None for the k + 1 pairs no index names (a
    double zero at the branch point takes its partner branch's index).
    residual is the relative residual |f|/max(|e^l|, |A l^k|) at
    value.  certified means exactly `multiplicity` zeros lie in the open
    disk |l - value| < isolation_radius, proven by the Rouche disk test for
    simple zeros and otherwise by a winding count.  For real A > 0 the
    ladder and the disk search list the zeros as exact conjugate pairs:
    one of each pair is polished, and its partner's value and seed are the
    conjugates, with the same residual and iterations.
    """

    __slots__ = ()


class IterationTrace(namedtuple("IterationTrace", "xi_sequence converged")):
    """Fixed-point iterates in the shifted variable xi = l - 2*pi*nu*i."""

    __slots__ = ()


class GapStats(namedtuple("GapStats", "gaps max_deviation deviations_scaled")):
    """Consecutive gaps |l_(nu+1) - l_nu| within one half-plane.

    deviations_scaled multiplies |gap - 2*pi| by |nu|/ln(|nu|+2) to expose
    the decay trend of the remainder.
    """

    __slots__ = ()


def asymptotic_zero(qp, nu):
    """Asymptotic position of the nu-th zero (nu != 0).

    The imaginary part uses sign(nu)*k*pi/2, the principal branch of
    k*ln(2*pi*nu*i) for either sign of nu.
    """
    if nu == 0:
        raise InvalidIndexError("nu = 0 is outside the indexed family")
    re = qp.log_abs_a + qp.k * math.log(TWO_PI * abs(nu))
    im = TWO_PI * nu + math.pi + math.copysign(0.5 * math.pi * qp.k, nu) + qp.arg_a
    return complex(re, im)


def branch_index(qp, value):
    """Nearest branch index of a zero from its imaginary part (may be 0)."""
    y = complex(value).imag
    s = 1.0 if y > 0 else (-1.0 if y < 0 else 0.0)
    return round((y - math.pi - s * 0.5 * math.pi * qp.k - qp.arg_a) / TWO_PI)


def _on_real_axis(z):
    return abs(z.imag) <= REAL_AXIS_NOISE * abs(z)


def im_order(z):
    """Sort key of a zero's value z: (Im, Re), with an Im within
    REAL_AXIS_NOISE * |l| of the real axis read as 0, so real zeros come in
    Re order whatever the sign of their rounding-level Im, at every scale."""
    return (0.0 if _on_real_axis(z) else z.imag), z.real


def _partner(qp, j, m=0):
    """The branch pair whose zero is the conjugate of the zero -k W_m(z_j),
    or None where no pair is taken by conjugation.

    For real A > 0, f(conj l) = conj f(l), and the root w_(k-1-j) of w^k = -A
    is conj w_j, so z_(k-1-j) = conj z_j and -k W_-m(z_(k-1-j)) =
    conj(-k W_m(z_j)) (W_-m(conj z) = conj W_m(z) off the cut; Corless,
    Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996): the
    partner is (k - 1 - j, -m), and a named zero's index nu becomes
    -nu - 1 (_branch_nu).  For odd k the root j = (k - 1)/2 is its own
    partner: z_j > 0, whose W_0 is real.  For real A < 0, z_(k-1) lies on
    the cut, and complex A has no conjugate symmetry, so there the result
    is None."""
    return (qp.k - 1 - j, -m) if qp.arg_a == 0.0 else None


def lambert_argument(qp, j):
    """z_j = -1/(k w_j) for the root w_j = exp((Log A + i pi (2j + 1)) / k)
    of w^k = -A.  Every zero of f solves e^(l/k) = w_j l for exactly one j,
    so it is l = -k W_m(z_j) for exactly one branch m of Lambert W.

    For real A > 0 the roots come in conjugate pairs (_partner): z_j is
    formed only where 2j + 1 <= k, root k - 1 - j is its exact conjugate,
    and the real z_j of j = (k - 1)/2 has Im exactly 0.0."""
    k = qp.k
    partner = _partner(qp, j)
    if partner is not None and partner[0] < j:
        return lambert_argument(qp, partner[0]).conjugate()
    z = -1.0 / (k * cmath.exp((qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / k))
    if partner is not None and partner[0] == j:
        return complex(z.real, 0.0)
    return z


def _lambert_root(qp, j):
    """(z_j, Log z_j) for lambert_argument(qp, j).  Log z_j is cmath.log(z_j)
    where z_j is finite and nonzero; where |z_j| = 1/(k |A|^(1/k)) leaves the
    float range (|A| below about 1e-308 for k = 1) it is formed from Log A,
    as -ln k - (Log A + i pi (2j + 1)) / k + i pi, wrapped to (-pi, pi].
    For real A > 0 root k - 1 - j is the exact conjugate of root j, and a
    real z_j has a real Log z_j (see lambert_argument).

    For real A < 0, z_(k-1) lies on the cut, and the (j, m) labels read it
    from below, the side that arg A -> pi reaches (above it, W_1 below is
    W_-1 above and every other W_m below with m != 0 is W_(m-1) above).
    Where rounding puts it above, both are conjugated."""
    partner = _partner(qp, j)
    if partner is not None and partner[0] < j:
        z, logz = _lambert_root(qp, partner[0])
        return z.conjugate(), logz.conjugate()
    z = lambert_argument(qp, j)
    if z and cmath.isfinite(z):
        logz = cmath.log(z)
    else:
        u = (qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / qp.k
        logz = complex(-math.log(qp.k) - u.real, kernels.wrap_angle(math.pi - u.imag))
        if partner is not None and partner[0] == j:
            logz = complex(logz.real, 0.0)
    if j == qp.k - 1 and qp.arg_a == math.pi and logz.imag > 0:
        return z.conjugate(), logz.conjugate()
    return z, logz


def _ladder_indices(qp, values):
    """For each complex value, the index nu whose fixed-point map (see
    fixed_point_refine) has it as its fixed point:
    Im l = 2 pi nu + pi + arg A + k Arg l, rounded."""
    k, arg_a = qp.k, qp.arg_a
    phase, pi, two_pi = cmath.phase, math.pi, TWO_PI
    return [round((z.imag - k * phase(z) - arg_a - pi) / two_pi) for z in values]


def _ladder_branch(qp, nu):
    """The (j, m) of the nu-th zero -k W_m(z_j): j = nu mod k and
    m = (j - nu) / k - [nu > 0], so nu = j - k (m + [nu > 0]).  The k + 1
    zeros no nu reaches, (j, 0) for each j and (0, -1), are left to the disk
    search."""
    j = nu % qp.k
    return j, (j - nu) // qp.k - (nu > 0)


def _branch_nu(qp, j, m):
    """The index of the zero -k W_m(z_j), inverting _ladder_branch: j - k m
    for m >= 1, j - k (m + 1) for m <= -1, None for (j, 0) and (0, -1)."""
    if m == 0:
        return None
    return j - qp.k * (m if m > 0 else m + 1) or None


def _mirror(columns, at, picks, nus):
    """Insert at position `at` of the columns (nus, values, residuals, seeds,
    iterations, cofactors) the conjugates of the zeros of real A > 0 at
    positions picks, labelled nus (their partners' labels, see _partner):
    value, seed and the cofactor's t conjugated, the same residual and
    iterations.  This is bit for bit what polishing the conjugate seeds
    gives, since every step of the polish commutes with conjugation when
    Log A is real."""
    labels, values, residuals, seeds, iterations, cofactors = columns
    labels[at:at] = nus
    values[at:at] = [values[i].conjugate() for i in picks]
    residuals[at:at] = [residuals[i] for i in picks]
    seeds[at:at] = [seeds[i].conjugate() for i in picks]
    iterations[at:at] = [iterations[i] for i in picks]
    cofactors[at:at] = [(cofactors[i][0], cofactors[i][1].conjugate()) for i in picks]


def _check_indices(qp, nus, values):
    """Check each named zero's index nu at its polish's last iterate, value;
    reaching another index raises NotConvergedError naming the first such
    nu in list order.  One list comparison of the indices with nus passes a
    fully labelled, fully polished list; the loop runs only where it fails:
    to name the nu, or where nus holds unlabelled (None) entries or more
    entries than values (the polish stopped early)."""
    indices = _ladder_indices(qp, values)
    if indices == nus:
        return
    for nu, got in zip(nus, indices):
        if nu is not None and got != nu:
            raise NotConvergedError(
                f"refinement failed for nu = {nu}: Newton reached the zero of "
                f"index {got}")


def fixed_point_refine(qp, nu, tolerance=1e-13, max_iterations=200):
    """Refine the nu-th zero by the branch-anchored fixed-point iteration.

    Iterates xi <- ln|A| + i(arg A + pi) + k Log(2*pi*nu*i + xi) from the
    asymptotic seed until the successive change drops below tolerance.  The
    map contracts like k/(2*pi*|nu|); indices with 2*pi*|nu| <= 2k are
    rejected.  Past max_iterations the iteration goes on only while it
    measurably contracts: each step must be at most FIXED_POINT_CONTRACTION
    times the one before.  So a slow but steady contraction (k=1 with real A
    just below -e, ratio ~0.97) converges, and the sublinear approach to a
    double zero, whose ratio tends to 1, stops a few steps later.  The
    recorded residual carries the intrinsic conditioning floor ~|Im l| * eps
    of evaluating f at huge heights.
    """
    if nu == 0:
        raise InvalidIndexError("nu = 0 is outside the indexed family")
    if TWO_PI * abs(nu) <= 2.0 * qp.k:
        raise InvalidIndexError(
            f"fixed-point map does not contract for nu = {nu} with k = {qp.k}")
    if tolerance <= 0:
        raise InvalidIndexError("tolerance must be positive")
    seed = asymptotic_zero(qp, nu)
    base = complex(0.0, TWO_PI * nu)
    const = complex(qp.log_abs_a, qp.arg_a + math.pi)
    xi = seed - base
    trace = [xi]
    step = math.inf
    for it in count(1):
        z = base + xi
        nxt = const + qp.k * complex(math.log(abs(z)), math.atan2(z.imag, z.real))
        trace.append(nxt)
        prev, step = step, abs(nxt - xi)
        xi = nxt
        if step < tolerance:
            lam = base + xi
            residual = core.relative_residual(qp, lam)
            rec = ZeroRecord(nu=nu, value=lam, residual=residual, seed=seed,
                             iterations=it)
            return rec, IterationTrace(tuple(trace), True)
        if it >= max_iterations and not step <= FIXED_POINT_CONTRACTION * prev:
            raise NotConvergedError(
                f"fixed-point refinement for nu = {nu} did not reach {tolerance:g} "
                f"in {it} iterations (last step ratio {step / prev:.6g})")


def newton_refine(qp, seed, tolerance=1e-13, max_iterations=NEWTON_ITERATIONS):
    """Polish a seed by Newton iteration until the relative residual passes.

    A standalone reference; the package polishes its lists in one call
    (zeros_in_index_range).
    Each iterate costs one scaled evaluation, shared by its residual and its
    Newton step (kernels.newton_polish_list).  The record is labelled by
    branch_index (None for 0), which for k >= 3 can differ from the ladder's
    index for the same zero.  Raises
    EscapedBasinError when an iterate strays more than ESCAPE_RADIUS from
    the seed (protects the index bookkeeping), and propagates
    DerivativeVanishesError from critical points.
    """
    seed = complex(seed)
    values, residuals, iterations, _cofactors, failure = _newton_polish(
        qp, (seed,), tolerance, max_iterations)
    if failure is not None:
        raise failure
    idx = branch_index(qp, values[0])
    return ZeroRecord(nu=idx if idx != 0 else None, value=values[0],
                      residual=residuals[0], seed=seed, iterations=iterations[0])


def _newton_polish(qp, seeds, tolerance, max_iterations=NEWTON_ITERATIONS):
    """kernels.newton_polish_list from the complex seeds with ESCAPE_RADIUS:
    the columns (values, residuals, iterations, cofactors) of the seeds
    polished up to the first failure, and that failure.  A tolerance that
    is not positive raises InvalidIndexError once there is a seed to
    polish."""
    if seeds and tolerance <= 0:
        raise InvalidIndexError("tolerance must be positive")
    return kernels.newton_polish_list(qp.k, qp.log_a, seeds, tolerance, max_iterations,
                                      ESCAPE_RADIUS)


def _duplicate(value, distance):
    """Whether a zero at value and one at distance from it are one zero:
    closer than DUPLICATE_DISTANCE * min(1, |value|), since a duplicate
    polish lands within the polish's relative tolerance of the other.  The
    absolute test comes first, so zeros with |l| >= 1 pay nothing more."""
    return distance < DUPLICATE_DISTANCE and distance < DUPLICATE_DISTANCE * abs(value)


def _check_duplicates(nus, values):
    """Raise DuplicateZeroError at the first two of the zeros labelled nus at
    values that are one zero (_duplicate).  Only values closer than
    DUPLICATE_DISTANCE can be, so a sweep capped there screens the list
    first.  Where it finds such a pair, the pair is named in (Im, Re) order:
    each value is compared with every later one whose Im lies less than
    DUPLICATE_DISTANCE above its own, so no pair is missed for another value
    sorting between them."""
    if not values or min(_nearest_distances(values, DUPLICATE_DISTANCE)) >= DUPLICATE_DISTANCE:
        return
    order = sorted(range(len(values)), key=lambda i: (values[i].imag, values[i].real))
    n = len(order)
    for p, i in enumerate(order):
        a = values[i]
        q = p + 1
        while q < n and values[order[q]].imag - a.imag < DUPLICATE_DISTANCE:
            if _duplicate(a, abs(a - values[order[q]])):
                raise DuplicateZeroError(
                    f"indices {nus[i]} and {nus[order[q]]} converged to the same zero "
                    f"{a:.9g}")
            q += 1


def _nearest_distances(values, cap):
    """min(cap, distance from each value to its nearest other value), in
    input order.

    Sweeps the values sorted by Im: the scan from each value stops in each
    direction once the Im gap alone exceeds the best distance so far, which
    starts at cap, so a value with no other within cap in Im costs no
    distance.  Values of equal Im may sort in any order: |a - b| == |b - a|
    exactly, and the minimum is exact.  A lone value gets cap.
    """
    ims = [z.imag for z in values]
    order = sorted(range(len(values)), key=ims.__getitem__)
    ordered = [values[i] for i in order]
    ims.sort()
    n = len(ordered)
    nearest = [cap] * n
    for pos, i in enumerate(order):
        a = ordered[pos]
        im = ims[pos]
        best = cap
        j = pos + 1
        while j < n and not ims[j] - im > best:
            d = abs(a - ordered[j])
            if d < best:
                best = d
            j += 1
        j = pos - 1
        while j >= 0 and not im - ims[j] > best:
            d = abs(a - ordered[j])
            if d < best:
                best = d
            j -= 1
        nearest[i] = best
    return nearest


def isolation_radii(values):
    """min(1, half nearest-neighbor distance) for each complex value (1 when
    alone): half the nearest distance capped at 2, which is the same float,
    so no distance past 2 is formed."""
    return [0.5 * d for d in _nearest_distances(values, 2.0)]


def _distinct_isolation_radii(nus, values):
    """isolation_radii(values), raising DuplicateZeroError where
    _check_duplicates would.  That test fails only where two values lie
    within DUPLICATE_DISTANCE * min(1, |l|), so it runs, and names the same
    pair, only where a radius is below half DUPLICATE_DISTANCE: a list of
    distinct zeros with |l| >= 1 is sorted and swept once."""
    radii = isolation_radii(values)
    if radii and min(radii) < 0.5 * DUPLICATE_DISTANCE:
        _check_duplicates(nus, values)
    return radii


def zeros_in_index_range(qp, nu_min, nu_max, tolerance=1e-12, certify=True):
    """Refined zeros for every index in [nu_min, nu_max] (nu = 0 skipped).

    Each nu is the zero -k W_m(z_j) of _ladder_branch(qp, nu),
    Newton-polished from that Lambert-W value.  Each stage runs once over
    the whole list: z_j is computed once per root j, the Lambert-W seeds of
    each root's indices come from one kernels.lambert_w_list call, and the
    polish runs over the list in index order.  For real A > 0 the zeros
    are listed as exact conjugate pairs: index -nu - 1 names the conjugate
    of zero nu (_partner), so of each pair nu, -nu - 1 inside the range
    only the negative index is seeded and polished, and the positive one is
    its conjugate (_mirror).  Every zero's index is then checked, in index
    order (_check_indices).  A failure raises NotConvergedError
    naming the first nu that fails.  A range of more than k * STEP_BUDGET
    indices, more than STEP_BUDGET branches per root, raises DomainError
    before any seed is formed.  Records are sorted by nu; values
    collapsing within DUPLICATE_DISTANCE * min(1, |l|) raise
    DuplicateZeroError.  With certify=True each zero is certified over its
    isolation disk from its polish's final evaluation: the residual gate
    and the Rouche test take the residual and cofactor the polish computed
    at the value, and only a zero Rouche does not prove costs a winding
    count (certify.certify_polished: the one pass certify.certify_record
    also runs, gated here on the polish's residuals).  The stages pass the
    zeros as columns, and each record is built once, at the end.
    """
    if nu_min > nu_max:
        raise InvalidIndexError(f"empty index range [{nu_min}, {nu_max}]")
    k = qp.k
    size = nu_max - nu_min + 1 - (nu_min <= 0 <= nu_max)
    if size > k * STEP_BUDGET:
        raise DomainError(f"index range [{nu_min}, {nu_max}] holds {size} indices, more "
                          f"than the {k * STEP_BUDGET} a ladder lists for k = {k} "
                          f"({STEP_BUDGET} branches per root)")
    negative = range(nu_min, min(nu_max, -1) + 1)
    positive = range(max(nu_min, 1), nu_max + 1)
    # the positive indices 1 .. -nu_min - 1 are the partners -nu - 1 of
    # negative ones in the range
    mirrored = max(0, min(len(positive), -nu_min - 1)) if _partner(qp, 0) is not None else 0
    roots = {}
    nus = []
    seeds = []
    # the indices of each sign are consecutive; within one, those of a root
    # j = nu mod k step by k and their branches m by -1 (_ladder_branch)
    for run in (negative, positive[mirrored:]):
        base = len(seeds)
        nus += run
        seeds += [None] * len(run)
        for i, nu in enumerate(run[:k]):
            j, m = _ladder_branch(qp, nu)
            root = roots.get(j)
            if root is None:
                # a root whose conjugate partner is formed is its conjugate
                pair = _partner(qp, j)
                root = roots[j] = (_lambert_root(qp, j) if pair is None or pair[0] not in roots
                                   else tuple(x.conjugate() for x in roots[pair[0]]))
            ms = range(m, m - len(run[i::k]), -1)
            seeds[base + i:base + len(run):k] = [
                -k * w for w in kernels.lambert_w_list(root[0], ms, root[1])]
    values, residuals, iterations, cofactors, failure = _newton_polish(qp, seeds, tolerance)
    columns = (nus, values, residuals, seeds, iterations, cofactors)
    n = len(negative)
    if mirrored and len(values) >= n:
        # nu = 1 .. mirrored, the conjugates of nu = -2 .. -mirrored - 1
        _mirror(columns, n, range(-2 - nu_min, -2 - nu_min - mirrored, -1),
                range(1, mirrored + 1))
    _check_indices(qp, nus, values)
    if failure is not None:
        i = len(values)
        raise NotConvergedError(
            f"refinement failed for nu = {negative[i] if i < n else positive[i - n]}: "
            f"{failure}") from failure
    if not certify:
        _check_duplicates(nus, values)
        return list(map(ZeroRecord._make, zip(*columns[:5], repeat(False), repeat(None),
                                              repeat(1))))
    from . import certify as certify_mod

    return certify_mod.certify_polished(qp, columns, _distinct_isolation_radii(nus, values))


def gap_statistics(records):
    """Consecutive distances within one half-plane, ordered by Im value."""
    if len(records) < 2:
        raise TooFewRecordsError("gap statistics need at least two records")
    signs = {1 if r.value.imag > 0 else -1 for r in records}
    if len(signs) != 1:
        raise DomainError("records must lie in a single half-plane")
    if any(r.nu is None for r in records):
        raise DomainError("gap statistics need indexed records")
    ordered = sorted(records, key=lambda r: r.value.imag)
    gaps = []
    scaled = []
    for a, b in zip(ordered, ordered[1:]):
        gap = abs(b.value - a.value)
        gaps.append(gap)
        nu = min(abs(a.nu), abs(b.nu))
        scaled.append(abs(gap - TWO_PI) * nu / math.log(nu + 2))
    max_dev = max(abs(g - TWO_PI) for g in gaps)
    return GapStats(tuple(gaps), max_dev, tuple(scaled))


def separation_radius(records):
    """Half the minimum pairwise distance; disks of this radius are disjoint.
    Two records within DUPLICATE_DISTANCE * min(1, |l|) of each other raise
    DuplicateZeroError."""
    if len(records) < 2:
        raise TooFewRecordsError("separation radius needs at least two records")
    values = [rec.value for rec in records]
    nearest = _nearest_distances(values, math.inf)
    best = min(nearest)
    if best < DUPLICATE_DISTANCE and any(_duplicate(z, d) for z, d in zip(values, nearest)):
        raise DuplicateZeroError(f"records contain a duplicate (distance {best:.3g})")
    return 0.5 * best

