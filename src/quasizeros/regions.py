"""Region decomposition of the plane for f(l) = e^l + A*l^k.

The signed offset Re l + (-1)^S * k * ln|l| splits the plane (outside a
cutoff disk of radius R) into two exterior domains and a curvilinear strip
of half-width h; the strip eventually enters narrow sectors around the
imaginary axis, and between consecutive zero ordinates it decomposes into
curvilinear quadrangles.
"""

import enum
import math
from collections import namedtuple

from .errors import DomainError, OutsideStripError


class RegionTag(enum.Enum):
    ORIGIN_DISK = "origin_disk"
    T_EXTERIOR_1 = "t_exterior_1"
    T_EXTERIOR_2 = "t_exterior_2"
    STRIP = "strip"


class RegionParams(namedtuple("RegionParams", "h r_cut s_branch delta")):
    """Geometry parameters: strip half-width h, inner cutoff R, branch S,
    and an optional sector half-angle / exclusion radius delta."""

    __slots__ = ()

    def __new__(cls, h, r_cut, s_branch=1, delta=None):
        if not 0 < h < math.inf:
            raise DomainError("h must be a positive finite number")
        if not 0 < r_cut < math.inf:
            raise DomainError("R must be a positive finite number")
        if s_branch not in (1, 2):
            raise DomainError("S must be 1 or 2")
        if delta is not None and not 0 < delta < math.inf:
            raise DomainError("delta must be a positive finite number when present")
        return super().__new__(cls, h, r_cut, s_branch, delta)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RegionLabel(namedtuple("RegionLabel", "tag half")):
    """Classification outcome; half (1 = upper, 2 = lower) only for STRIP."""

    __slots__ = ()

    def __new__(cls, tag, half=None):
        if (half is not None) != (tag is RegionTag.STRIP):
            raise DomainError("half is present exactly for strip labels")
        return super().__new__(cls, tag, half)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Quadrangle(namedtuple("Quadrangle", "nu lower_ordinate upper_ordinate left_curve "
                                          "right_curve diagonal")):
    """One strip cell between two horizontal lines and the two level curves.

    The diagonal is the maximum pairwise distance over sampled boundary
    points.  Degenerate cells (equal ordinates) are allowed; their diagonal
    is the horizontal width.
    """

    __slots__ = ()


def signed_offset(qp, lam, s_branch):
    """Re l + (-1)^S * k * ln|l|; undefined at l = 0."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("signed offset is undefined at l = 0")
    if s_branch not in (1, 2):
        raise DomainError("S must be 1 or 2")
    sgn = -1.0 if s_branch == 1 else 1.0
    return lam.real + sgn * qp.k * math.log(abs(lam))


def classify(qp, lam, params):
    """Total classification of a point into exactly one region label.

    The closed origin disk |l| <= R wins first; then the offset t sorts the
    remainder: t < -h exterior 1, |t| <= h strip (boundary curves included),
    t > h exterior 2.  Strip points on the real axis are assigned half 1.
    """
    lam = complex(lam)
    if abs(lam) <= params.r_cut:
        return RegionLabel(RegionTag.ORIGIN_DISK)
    t = signed_offset(qp, lam, params.s_branch)
    if t < -params.h:
        return RegionLabel(RegionTag.T_EXTERIOR_1)
    if t > params.h:
        return RegionLabel(RegionTag.T_EXTERIOR_2)
    return RegionLabel(RegionTag.STRIP, half=1 if lam.imag >= 0 else 2)


def sector_contains(lam, delta, i):
    """Whether arg l lies within delta of +pi/2 (i = 1) or -pi/2 (i = 2)."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("sector membership is undefined at l = 0")
    if i not in (1, 2):
        raise DomainError("sector index must be 1 or 2")
    if not 0 < delta < math.inf:
        raise DomainError("delta must be a positive finite number")
    target = 0.5 * math.pi if i == 1 else -0.5 * math.pi
    return abs(math.atan2(lam.imag, lam.real) - target) < delta


def sector_cover_radius(qp, h, delta):
    """Smallest certified radius beyond which the strip lies in the sectors.

    For a strip point, |Re l| <= h + k*ln|l|, so the deviation of arg l from
    +-pi/2 is at most arcsin((h + k ln r)/r).  The returned radius is the
    largest root of (h + k ln r)/r = sin(delta); beyond it the deviation is
    strictly below delta.  h must be positive and finite; a root beyond the
    float range (h near it) raises DomainError.
    """
    if not 0 < delta < 0.5 * math.pi:
        raise DomainError("delta must lie in (0, pi/2)")
    if not 0 < h < math.inf:
        raise DomainError("h must be a positive finite number")
    k = qp.k
    s = math.sin(delta)

    def g(r):
        return (h + k * math.log(r)) / r

    # the maximum of g; below the float range for h/k beyond about 745, where
    # the least positive float lies past it, on the decreasing side
    r_peak = max(math.exp(1.0 - h / k), math.ulp(0.0))
    if g(r_peak) <= s:
        # bound already below sin(delta) everywhere: every radius works
        return r_peak
    lo = r_peak
    hi = 2.0 * r_peak
    while not g(hi) < s:
        lo = hi
        hi *= 2.0
        if hi == math.inf:
            raise DomainError(f"the sector-cover radius for h = {h:g} is beyond "
                              f"the float range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def level_curve_re(qp, y, c, s_branch=1):
    """Solve Re l from Re l + (-1)^S * k*ln|l| = c at height Im l = y.

    Scalar Newton seeded at c - (-1)^S * k*ln|y|; the curve is a graph over
    the imaginary part once |l| is moderately large.
    """
    sgn = -1.0 if s_branch == 1 else 1.0
    k = qp.k
    ay = abs(y)
    x = c - sgn * k * math.log(ay) if ay > 1e-300 else c
    for _ in range(3):
        r2 = x * x + y * y
        if r2 == 0.0:
            raise OutsideStripError("level curve solve degenerated at the origin")
        x = c - sgn * 0.5 * k * math.log(r2)
    for _ in range(60):
        r2 = x * x + y * y
        g = x + sgn * 0.5 * k * math.log(r2) - c
        gp = 1.0 + sgn * k * x / r2
        if abs(gp) < 0.5:
            x_new = c - sgn * 0.5 * k * math.log(r2)
        else:
            x_new = x - g / gp
        if abs(x_new - x) < 1e-13 * max(1.0, abs(x_new)):
            x = x_new
            break
        x = x_new
    else:
        raise OutsideStripError(f"level curve solve did not converge at Im l = {y:g}")
    return x


def strip_quadrangle(qp, params, nu, zero_ordinates, samples_per_side=64):
    """Build the strip quadrangle between two horizontal ordinate lines.

    zero_ordinates are the shifted imaginary parts of two consecutive zeros
    (the line ordinates); the lateral boundaries are the level curves at
    offsets -h and +h for the branch in params.  Equal ordinates give the
    degenerate zero-height cell.
    """
    y0, y1 = zero_ordinates
    lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
    n = max(2, int(samples_per_side))
    if hi == lo:
        ys = [lo, hi]
    else:
        step = (hi - lo) / (n - 1)
        ys = [lo + j * step for j in range(n - 1)] + [hi]
    sides = []
    for c in (-params.h, params.h):
        pts = []
        for y in ys:
            x = level_curve_re(qp, y, c, params.s_branch)
            if math.sqrt(x * x + y * y) < params.r_cut:
                raise OutsideStripError(
                    f"ordinate line Im l = {y:g} meets the level curve inside |l| < R")
            pts.append(complex(x, y))
        sides.append(tuple(pts))
    left, right = sides
    boundary = left + right
    diag = 0.0
    for i in range(len(boundary)):
        p = boundary[i]
        for q in boundary[i + 1:]:
            d = abs(p - q)
            if d > diag:
                diag = d
    return Quadrangle(nu, lo, hi, left, right, diag)
