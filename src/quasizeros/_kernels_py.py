"""Pure-Python kernels: overflow-safe evaluation, the Rouche disk test, the
Lambert W function, argument tracking along contour pieces, and seeded
rejection samplers.

This is the package's only kernel implementation; the other modules import
it through quasizeros._backend.  The contract is reproducibility: identical
argv and seed give a byte-identical document at one commit.  Reordering a
floating-point step may change the last bits of the documents and of the
sample streams between commits.

Conventions:
  * the quasipolynomial is f(l) = e^l + A l^k; kernels take k, the complex
    logarithm log_a = ln|A| + i arg A (computed once per QuasiPolynomial),
    and complex points
  * "scaled" quantities divide f by its dominant term, max(|e^l|, |A l^k|),
    so nothing overflows for |Re l| or k*ln|l| in the hundreds
  * a sampler accepts n >= 1 points, drawing its uniforms from
    uniform_pairs(seed), the Mersenne Twister stream of random.Random(seed),
    so a seed fully determines the samples; sm64 (splitmix64) only derives
    the substream seeds (bounds.derive_substream)
  * a sampler takes each accepted point's margin from what its draw already
    computed: w = Log A + k Log l - l is formed from the point's ln|l| and
    arg l, |f| is the dominant term times |1 + t| (see _cofactor), and
    ln|1 + t| comes from _log_abs_1p, so no point costs a complex logarithm
    and the margin is never a difference of two large logarithms
  * a sampler evaluates only the margins that can lower its running
    minimum.  Every accepted point's log margin is at least
    base + ln(1 - e^-|Re w|), base = ln 2 for the exteriors and ln|A| for
    the strip, since |1 + t| >= 1 - |t| with |t| = e^-|Re w| and the Re w
    corrections only add.  So a point with |Re w| beyond
    _skip_cut(minimum so far, base) counts as accepted but costs no sin,
    atan2 or _log_abs_1p.  The cut is never below ln 2, where |t| <= 1/2
    and a margin's rounding is about 1e-14, far below SKIP_SLACK: had a
    skipped point been evaluated, its margin would not have been below the
    minimum, so reports and worst points are the same bit for bit, and so
    is the number of points drawn
  * the log-polar samplers decide most draws from their angle alone.  The
    region test and the skip rule both read r cos(theta) <> a + b ln r, so
    over the shell (a drawn ln r = lr0 + u1 lspan lies in [lr0, lr0 +
    lspan] as floats, since rounding is monotone) the boundary value of
    cos(theta) lies in a bracket whose ends come in closed form from the
    shell's two ends and the one stationary point ln r = 1 - a/b
    (_cos_bracket).
    acos maps it to cuts on v = |u2 - 1/2|, which is exact in floats, and
    cos(theta) = cos(2 pi v).  A draw past a cut is rejected, or accepted
    and skipped, with no exp, cos or region test; only draws between the
    cuts take the exact path.  The bracket is widened by BRACKET_SLACK
    times 1 + (|a| + |b| max|ln r|)/r_in.  Rounding moves theta by about
    1e-15 and cos by an ulp, exp(ln r) by an ulp of r, and r cos(theta) and
    the sums by an ulp of the terms they add, so the float test differs
    from the exact one by a few 1e-16 r times that factor, and acos by an
    ulp more: a decided draw's float test comes out as its cut says, and
    reports, worst points and the points drawn are the same bit for bit.
    Near r_in = 1e-300 the slack swamps the bracket and every draw takes
    the exact path
  * the strip sampler decides most draws from the drawn (y, t) before its
    Newton solve (_strip_decision).  A draw with |y| >= y_dec whose t lies
    outside both the listed zeros' t-band, widened by how far t can move
    within delta of a zero, and the skip band |t - ln|A|| <= wcut is
    counted as accepted and skipped: above y_dec the solve provably passes
    the r_in and residual checks, no listed zero lies within delta, and
    |Re w| = |ln|A| - t - residual| exceeds the cut.  The bands are widened
    by STRIP_SLACK, which covers the 1e-9 the residual check allows and the
    rounding of the check, of Re w and of the bands, so a decided draw's
    exact float steps accept and skip it, and reports, worst points and the
    points drawn are the same bit for bit
"""

import cmath
import math
import random
import sys

from .errors import (
    DerivativeVanishesError,
    EscapedBasinError,
    MaxIterationsError,
    QuadratureStalledError,
    ZeroOnContourError,
)

M64 = 0xFFFFFFFFFFFFFFFF
PI = math.pi
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
LN2 = math.log(2.0)
FLOAT_MAX = sys.float_info.max
REJECTION_BUDGET = 1000000

#: a sampler skips a point whose log margin is proven at least this far
#: above the running minimum (see _skip_cut); it dwarfs the ~1e-14 rounding
#: of a margin evaluated beyond |Re w| = ln 2
SKIP_SLACK = 1e-9

#: relative widening of an angle bracket (see _cos_bracket); the float
#: region test and skip rule it stands in for round by a few 1e-16 of the
#: terms they add
BRACKET_SLACK = 1e-12

#: below this ln|l| a bracket's e^-ln|l| may overflow; no bracket is formed
BRACKET_LN_FLOOR = -700.0

#: the strip sampler decides draws from (y, t) only where a bound on
#: |Re l| over its solves, and with it on t and k ln|l|, is at most this
#: (see _strip_decision); a step of its solve then rounds by under 5e-11
STRIP_SCALE_CAP = 1e4

#: widening of the strip sampler's t-bands (see _strip_decision): it covers
#: the 1e-9 the residual check lets Re l - k ln|l| stray from the drawn t,
#: and the few 1e-11 of rounding in that check, in Re w and in the bands
STRIP_SLACK = 2e-9

#: the largest im_cap at which the strip sampler decides draws: y^2 stays
#: finite
STRIP_IM_CAP = 1e150


def sm64(state):
    """One splitmix64 step: returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    z = z ^ (z >> 31)
    return state, z


def uniform_pairs(seed):
    """Endless (u1, u2) pairs in [0, 1): consecutive random.Random(seed)
    .random() values, u1 first.  That generator is the C Mersenne Twister
    (MT19937), and Python repeats its sequence for a given seed across
    versions (the random module's "Notes on Reproducibility")."""
    # random() < 1.0, so the sentinel never ends the stream; zip draws u1
    # then u2 from the one iterator, all in C
    draws = iter(random.Random(seed).random, 1.0)
    return zip(draws, draws)


def wrap_angle(x):
    """Reduce to the principal branch (-pi, pi]."""
    if -PI < x <= PI:
        return x
    n = math.floor(x / TWO_PI + 0.5)
    y = x - TWO_PI * n
    if y <= -PI:
        y += TWO_PI
    elif y > PI:
        y -= TWO_PI
    return y


def _cofactor(k, log_a, lam):
    """Dominance-factored co-factor of f at lam != 0.

    With w = Log A + k Log lam - lam, returns (expdom, t, Log lam) where t is
    the subdominant/dominant term (|t| <= 1), so that
      f = e^lam (1 + t)       when expdom (Re w <= 0, t = e^w)
      f = A lam^k (1 + t)     otherwise (t = e^-w).
    """
    loglam = cmath.log(lam)
    w = log_a + k * loglam - lam
    if w.real <= 0.0:
        return True, cmath.exp(w), loglam
    return False, cmath.exp(-w), loglam


def _skip_cut(minlog, base):
    """|Re w| beyond which a margin of at least base + ln(1 - e^-|Re w|)
    exceeds minlog + SKIP_SLACK: -ln(1 - e^d) with d = minlog - base +
    SKIP_SLACK, at least ln 2, and +inf when d >= 0 (no point can be
    skipped)."""
    d = minlog - base + SKIP_SLACK
    if d >= 0.0:
        return math.inf
    cut = -math.log(-math.expm1(d))
    return cut if cut > LN2 else LN2


def _cos_bracket(a, b, s_lo, s_hi, size):
    """(lo, hi) bracketing g = (a + b s) e^-s over s = ln r in [s_lo, s_hi],
    widened by BRACKET_SLACK (1 + (size + |b| max|s|) e^-s_lo); size bounds
    the magnitudes of the terms a was formed from.

    g is where r cos(theta) = a + b ln r.  Its extremes lie at the two ends
    and at its one stationary point s = 1 - a/b.  A draw whose cos(theta)
    is below lo has r cos(theta) < a + b ln r at every radius of the shell,
    as the samplers compute it in floats, and one above hi has it >.
    (-inf, inf) below BRACKET_LN_FLOOR; nan when a or size is nan.
    """
    if s_lo < BRACKET_LN_FLOOR:
        return -math.inf, math.inf
    ends = [s_lo, s_hi]
    s_star = 1.0 - a / b
    if s_lo < s_star < s_hi:
        ends.append(s_star)
    g = [(a + b * s) * math.exp(-s) for s in ends]
    slack = BRACKET_SLACK * (1.0 + (size + abs(b) * max(abs(s_lo), abs(s_hi))) * math.exp(-s_lo))
    return min(g) - slack, max(g) + slack


def _angle_cut(c):
    """acos(c)/2pi clamped to [0, 1/2], nan for nan.  With v = |u2 - 1/2|,
    exact in floats, a sampler's cos(theta) = cos(2 pi v) up to rounding:
    it is below c where v exceeds the cut and above c where v falls short
    of it."""
    if c >= 1.0:
        return 0.0
    if c <= -1.0:
        return 0.5
    return math.acos(c) / TWO_PI


def _region_cuts(k, sgn, side, h, s_lo, s_hi):
    """Angle cuts of a sampler's region test on
    off = r cos(theta) + sgn k ln r: off < -h for side -1, off > h for side
    1, -h <= off <= h for side 0 (the strip), over ln r in [s_lo, s_hi].

    Returns (reject_below, reject_above, accept_below, accept_above): a draw
    with v below reject_below or above reject_above is outside at every
    radius, one with v strictly between the accept cuts is inside.  The
    left edge off = -h has cos(theta) = (-h - sgn k ln r)/r, the right edge
    off = h has (h - sgn k ln r)/r.
    """
    b = -sgn * k
    lo_l, hi_l = _cos_bracket(-h, b, s_lo, s_hi, abs(h))
    lo_r, hi_r = _cos_bracket(h, b, s_lo, s_hi, abs(h))
    if side < 0:
        return _angle_cut(hi_l), 1.0, _angle_cut(lo_l), 1.0
    if side > 0:
        return -1.0, _angle_cut(lo_r), -1.0, _angle_cut(hi_r)
    return _angle_cut(hi_r), _angle_cut(lo_l), _angle_cut(lo_r), _angle_cut(hi_l)


def _skip_angles(lna, k, wcut, s_lo, s_hi):
    """(below, above): a draw with v below `below` has Re w < -wcut at every
    radius of the shell, one with v above `above` has Re w > wcut, with
    Re w = lna + k ln r - r cos(theta) as the samplers form it; (-1, 1)
    while wcut is infinite."""
    if wcut == math.inf:
        return -1.0, 1.0
    size = abs(lna) + wcut
    lo = _cos_bracket(lna - wcut, k, s_lo, s_hi, size)[0]
    hi = _cos_bracket(lna + wcut, k, s_lo, s_hi, size)[1]
    return _angle_cut(hi), _angle_cut(lo)


def _log_abs_1p(wr, wi):
    """ln|1 + t| for t = e^(-|wr|) e^(+-i wi), the co-factor of _cofactor
    with w = wr + i wi; -inf at an exact zero.

    |1 + t|^2 = 1 + x with x = e (2 cos wi + e) and e = |t|.  At a zero x
    is -1, where log1p raises, so any x <= -1 reads as a zero.
    """
    e = math.exp(-abs(wr))
    x = e * (2.0 * math.cos(wi) + e)
    if x <= -1.0:
        return -math.inf
    return 0.5 * math.log1p(x)


def eval_scaled(k, log_a, lam):
    """Log f at lam: log|f| + i (principal arg f).  An exact zero gives
    complex(-inf, 0)."""
    if lam == 0:
        return 0j
    expdom, t, loglam = _cofactor(k, log_a, lam)
    co = 1.0 + t
    if co == 0:
        return complex(-math.inf, 0.0)
    lf = (lam if expdom else log_a + k * loglam) + cmath.log(co)
    return complex(lf.real, wrap_angle(lf.imag))


def relative_residual(k, log_a, lam):
    """|f| / max(|e^l|, |A l^k|) at lam; equals |1 + subdominant/dominant|."""
    if lam == 0:
        return 1.0
    return abs(1.0 + _cofactor(k, log_a, lam)[1])


def residual_cofactor(k, log_a, lam):
    """(relative_residual, (expdom, t)) at lam from one _cofactor, the
    cofactor as rouche_holds takes it; (1.0, None) at lam = 0."""
    if lam == 0:
        return 1.0, None
    expdom, t, _loglam = _cofactor(k, log_a, lam)
    return abs(1.0 + t), (expdom, t)


def newton_polish(k, log_a, seed, tolerance, max_iterations, escape):
    """Newton iteration from seed until the relative residual is below
    tolerance.

    Returns (lam, residual, iterations, cofactor): the first iterate that
    passes, its residual, the steps taken, and (expdom, t) at it (None at
    lam = 0).  Each iterate costs one _cofactor, shared by its residual and,
    when it does not pass, its Newton step f/f' = (1 + t)/u; an iterate
    where k/lam overflows steps by newton_step's tiny-lam form.  Raises
    EscapedBasinError when an iterate lies farther than `escape` from the
    seed, DerivativeVanishesError where the step is unusable (see
    newton_step), and MaxIterationsError after max_iterations steps.
    """
    lam = seed
    for it in range(max_iterations + 1):
        residual, cofactor = residual_cofactor(k, log_a, lam)
        if residual < tolerance:
            return lam, residual, it, cofactor
        if cofactor is None or abs(lam) * FLOAT_MAX < k:
            ratio, vanishes = newton_step(k, log_a, lam)
        else:
            ratio, vanishes = _newton_step_cofactor(k, lam, *cofactor)
        if vanishes:
            raise DerivativeVanishesError(f"f' vanishes near l = {lam:.6g}")
        lam = lam - ratio
        if abs(lam - seed) > escape:
            raise EscapedBasinError(
                f"Newton iterate left the seed basin (|l - seed| > {escape:g})")
    raise MaxIterationsError(
        f"Newton refinement from {seed:.6g} did not reach {tolerance:g} "
        f"in {max_iterations} iterations")


def newton_step(k, log_a, lam):
    """Newton ratio f/f' in dominance-factored form.

    Returns (ratio, vanishes); vanishes is True when |f'| fell below
    1e-14 * max(|e^l|, k|A||l|^(k-1)) and the ratio is unusable.
    """
    if lam == 0:
        d, scale = _derivative_at_origin(k, log_a)
        if _modulus(d) < 1e-14 * scale:
            return 0j, True
        return 1.0 / d, False
    expdom, t, loglam = _cofactor(k, log_a, lam)
    if abs(lam) * FLOAT_MAX < k:
        return _newton_step_tiny(k, log_a, lam, expdom, t, loglam)
    return _newton_step_cofactor(k, lam, expdom, t)


def _newton_step_tiny(k, log_a, lam, expdom, t, loglam):
    """newton_step where k/lam overflows, |lam| < k/FLOAT_MAX.

    Where e^lam dominates, the product (k/lam) t of _derivative_cofactor is
    formed as k e^(Log A + (k-1) Log lam - lam), which is finite and keeps
    its precision when t is subnormal.  Where A lam^k dominates,
    f/f' = lam (1 + t) / (lam t + k), and |lam t + k| >= k - |lam| never
    falls below 1e-14 max(k, |lam t|), the vanishing test times |lam|.
    u = 1 + (k/lam) t reaches the float range's top for |A| near FLOAT_MAX
    (k = 1), where complex division overflows forming |u|^2 / Re u and
    returns 0; both sides are scaled by 1/16 first, which is exact.
    """
    if not expdom:
        return lam * (1.0 + t) / (lam * t + k), False
    qt = k * cmath.exp(log_a + (k - 1) * loglam - lam)
    u = 1.0 + qt
    if _modulus(u) < 1e-14 * max(1.0, _modulus(qt)):
        return 0j, True
    return (0.0625 * (1.0 + t)) / (0.0625 * u), False


def _newton_step_cofactor(k, lam, expdom, t):
    """newton_step at lam != 0 from the cofactor (expdom, t) of _cofactor."""
    u, _r, _tmag, vanishes = _derivative_cofactor(k, lam, expdom, t)
    if vanishes:
        return 0j, True
    return (1.0 + t) / u, False


def _derivative_at_origin(k, log_a):
    """(f'(0), the scale of its vanishing check); f(0) = 1 for every k."""
    if k > 1:
        return 1.0 + 0j, 1.0
    a = cmath.exp(log_a)
    scale = _modulus(a)
    if scale < 1.0:
        scale = 1.0
    return 1.0 + a, scale


def _derivative_cofactor(k, lam, expdom, t):
    """f' divided by the dominant term of f, from _cofactor's outputs.

    Returns (u, |lam|, |t|, vanishes): u = 1 + (k/lam) t when e^lam
    dominates and t + k/lam otherwise, so f' = dominant * u; vanishes is True
    when |u| < 1e-14 * max(|e^l|, k|A||l|^(k-1)) / dominant.  lam != 0.
    """
    r = abs(lam)
    q = k / lam
    tmag = abs(t)
    if expdom:
        u = 1.0 + q * t
        scale = (k / r) * tmag
        if scale < 1.0:
            scale = 1.0
    else:
        u = q + t
        scale = k / r
        if tmag > scale:
            scale = tmag
    return u, r, tmag, _modulus(u) < 1e-14 * scale


def _modulus(u):
    """|u|, +inf where it overflows (|A| beyond the float range, or
    k/lam with |lam| near the bottom of it)."""
    try:
        return abs(u)
    except OverflowError:
        return math.inf


def _second_derivative_cofactor(k, lam, expdom, t):
    """f'' divided by the dominant term of f, from _cofactor's outputs:
    1 + k(k-1) t / lam^2 when e^lam dominates, t + k(k-1) / lam^2
    otherwise.  lam != 0.  For k = 1 the lam^2 term is exactly 0; where
    lam^2 underflows (|lam| below about 1e-154) it is formed as
    (k(k-1) / lam) / lam, which may overflow to a non-finite value."""
    if k == 1:
        return 1.0 + 0j if expdom else t
    sq = lam * lam
    c = k * (k - 1) / sq if sq else k * (k - 1) / lam / lam
    return 1.0 + c * t if expdom else t + c


def _exp_tail3(r):
    """e^r - 1 - r - r^2/2 for r > 0, without cancellation: its series
    sum_{j>=3} r^j / j! below r = 1, where the terms fall at least 4-fold
    each, and the direct difference above, which loses under 3 bits."""
    if r >= 1.0:
        return math.expm1(r) - r - 0.5 * r * r
    term = r * r * r / 6.0
    total = term
    j = 3
    while term > 1e-17 * total:
        j += 1
        term *= r / j
        total += term
    return total


def rouche_isolates(k, log_a, lam, radius):
    """True when Rouche's theorem proves exactly one zero of f in the open
    disk |l - lam| < radius.

    With |h| = radius, f(z+h) = f(z) + f'(z) h + f''(z) h^2/2 + R(h) and
      |R(h)| <= |e^z| (e^r - 1 - r - r^2/2)
                + |A| sum_{j=3..k} C(k,j) |z|^(k-j) r^j.
    When |f(z)| + |f''(z)| r^2/2 + that bound < |f'(z)| r, f has as many
    zeros in the disk as the linear part, which has exactly one.  The
    second-order term is exact, so it keeps the cancellation between e^z
    and k(k-1) A z^(k-2) that makes a zero of a near-double pair provable
    at its isolation radius; by the triangle inequality the bound is never
    above the one with f'' bounded term by term.  Every term is divided by
    D = max(|e^z|, |A||z|^k), so nothing overflows; the polynomial sum is
    accumulated term by term from positive terms (never below its true
    value but for rounding), and the inequality must hold with a 1% margin.
    False means "not proven", never "no zero".  The inequality is
    rouche_holds, from the cofactor at lam.
    """
    if lam == 0:
        return False
    expdom, t, _loglam = _cofactor(k, log_a, lam)
    return rouche_holds(k, lam, expdom, t, radius)


def rouche_holds(k, lam, expdom, t, radius):
    """rouche_isolates from the cofactor (expdom, t) of _cofactor at
    lam != 0, so a caller that has just evaluated f at lam tests the disk
    without evaluating it again.  Where k/lam overflows (|lam| near the
    float range's bottom) the scaled f' is not finite and the test reads as
    not proven, as it does with a non-finite f'' term (see
    _second_derivative_cofactor)."""
    if not 0.0 < radius < 700.0:
        return False
    u, zabs, tmag, vanishes = _derivative_cofactor(k, lam, expdom, t)
    umag = _modulus(u)
    if vanishes or not umag < math.inf:
        return False
    s = _second_derivative_cofactor(k, lam, expdom, t)
    etail = _exp_tail3(radius)
    # sum_{j=3..k} C(k,j) rho^j with rho = r/|z|, term by term
    rho = radius / zabs
    term = 0.5 * k * (k - 1) * rho * rho
    poly = 0.0
    for j in range(3, k + 1):
        term *= rho * (k - j + 1) / j
        poly += term
    if expdom:
        remainder = etail + tmag * poly
    else:
        remainder = tmag * etail + poly
    remainder += 0.5 * abs(s) * radius * radius
    return abs(1.0 + t) + remainder < 0.99 * umag * radius


def critical_step(k, log_a, lam):
    """Newton step f'/f'' towards a critical point of f, in dominance-factored
    form (both divided by the dominant term of f); None where f'' vanishes,
    at lam = 0, and where the step is not finite (f' or f'' beyond the
    float range).  Where k/lam overflows (|lam| < k/FLOAT_MAX) the terms
    are formed as in _newton_step_tiny (_critical_step_tiny)."""
    if lam == 0:
        return None
    expdom, t, loglam = _cofactor(k, log_a, lam)
    if abs(lam) * FLOAT_MAX < k:
        try:
            step = _critical_step_tiny(k, log_a, lam, expdom, t, loglam)
        except OverflowError:  # cmath.exp where A e^-lam rounds past FLOAT_MAX
            return None
    else:
        u, _r, _tmag, _vanishes = _derivative_cofactor(k, lam, expdom, t)
        s = _second_derivative_cofactor(k, lam, expdom, t)
        if s == 0:
            return None
        step = u / s
    return step if cmath.isfinite(step) else None


def _critical_step_tiny(k, log_a, lam, expdom, t, loglam):
    """f'/f'' at |lam| < k/FLOAT_MAX.  For k = 1, f'' = e^lam and the step
    is 1 + A e^-lam.  Otherwise, where e^lam dominates, (k/lam) t and
    k(k-1) t/lam^2 are k e^(Log A + (k-1) Log lam - lam) and
    k(k-1) e^(Log A + (k-2) Log lam - lam); where A lam^k dominates, the
    step (t + k/lam) / (t + k(k-1)/lam^2) is
    lam (lam t + k) / (lam^2 t + k(k-1))."""
    if k == 1:
        return 1.0 + cmath.exp(log_a - lam)
    if expdom:
        return ((1.0 + k * cmath.exp(log_a + (k - 1) * loglam - lam))
                / (1.0 + k * (k - 1) * cmath.exp(log_a + (k - 2) * loglam - lam)))
    return lam * (lam * t + k) / (lam * lam * t + k * (k - 1))


def lambert_w(z, m=0, logz=None):
    """Branch m of the Lambert W function: the w with w e^w = z on the
    branches of Corless, Gonnet, Hare, Jeffrey & Knuth (Adv. Comput. Math. 5,
    1996), with counter-clockwise continuity: a real z on a branch cut lies
    on its upper side, or on its lower side when its imaginary part is -0.0
    (as in scipy.special.lambertw, except that scipy reads -0.0 as +0.0 for
    W_-1 on (-1/e, 0)).  z != 0.

    The seed is the branch-point series in p = +-sqrt(2(e z + 1)) near
    z = -1/e on the branches that meet there (m = 0, and m = -1 above the
    cut or m = 1 below it), Log(1 + z) for m = 0 and small |z|, and
    otherwise Corless's asymptotic L1 - L2 + L2/L1 with L1 = Log z + 2 pi i m
    and L2 = Log L1 (also for m = 0 within 1e-2 of the cut on (-1, -1/e),
    where Log(1 + z) is nearly real and W_0 is not).  Halley's iteration on
    w - z e^-w then polishes it;
    z e^-w is formed as exp(Log z - w), so nothing overflows.  A caller
    that holds Log z passes it as logz; then z may be a non-finite rounding
    of a |z| beyond the float range, and Log z alone places the seed.
    Where W_m is real on the real axis (m = 0 right of -1/e, and on
    (-1/e, 0) the branch m = -1 above or m = 1 below) a finite real z gets
    a real w, whose imaginary part is the signed zero of z's.
    """
    z = complex(z)
    on_axis = z.imag == 0
    if on_axis and math.copysign(1.0, z.imag) < 0:
        # mixed complex-float arithmetic below reads -0.0 as +0.0; the lower
        # side of a cut is the mirror image of the upper side of branch -m
        return lambert_w(z.conjugate(), -m,
                         None if logz is None else logz.conjugate()).conjugate()
    if logz is None:
        logz = cmath.log(z)
    q = math.e * z + 1.0
    if abs(q) < 0.3 and (m == 0 or m == -math.copysign(1.0, z.imag)):
        p = cmath.sqrt(2.0 * q) * (1 if m == 0 else -1)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
    elif (m == 0 and abs(z) < 2.0 and abs(1.0 + z) > 0.5
          and not (-1.0 < z.real < -1.0 / math.e and abs(z.imag) < 1e-2)):
        w = cmath.log(1.0 + z)
    else:
        l1 = logz + complex(0.0, TWO_PI * m)
        l2 = cmath.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(30):
        t = cmath.exp(logz - w)
        g = w - t
        d = 1.0 + t
        if d == 0:
            break
        step = g / (d + 0.5 * g * t / d)
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    if on_axis and -1.0 / math.e < z.real < math.inf and z.real != 0 and (
            m == 0 or m == -1 and z.real < 0):
        # W_m is real here, but Log z of a negative z carries the rounding
        # of sin(pi) into t
        return complex(w.real, 0.0)
    return w


#: a tracking step from c is sized for |t(c)| (e^delta - 1) = STEP_TARGET
#: |1 + t(c)| and accepted while that bound stays below STEP_ACCEPT |1 + t(c)|
#: (see _track); the gap absorbs the step solver's last Newton iterate
STEP_TARGET = 0.5
STEP_ACCEPT = 0.75
LN_TARGET = math.log(STEP_TARGET)
LN_ACCEPT = math.log(STEP_ACCEPT)

#: inside this radius the tracker bounds |f(z) - f(c)| directly, since
#: f(0) = 1 where the split f = D (1 + t) needs Log l; its steps are at most
#: this long, so every power of |l| it takes stays below 1
ORIGIN_RADIUS = 0.5

#: above this |A| the tracker forms |A| |l|^k near the origin in logarithms
#: (_origin_radius_scaled): there |A| k may overflow, and |A| times the
#: rounding of a subnormal power of |l| is no longer negligible
HUGE_A = 1e280
LN_HUGE_A = math.log(HUGE_A)

#: the tracker refuses a step whose size rests on a scaled |f| at c below
#: STEP_FLOOR times the rounding scale of its evaluation: the sum of the
#: moduli of the terms of w = Log A + k Log c - c (about eps times it is the
#: error of w, so of t relative), or 1 + k near the origin (the error of
#: e^c + A c^k relative to its larger term).  At 1e-12, about 4500 eps,
#: rounding moves |1 + t| by under 1e-3 relative, far inside the
#: STEP_TARGET / STEP_ACCEPT gap.  Beyond |c| of about 1e12 the floor
#: exceeds any |1 + t|: no step there can be proven
STEP_FLOOR = 1e-12

#: a line step proven on its path (_path_length, _path_clear) needs the
#: endpoint bound on Re w to clear 0 by PATH_MARGIN times the moduli of the
#: bound's terms, ln|A|, k (|ln|z|| + 1) and Re z: about 45 eps, where the
#: bound's own rounding is a few eps times that sum
PATH_MARGIN = 1e-14


def _log1p_exp(x):
    """log(1 + e^x) without overflow."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _cofactor_radius(k, c, ln_tau, mu, cap):
    """Largest rho <= min(cap, |c| / 2) with |t(c)| (e^delta - 1) <=
    STEP_TARGET |1 + t(c)|, returned once the bound is below
    STEP_ACCEPT |1 + t(c)|; ln_tau = ln|t(c)| = -|Re w(c)| and
    mu = |1 + t(c)| > 0.  The bound is taken in logarithms, so a
    |t(c)| below the float range still bounds the step by about |Re w(c)|.

    With h = z - c and s = rho / |c|, w(z) - w(c) = (k/c - 1) h
    + k (log(1 + h/c) - h/c), so over |h| <= rho
      |w(z) - w(c)| <= delta = |k/c - 1| rho + k (-log(1 - s) - s),
    which keeps the cancellation in w' = k/l - 1 near l = k, where double
    zeros sit.  delta is convex and at least |k/c - 1| rho + k s^2 / 2, so
    Newton from that quadratic's root (capped) stays above the root of
    delta = log(1 + STEP_TARGET mu / |t(c)|) and falls to it monotonically.
    """
    r = abs(c)
    top = 0.5 * r
    if cap < top:
        top = cap
    lm = math.log(mu) - ln_tau
    target = _log1p_exp(lm + LN_TARGET)
    accept = _log1p_exp(lm + LN_ACCEPT)
    slope = abs(k / c - 1.0)
    curve = k / (r * r)
    rho = 2.0 * target / (slope + math.sqrt(slope * slope + 2.0 * curve * target))
    if rho > top:
        rho = top
    for _ in range(30):
        s = rho / r
        d = slope * rho - k * (math.log1p(-s) + s)
        if d < accept:
            return rho
        rho -= (d - target) / (slope + k / r * s / (1.0 - s))
    return 0.0


def _origin_radius(k, ea, aa, r, fmod, cap):
    """Largest rho <= min(cap, ORIGIN_RADIUS) with
    |e^c| (e^rho - 1) + |A| ((r + rho)^k - r^k) <= STEP_TARGET |f(c)|, a bound
    on |f(z) - f(c)| over |z - c| <= rho; ea = |e^c|, aa = |A|, r = |c| and
    fmod = |f(c)|.  Returned once the bound is below STEP_ACCEPT |f(c)|.

    The bound is convex in rho and 0 at 0, so its tangent there is below it
    and Newton from where that tangent meets the target falls to the root
    from above.
    """
    top = ORIGIN_RADIUS if cap > ORIGIN_RADIUS else cap
    target = STEP_TARGET * fmod
    accept = STEP_ACCEPT * fmod
    rho = target / (ea + aa * k * r ** (k - 1))
    if rho > top:
        rho = top
    rk = r ** k
    for _ in range(30):
        b = ea * math.expm1(rho) + aa * ((r + rho) ** k - rk)
        if b < accept:
            return rho
        rho -= (b - target) / (ea * math.exp(rho) + aa * k * (r + rho) ** (k - 1))
    return 0.0


def _origin_radius_scaled(k, ea, lna, r, lark, fmod, cap):
    """_origin_radius for |A| above HUGE_A, from lna = ln|A| and
    lark = ln(|A| r^k) (-inf at r = 0).  The polynomial term
    |A| ((r + rho)^k - r^k) is formed as |A| r^k expm1(k log1p(rho / r)), so
    no power of r is formed and the difference keeps its relative precision;
    where |A| r^k underflows it is |A| (r + rho)^k, formed in logarithms.

    Newton starts from where each term alone meets the target, the smaller
    of the two: both lie above the root, and from there it falls to the
    root without forming anything that overflows.
    """
    top = ORIGIN_RADIUS if cap > ORIGIN_RADIUS else cap
    target = STEP_TARGET * fmod
    accept = STEP_ACCEPT * fmod
    ark = math.exp(lark)
    rho = math.log1p(target / ea)
    if ark:
        g = _log1p_exp(math.log(target) - lark) / k  # (1 + rho/r)^k = 1 + target/ark
        alone = r * math.expm1(g) if g < 1.0 else math.exp(math.log(r) + g)
    else:
        alone = math.exp((math.log(target) - lna) / k)
    if alone < rho:
        rho = alone
    if rho > top:
        rho = top
    for _ in range(30):
        if ark:
            g = k * math.log1p(rho / r)
            poly = ark * math.expm1(g) if g < 700.0 else math.exp(lark + g)
        else:
            poly = math.exp(lna + k * math.log(r + rho))
        b = ea * math.expm1(rho) + poly
        if b < accept:
            return rho
        step = r + rho
        rho -= (b - target) * step / (step * ea * math.exp(rho) + k * (ark + poly))
    return 0.0


def _path_length(k, c, u, g, m):
    """How far from c along the unit direction u the endpoint bounds of
    _path_clear keep Re w below -m (g = Re w(c) < -m: e^l dominates) or
    above m (g > m: A l^k dominates), in closed form; inf when nothing
    limits it.

    Over [c, c + s u], with r = |c|: ln max|z| <= ln r + s / r, and for
    s <= r / 2, ln dist(0, S) >= ln r - 2 s / r.  Where Re z falls along u
    (e^l) or rises (A l^k), it moves by s |u_x| against the margin, so
    s = (|g| - m) / (k / r + |u_x|), or (g - m) / (2 k / r + |u_x|) capped
    at r / 2.  Otherwise Re z is bounded by Re c and only |z| counts: it may
    grow to r e^x, or the segment may come down to r e^-x from 0, where
    x = (|g| - m) / k, which the quadratic |c + s u|^2 = R^2 places.
    """
    r = abs(c)
    ux = u.real
    b = c.real * ux + c.imag * u.imag  # |c| d|z|/ds at c
    x = (abs(g) - m) / k
    if g < 0.0:
        if ux < 0.0:
            return (x * k) / (k / r - ux)
        if x > 350.0:
            return math.inf
        room = r * r * math.expm1(2.0 * x)  # R^2 - r^2, R = r e^x
        root = math.sqrt(b * b + room)
        return room / (b + root) if b > 0.0 else root - b
    if ux > 0.0:
        s = (x * k) / (2.0 * k / r + ux)
        return s if s < 0.5 * r else 0.5 * r
    room = -r * r * math.expm1(-2.0 * x)  # r^2 - R^2, R = r e^-x
    disc = b * b - room
    if b >= 0.0 or disc < 0.0:  # the line never comes within R of 0
        return math.inf
    return room / (math.sqrt(disc) - b)


def _path_clear(k, lna, c, c1, expdom):
    """Whether the endpoint bound proves |t| < 1 on the segment S = [c, c1],
    with t of the factor chosen at c:
      sup_S Re w <= ln|A| + k ln max|z| - min Re z < -m   (e^l dominates),
      inf_S Re w >= ln|A| + k ln dist(0, S) - max Re z > m   (A l^k),
    since |z| is convex and Re z linear along S.  m is PATH_MARGIN times
    the moduli of the bound's terms; where dist(0, S) is the distance to
    the line, formed from a cross product, k times its condition number
    joins them (1 for an axis-aligned side).  False for c1 = 0, where the
    step's end has no w: a side that ends at the origin reaches it by
    disk steps and the direct bound, which evaluates f(0) = 1."""
    if c1 == 0:
        return False
    cond = 0.0
    if expdom:
        r = max(abs(c), abs(c1))
        x = min(c.real, c1.real)
    else:
        d = c1 - c
        along = -(c.real * d.real + c.imag * d.imag)
        dd = d.real * d.real + d.imag * d.imag
        if along <= 0.0:
            r = abs(c)
        elif along >= dd:
            r = abs(c1)
        else:
            p, q = c.real * d.imag, c.imag * d.real
            r = abs(p - q) / math.sqrt(dd)
            if not r > 0.0:
                return False
            cond = (abs(p) + abs(q)) / abs(p - q)
        x = max(c.real, c1.real)
    lr = math.log(r)
    bound = lna + k * lr - x
    m = PATH_MARGIN * (abs(lna) + k * (abs(lr) + 1.0 + cond) + abs(x))
    return bound < -m if expdom else bound > m


def _exponent(k, log_a, c):
    """w = Log A + k Log c - c at c != 0, and its rounding scale, the sum
    of its terms' moduli."""
    loglam = cmath.log(c)
    return log_a + k * loglam - c, abs(log_a) + k * abs(loglam) + abs(c)


def _where(arc, p, c):
    """Where a tracked point lies, the way its piece is parametrised."""
    return f"near {c:.6g}" if arc is None else f"(arc at angle {p:.3g})"


def _track(k, log_a, point, p0, p1, arc, u, budget):
    """(change of arg f, steps, smallest scaled |f| at a step's start) along
    point(p) for p from p0 up to p1: a line in the unit direction u
    parametrised by arc length (arc None), or an arc of radius `arc`
    parametrised by angle (u None).

    For |c| >= ORIGIN_RADIUS, f = D (1 + t) as in _cofactor, chosen at
    c = point(p).  On a line where |Re w(c)| exceeds the path margin
    (PATH_MARGIN, see _path_clear), the step first goes as far as the
    endpoint bound on Re w proves |t| < 1 on the step's path
    (_path_length; Ying & Katz, Numer. Math. 53, 1988), and the bound is
    checked in floats at the step's two ends before the step is taken.
    Where that step stops short of the line's end, or on an arc, the step
    may instead be proven on the disk |z - c| <= rho that holds its path,
    whichever is longer: on the disk |w(z) - w(c)| <= delta (see
    _cofactor_radius, rho <= |c| / 2), so |t(z) - t(c)| <=
    |t(c)| (e^delta - 1) < STEP_ACCEPT |1 + t(c)|.  Either way 1 + t has no
    zero on the step and its change of argument is the principal phase of
    (1 + t(c1)) / (1 + t(c)), t(c1) taken with the factor chosen at c.  The
    change of arg D is exact: Im(c1 - c) for e^l, k Arg(c1 / c) for A l^k.
    Nearer the origin the step bounds |f(z) - f(c)| below
    STEP_ACCEPT |f(c)| (_origin_radius, or _origin_radius_scaled for |A|
    above HUGE_A) and adds the phase of f(c1) / f(c).  Every step, path
    steps too, starts with the floor check: a step from a scaled |f| below
    the rounding floor (STEP_FLOOR), or one too short to move p, raises
    ZeroOnContourError, naming c (an arc: its angle); more than `budget`
    steps raise QuadratureStalledError.
    """
    a = cmath.exp(log_a)
    lna = log_a.real
    huge = lna > LN_HUGE_A
    aa = None if huge else abs(a)
    total = 0.0
    steps = 0
    minmod = math.inf
    p = p0
    c = point(p)
    w = fc = None  # w (with its rounding scale) or f at c, carried from the step ending there
    while p < p1:
        steps += 1
        if steps > budget:
            raise QuadratureStalledError("step budget exhausted")
        r = abs(c)
        rem = p1 - p
        if arc is None:
            cap = rem
        else:  # the chord to the arc's end, at most a quarter turn away
            cap = 2.0 * arc * math.sin(0.5 * (rem if rem < HALF_PI else HALF_PI))
        direct = r < ORIGIN_RADIUS
        if direct:
            if fc is None:
                fc = cmath.exp(c) + a * c ** k
            ea = math.exp(c.real)
            fmod = abs(fc)
            if huge:
                lark = lna + k * math.log(r) if r else -math.inf
                ark = math.exp(lark)
            else:
                ark = aa * r ** k
            mod = fmod / max(ea, ark)
            scale = 1.0 + k
        else:
            if w is None:
                w, scale = _exponent(k, log_a, c)
            expdom = w.real <= 0.0
            t = cmath.exp(w if expdom else -w)
            mod = abs(1.0 + t)
        if mod < minmod:
            minmod = mod
        floor = STEP_FLOOR * scale
        if mod < floor:
            raise ZeroOnContourError(f"scaled |f| = {mod:.3g} is below the rounding floor "
                                     f"{floor:.3g} on the contour {_where(arc, p, c)}")
        rho = q = None
        if u is not None and not direct:
            # 4 times the margin at c, PATH_MARGIN (|ln|A|| + k (|ln|c|| + 1)
            # + |Re c|), k ln|c| read off w: the far end's margin is at most
            # 3 times it
            g = w.real
            m = 4.0 * PATH_MARGIN * (abs(lna) + abs(g - lna + c.real) + k + abs(c.real))
            if abs(g) > m:
                s = _path_length(k, c, u, g, m)
                if s >= rem:
                    q = p1
                else:
                    rho = _cofactor_radius(k, c, -abs(g), mod, cap)
                    if s > rho:
                        q = p + s
                if q is not None:
                    c1 = point(q)
                    if not (q > p and _path_clear(k, lna, c, c1, expdom)):
                        q = None
        if q is None:
            if rho is None:
                if huge and direct:
                    rho = _origin_radius_scaled(k, ea, lna, r, lark, fmod, cap)
                elif direct:
                    rho = _origin_radius(k, ea, aa, r, fmod, cap)
                else:
                    rho = _cofactor_radius(k, c, -abs(w.real), mod, cap)
            if rho >= cap:
                q = p1 if arc is None or rem <= HALF_PI else p + HALF_PI
            else:
                q = p + (rho if arc is None else 2.0 * math.asin(0.5 * rho / arc))
                if not q > p:
                    raise ZeroOnContourError(f"proven step {rho:.3g} does not move the point "
                                             f"on the contour {_where(arc, p, c)}")
            c1 = point(q)
        if direct:
            f1 = cmath.exp(c1) + a * c1 ** k
            total += cmath.phase(f1 / fc)
            fc, w = f1, None
        else:
            w1, scale1 = _exponent(k, log_a, c1)
            t1 = cmath.exp(w1 if expdom else -w1)
            total += ((c1.imag - c.imag) if expdom else k * cmath.phase(c1 / c)) \
                + cmath.phase((1.0 + t1) / (1.0 + t))
            fc, w, scale = None, w1, scale1
        p, c = q, c1
    return total, steps, minmod


def line_segment_logderiv(k, log_a, z0, z1, budget):
    """Im of the integral of f'/f along the segment z0 -> z1, the exact
    change of arg f, by proven steps (see _track): off the zero strip a step
    is proven on its path, from Re w at its two ends, so a side away from
    the strip takes a few steps whatever its length, and only where
    |Re w| is near 0, about the zeros, are steps sized by a disk.

    Returns (that change, steps taken, smallest scaled |f| at a step's
    start); at most `budget` steps.
    """
    length = abs(z1 - z0)
    if length == 0.0:
        return 0.0, 0, math.inf
    u = (z1 - z0) / length
    return _track(k, log_a, lambda s: z1 if s >= length else z0 + u * s, 0.0, length, None,
                  u, budget)


def arc_segment_logderiv(k, log_a, center, radius, t0, t1, budget):
    """Im of the integral of f'/f along the arc of the circle
    |l - center| = radius from angle t0 up to t1, as line_segment_logderiv.
    """
    return _track(k, log_a, lambda t: center + cmath.rect(radius, t), t0, t1, radius, None,
                  budget)


def sample_exterior_margin(k, log_a, s_branch, side, h, r_in, r_max,
                           bound_kind, n, seed):
    """Sample an exterior region and track the worst lower-bound margin.

    Points are drawn log-uniformly in radius over [r_in, r_max] and uniformly
    in angle, then rejected against the region predicate
        offset = Re l + (-1)^s_branch * k * ln|l|,
        side < 0: offset < -h,   side > 0: offset > h.
    The margin is log|f| minus the log of the claimed bound:
        bound_kind 1:  (|A|/2) |l|^k      bound_kind 2:  |e^l| / 2.
    It is taken from the drawn ln|l| and arg l: with
    w = ln|A| + k ln|l| - Re l + i (arg A + k arg l - Im l), |f| is the
    dominant term times |1 + t| (see _cofactor), so the margin is
    ln 2 + ln|1 + t|, less Re w where e^l dominates (Re w <= 0) under
    bound 1, plus Re w where A l^k dominates under bound 2; a point beyond
    _skip_cut(minimum so far, ln 2) is counted but not evaluated.  A draw
    past an angle cut (_region_cuts, _skip_angles) is rejected, or counted
    as accepted and skipped, from u2 alone.
    Returns (min_log_margin, worst_re, worst_im, ok); ok = 0 after
    REJECTION_BUDGET consecutive rejections.
    """
    lr0 = math.log(r_in)
    lspan = math.log(r_max) - lr0
    lr1 = lr0 + lspan
    sgn = -1.0 if s_branch == 1 else 1.0
    lna = log_a.real
    arga = log_a.imag
    rej_below, rej_above, acc_below, acc_above = _region_cuts(
        k, sgn, -1 if side < 0 else 1, h, lr0, lr1)
    # certainly accepted and skipped: v in (acc_below, skip_below) or in
    # (skip_above, acc_above), the skip cuts clipped to the accept cuts;
    # both empty until the first margin
    skip_below, skip_above = acc_below, acc_above
    accepted = 0
    consec = 0
    minlog = math.inf
    wcut = math.inf
    wre = 0.0
    wim = 0.0
    for u1, u2 in uniform_pairs(seed):
        v = u2 - 0.5
        if v < 0.0:
            v = -v
        if v < rej_below or v > rej_above:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minlog, wre, wim, 0
            continue
        if acc_below < v < skip_below or skip_above < v < acc_above:
            consec = 0
            accepted += 1
            if accepted >= n:
                break
            continue
        lr = lr0 + u1 * lspan
        r = math.exp(lr)
        th = -PI + TWO_PI * u2
        xre = r * math.cos(th)
        klr = k * lr
        off = xre + sgn * klr
        if side < 0:
            inside = off < -h
        else:
            inside = off > h
        if not inside:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minlog, wre, wim, 0
            continue
        consec = 0
        wr = lna + klr - xre
        if -wcut <= wr <= wcut:
            xim = r * math.sin(th)
            lm = LN2 + _log_abs_1p(wr, arga + k * th - xim)
            if wr <= 0.0:
                if bound_kind == 1:
                    lm -= wr
            elif bound_kind == 2:
                lm += wr
            if lm < minlog:
                minlog = lm
                wre = xre
                wim = xim
                wcut = _skip_cut(minlog, LN2)
                skip_below, skip_above = _skip_angles(lna, k, wcut, lr0, lr1)
                skip_below = min(skip_below, acc_above)
                skip_above = max(skip_above, acc_below)
        accepted += 1
        if accepted >= n:
            break
    return minlog, wre, wim, 1


def sample_strip_sector(k, s_branch, h, r_in, r_max, delta, n, seed):
    """Sample the curvilinear strip and measure sector containment.

    margin = delta - |arg l -+ pi/2| (sign matched to the half-plane).
    Returns (min_margin, worst_re, worst_im, violations, ok); a violation is
    a sampled strip point outside both sectors (margin <= 0).  A draw past
    an angle cut (_region_cuts) is rejected from u2 alone.
    """
    lr0 = math.log(r_in)
    lspan = math.log(r_max) - lr0
    lr1 = lr0 + lspan
    sgn = -1.0 if s_branch == 1 else 1.0
    rej_below, rej_above, _acc_below, _acc_above = _region_cuts(k, sgn, 0, h, lr0, lr1)
    accepted = 0
    consec = 0
    violations = 0
    minmargin = math.inf
    wre = 0.0
    wim = 0.0
    for u1, u2 in uniform_pairs(seed):
        v = u2 - 0.5
        if v < 0.0:
            v = -v
        if v < rej_below or v > rej_above:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minmargin, wre, wim, violations, 0
            continue
        lr = lr0 + u1 * lspan
        r = math.exp(lr)
        th = -PI + TWO_PI * u2
        xre = r * math.cos(th)
        off = xre + sgn * (k * lr)
        if off < -h or off > h:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minmargin, wre, wim, violations, 0
            continue
        consec = 0
        xim = r * math.sin(th)
        if xim >= 0.0:
            dev = th - 0.5 * PI
        else:
            dev = th + 0.5 * PI
        if dev < 0.0:
            dev = -dev
        margin = delta - dev
        if margin <= 0.0:
            violations += 1
        if margin < minmargin:
            minmargin = margin
            wre = xre
            wim = xim
        accepted += 1
        if accepted >= n:
            break
    return minmargin, wre, wim, violations, 1


def _strip_decision(k, h, r_in, im_cap, delta, zre, zim):
    """(y_dec, zone_lo, zone_hi) for sample_strip_ratio: a draw (y, t) with
    |y| >= y_dec and t outside [zone_lo, zone_hi] passes the solve's checks
    and lies at least delta from every listed zero.  (inf, -inf, inf),
    nothing decided, where y_dec would exceed im_cap, where im_cap exceeds
    STRIP_IM_CAP or where the bound on |Re l| below exceeds STRIP_SCALE_CAP.

    y_dec = max(r_in (1 + 1e-12), 4k, 2 delta).  The float r2 is at least
    the float y^2, so r = sqrt(r2) >= r_in and r2 != 0.  The fixed-point map
    g(x) = t + (k/2) ln(x^2 + y^2) has slope k|x|/r^2 <= k/(2|y|) <= 1/8, so
    the solution x* is unique and every Newton step takes the Newton branch
    (|gp - 1| <= 1/8).  With big >= h + k + 1 and
    h + k ln(im_cap + big) + 1 <= big, x* <= h + k ln(x* + im_cap) gives
    |x*| <= big, and |k ln r| <= big + h.  From x = g(0),
    |x - x*| <= (k/2) ln(1 + big^2/y^2); three fixed-point steps divide that
    by 512, and Newton's error e -> 4k/(7 y^2) e^2 then reaches the rounding
    floor within three steps: each step rounds by at most
    eta = 10 eps (2 big + h + k) < 5e-11 under STRIP_SCALE_CAP, so the
    solve ends with |resid| at most a few eta (an exact repeat included,
    where |f/f'| rounds to nothing), far below 1e-9.

    The solved point P then has |t(P) - t| <= 1e-9 + eta, t(l) =
    Re l - k ln|l|.  Within reach = delta (1 + 1e-12) of P every point has
    |Im| >= y_dec - reach > 0, where |grad t| <= 1 + k/|l|; so a listed zero
    Z within reach of P has |t(Z) - t(P)| < reach (1 + k/(y_dec - reach)).
    The zone is the listed zeros' t(Z) widened by that, by STRIP_SLACK and
    by 1e-12 of the terms each t(Z) is formed from: a draw outside it is
    at least reach from every zero, and the float test
    dx^2 + dy^2 < delta^2 (rounding a few eps) cannot fire.  Zeros with
    |Im Z| <= y_dec - 2 delta or beyond im_cap + 2 delta lie more than
    reach from every decided draw and are left out.
    """
    nothing = (math.inf, -math.inf, math.inf)
    y_dec = max(r_in * (1.0 + 1e-12), 4.0 * k, 2.0 * delta)
    if y_dec > im_cap or im_cap > STRIP_IM_CAP:
        return nothing
    big = h + k + 1.0
    while big <= STRIP_SCALE_CAP and h + k * math.log(im_cap + big) + 1.0 > big:
        big *= 2.0
    if big > STRIP_SCALE_CAP:
        return nothing
    reach = delta * (1.0 + 1e-12)
    widen = reach * (1.0 + k / (y_dec - reach)) + STRIP_SLACK
    y_lo = y_dec - 2.0 * delta
    y_hi = im_cap + 2.0 * delta
    zone_lo = math.inf
    zone_hi = -math.inf
    for zr, zi in zip(zre, zim):
        if y_lo < abs(zi) <= y_hi:
            kl = k * math.log(math.hypot(zr, zi))
            tz = zr - kl
            err = 1e-12 * (abs(zr) + abs(kl))
            zone_lo = min(zone_lo, tz - err - widen)
            zone_hi = max(zone_hi, tz + err + widen)
    return y_dec, zone_lo, zone_hi


def _strip_band(zone_lo, zone_hi, lna, wcut):
    """(t_lo, t_hi): sample_strip_ratio decides a draw with |y| >= y_dec and
    t below t_lo or above t_hi.  The hull of the zone and of the skip band
    |t - ln|A|| <= wcut + STRIP_SLACK, where the solved point's
    Re w = ln|A| - t - resid, with the rounding of Re w, may lie within
    wcut; (-inf, inf) while wcut is infinite."""
    if wcut == math.inf:
        return -math.inf, math.inf
    reach = wcut + STRIP_SLACK
    return min(zone_lo, lna - reach), max(zone_hi, lna + reach)


def sample_strip_ratio(k, log_a, h, r_in, im_cap, delta, zre, zim, n, seed):
    """Sample the punctured strip and track the minimum of |f|/|l|^k.

    Coordinates are (y, t) uniform over [-im_cap, im_cap] x [-h, h] with
    Re l solved from Re l - k ln|l| = t; points with |l| < r_in or within
    delta of a listed zero (zre/zim sorted by imaginary part) are rejected.
    The log ratio is ln|A| + ln|1 + t|, less Re w where e^l dominates, with
    w as in sample_exterior_margin from k ln|l| (kept from the residual
    check) and arg l; a point beyond _skip_cut(minimum so far, ln|A|) is
    counted but not evaluated.  A draw with |y| >= y_dec and t outside the
    listed zeros' widened t-band and the skip band |t - ln|A|| <= wcut
    (_strip_decision, _strip_band; the skip band is reset only when the
    minimum falls) is counted as accepted and skipped before the solve: the
    solve would pass its checks there, no zero lies within delta, and
    |Re w| = |ln|A| - t - residual| > wcut, the bands being widened by
    STRIP_SLACK for the 1e-9 residual and the rounding.  The Newton solve
    for Re l stops early once an iterate repeats exactly; the k ln|l| of
    that repeat is the residual check's, one rounding of k ln(r^2)/2.
    Returns (min_log_ratio, worst_re, worst_im, ok).
    """
    lna = log_a.real
    arga = log_a.imag
    nz = len(zre)
    d2 = delta * delta
    hk = 0.5 * k
    y_dec, zone_lo, zone_hi = _strip_decision(k, h, r_in, im_cap, delta, zre, zim)
    t_lo = -math.inf
    t_hi = math.inf
    accepted = 0
    consec = 0
    minlog = math.inf
    wcut = math.inf
    wre = 0.0
    wim = 0.0
    for u1, u2 in uniform_pairs(seed):
        y = -im_cap + (2.0 * im_cap) * u1
        t = -h + (2.0 * h) * u2
        if (t < t_lo or t > t_hi) and (y >= y_dec or y <= -y_dec):
            consec = 0
            accepted += 1
            if accepted >= n:
                break
            continue
        ay = y if y >= 0.0 else -y
        if ay < 1e-300:
            ay = 1e-300
        x = t + k * math.log(ay)
        bad = False
        klr = None
        for _ in range(3):
            r2 = x * x + y * y
            if r2 == 0.0:
                bad = True
                break
            x = t + hk * math.log(r2)
        if not bad:
            for _ in range(6):
                r2 = x * x + y * y
                if r2 == 0.0:
                    bad = True
                    break
                kln = hk * math.log(r2)
                gp = 1.0 - k * x / r2
                if gp < 0.5 and gp > -0.5:
                    x1 = t + kln
                else:
                    x1 = x - (x - t - kln) / gp
                # an exact repeat (sign of zero included) is a fixed point:
                # the remaining steps would reproduce it bit for bit, and
                # its r2 and kln = (k/2) ln r2 are the residual check's
                if x1 == x and (x1 != 0.0 or math.copysign(1.0, x1) == math.copysign(1.0, x)):
                    klr = kln
                    break
                x = x1
        if not bad:
            if klr is None:
                r2 = x * x + y * y
            r = math.sqrt(r2)
            if r < r_in:
                bad = True
            else:
                if klr is None:
                    klr = k * (0.5 * math.log(r2))
                resid = x - t - klr
                if resid > 1e-9 or resid < -1e-9:
                    bad = True
        if not bad and nz > 0:
            ylo = y - delta
            lo = 0
            hi = nz
            while lo < hi:
                mid = (lo + hi) // 2
                if zim[mid] < ylo:
                    lo = mid + 1
                else:
                    hi = mid
            i = lo
            yhi = y + delta
            while i < nz and zim[i] <= yhi:
                dx = x - zre[i]
                dy = y - zim[i]
                if dx * dx + dy * dy < d2:
                    bad = True
                    break
                i += 1
        if bad:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minlog, wre, wim, 0
            continue
        consec = 0
        wr = lna + klr - x
        if -wcut <= wr <= wcut:
            lm = lna + _log_abs_1p(wr, arga + k * math.atan2(y, x) - y)
            if wr <= 0.0:
                lm -= wr
            if lm < minlog:
                minlog = lm
                wre = x
                wim = y
                wcut = _skip_cut(minlog, lna)
                t_lo, t_hi = _strip_band(zone_lo, zone_hi, lna, wcut)
        accepted += 1
        if accepted >= n:
            break
    return minlog, wre, wim, 1
