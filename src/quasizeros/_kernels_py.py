"""Pure-Python kernels: overflow-safe evaluation, Newton polish, the Rouche
disk test, the Lambert W function and argument tracking along contour
pieces.  The seeded rejection samplers of the lower bounds live in
_sampling, which a command loads only when it samples.

This is the package's only kernel implementation; the other modules import
it through quasizeros._backend.  A name this module lacks resolves from
_sampling (see __getattr__).  The contract is reproducibility: identical
argv and seed give a byte-identical document at one commit.  Reordering a
floating-point step may change the last bits of the documents and of the
sample streams between commits.

Conventions:
  * the quasipolynomial is f(l) = e^l + A l^k; kernels take k, the complex
    logarithm log_a = ln|A| + i arg A (computed once per QuasiPolynomial),
    and complex points
  * the per-zero kernels take and give columns, one list per field, in one
    loop in one frame per call: lambert_w_list (one z, many branches),
    newton_polish_list (many seeds) and rouche_holds_list (many disks), so
    the zeros reach their certificates with no record built in between.
    lambert_w and rouche_isolates are one-element calls into the first and
    the last, so each formula exists once, and an element of a list comes
    out bit for bit as its one-element call gives it
  * "scaled" quantities divide f by its dominant term, max(|e^l|, |A l^k|),
    so nothing overflows for |Re l| or k*ln|l| in the hundreds
  * w = Log A + k Log l - l is formed from a complex l in one place,
    _cofactor, which returns it with t and Log l; the tracker reads w and t
    there, and carries the result from a step's end to the next step
"""

import cmath
import math
import sys

from .errors import (
    DerivativeVanishesError,
    EscapedBasinError,
    MaxIterationsError,
    QuadratureStalledError,
    ZeroOnContourError,
)

PI = math.pi
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
FLOAT_MAX = sys.float_info.max


def __getattr__(name):
    """A name this module lacks, read from _sampling, which is imported on
    first use (PEP 562) and never stored here: perfbench's tracer reaches
    the samplers as _backend.kernels.sample_*, and its wrappers, bound in
    _sampling, show through."""
    from . import _sampling

    try:
        return getattr(_sampling, name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


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

    With w = Log A + k Log lam - lam, returns (expdom, t, Log lam, w) where t
    is the subdominant/dominant term (|t| <= 1), so that
      f = e^lam (1 + t)       when expdom (Re w <= 0, t = e^w)
      f = A lam^k (1 + t)     otherwise (t = e^-w).
    This is the one place w is formed from a complex lam.
    """
    loglam = cmath.log(lam)
    w = log_a + k * loglam - lam
    if w.real <= 0.0:
        return True, cmath.exp(w), loglam, w
    return False, cmath.exp(-w), loglam, w



def eval_scaled(k, log_a, lam):
    """Log f at lam: log|f| + i (principal arg f).  An exact zero gives
    complex(-inf, 0)."""
    if lam == 0:
        return 0j
    expdom, t, loglam, _w = _cofactor(k, log_a, lam)
    co = 1.0 + t
    if co == 0:
        return complex(-math.inf, 0.0)
    lf = (lam if expdom else log_a + k * loglam) + cmath.log(co)
    return complex(lf.real, wrap_angle(lf.imag))


def relative_residual(k, log_a, lam):
    """|f| / max(|e^l|, |A l^k|) at lam; equals |1 + subdominant/dominant|."""
    return residual_cofactor(k, log_a, lam)[0]


def residual_cofactor(k, log_a, lam):
    """(relative_residual, (expdom, t)) at lam from one _cofactor, the
    cofactor as rouche_holds_list takes it; (1.0, None) at lam = 0."""
    if lam == 0:
        return 1.0, None
    expdom, t, _loglam, _w = _cofactor(k, log_a, lam)
    return abs(1.0 + t), (expdom, t)


def newton_polish_list(k, log_a, seeds, tolerance, max_iterations, escape):
    """Newton iteration from each seed in turn, in one loop, until the
    relative residual is below tolerance.

    Returns the columns (values, residuals, iterations, cofactors, failure).
    For each seed up to the first that fails they hold the first iterate
    that passes, its residual, the steps taken, and (expdom, t) at it (None
    at lam = 0).  failure is that seed's error, None when every seed
    passes; the seeds after it are not polished.  Each iterate costs one
    residual_cofactor, shared by its residual and, when it does not pass,
    its Newton step f/f' = (1 + t)/u; an iterate where k/lam overflows
    steps by newton_step's tiny-lam form.  The failures are
    EscapedBasinError when an iterate lies farther than `escape` from the
    seed, DerivativeVanishesError where the step is unusable (see
    newton_step), and MaxIterationsError after max_iterations steps.
    """
    values, residuals, iterations, cofactors = columns = [], [], [], []
    for seed in seeds:
        lam = seed
        for it in range(max_iterations + 1):
            residual, cofactor = residual_cofactor(k, log_a, lam)
            if residual < tolerance:
                values.append(lam)
                residuals.append(residual)
                iterations.append(it)
                cofactors.append(cofactor)
                break
            if cofactor is None or abs(lam) * FLOAT_MAX < k:
                ratio, vanishes = newton_step(k, log_a, lam)
            else:
                ratio, vanishes = _newton_step_cofactor(k, lam, *cofactor)
            if vanishes:
                return (*columns, DerivativeVanishesError(f"f' vanishes near l = {lam:.6g}"))
            lam = lam - ratio
            if abs(lam - seed) > escape:
                return (*columns, EscapedBasinError(
                    f"Newton iterate left the seed basin (|l - seed| > {escape:g})"))
        else:
            return (*columns, MaxIterationsError(
                f"Newton refinement from {seed:.6g} did not reach {tolerance:g} "
                f"in {max_iterations} iterations"))
    return (*columns, None)


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
    expdom, t, loglam, _w = _cofactor(k, log_a, lam)
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
    u, _umag, _r, _tmag, vanishes = _derivative_cofactor(k, lam, expdom, t)
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

    Returns (u, |u|, |lam|, |t|, vanishes): u = 1 + (k/lam) t when e^lam
    dominates and t + k/lam otherwise, so f' = dominant * u; |u| is
    _modulus(u); vanishes is True when
    |u| < 1e-14 * max(|e^l|, k|A||l|^(k-1)) / dominant.  lam != 0.
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
    umag = _modulus(u)
    return u, umag, r, tmag, umag < 1e-14 * scale


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
    rouche_holds_list, from the cofactor at lam.
    """
    if lam == 0:
        return False
    expdom, t, _loglam, _w = _cofactor(k, log_a, lam)
    return rouche_holds_list(k, (lam,), ((expdom, t),), (radius,))[0]


def rouche_holds_list(k, values, cofactors, radii):
    """rouche_isolates for each disk of the columns values, cofactors and
    radii, in one loop, from the cofactor (expdom, t) of _cofactor at each
    lam != 0, so a caller that has just evaluated f at lam tests the disk
    without evaluating it again.  A radius outside (0, 700) reads as not
    proven before the cofactor is read (it may then be None).  Where k/lam
    overflows (|lam| near the float range's bottom) the scaled f' is not
    finite and the test reads as not proven, as it does with a non-finite
    f'' term (see _second_derivative_cofactor).  _exp_tail3 is formed again
    only where the radius changes."""
    holds = []
    last = None
    for lam, cofactor, radius in zip(values, cofactors, radii):
        if not 0.0 < radius < 700.0:
            holds.append(False)
            continue
        expdom, t = cofactor
        _u, umag, zabs, tmag, vanishes = _derivative_cofactor(k, lam, expdom, t)
        if vanishes or not umag < math.inf:
            holds.append(False)
            continue
        s = _second_derivative_cofactor(k, lam, expdom, t)
        if radius != last:
            last, etail = radius, _exp_tail3(radius)
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
        holds.append(abs(1.0 + t) + remainder < 0.99 * umag * radius)
    return holds


def critical_step(k, log_a, lam):
    """Newton step f'/f'' towards a critical point of f, in dominance-factored
    form (both divided by the dominant term of f); None where f'' vanishes,
    at lam = 0, and where the step is not finite (f' or f'' beyond the
    float range).  Where k/lam overflows (|lam| < k/FLOAT_MAX) the terms
    are formed as in _newton_step_tiny (_critical_step_tiny)."""
    if lam == 0:
        return None
    expdom, t, loglam, _w = _cofactor(k, log_a, lam)
    if abs(lam) * FLOAT_MAX < k:
        try:
            step = _critical_step_tiny(k, log_a, lam, expdom, t, loglam)
        except OverflowError:  # cmath.exp where A e^-lam rounds past FLOAT_MAX
            return None
    else:
        u, _umag, _r, _tmag, _vanishes = _derivative_cofactor(k, lam, expdom, t)
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
    """Branch m of the Lambert W function at z: lambert_w_list for one
    branch."""
    return lambert_w_list(z, (m,), logz)[0]


def lambert_w_list(z, ms, logz=None):
    """[W_m(z) for m in ms], one z and many branches in one loop: the w with
    w e^w = z on the branches of Corless, Gonnet, Hare, Jeffrey & Knuth
    (Adv. Comput. Math. 5, 1996), with counter-clockwise continuity: a real
    z on a branch cut lies on its upper side, or on its lower side when its
    imaginary part is -0.0 (as in scipy.special.lambertw, except that scipy
    reads -0.0 as +0.0 for W_-1 on (-1/e, 0)).  z != 0.

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
    a real w, whose imaginary part is the signed zero of z's.  What depends
    on z alone (Log z, e z + 1, which seeds apply) is formed once.
    """
    z = complex(z)
    on_axis = z.imag == 0
    # mixed complex-float arithmetic below reads -0.0 as +0.0; the lower
    # side of a cut is the mirror image of the upper side of branch -m
    lower = on_axis and math.copysign(1.0, z.imag) < 0
    if lower:
        z, ms = z.conjugate(), [-m for m in ms]
        if logz is not None:
            logz = logz.conjugate()
    if logz is None:
        logz = cmath.log(z)
    q = math.e * z + 1.0
    near = abs(q) < 0.3
    if near:
        partner = -math.copysign(1.0, z.imag)
        root = cmath.sqrt(2.0 * q)
    small = (abs(z) < 2.0 and abs(1.0 + z) > 0.5
             and not (-1.0 < z.real < -1.0 / math.e and abs(z.imag) < 1e-2))
    # W_m is real here, but Log z of a negative z carries the rounding of
    # sin(pi) into t
    real = on_axis and -1.0 / math.e < z.real < math.inf and z.real != 0
    out = []
    for m in ms:
        if near and (m == 0 or m == partner):
            p = root * (1 if m == 0 else -1)
            w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
        elif m == 0 and small:
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
        if real and (m == 0 or m == -1 and z.real < 0):
            w = complex(w.real, 0.0)
        out.append(w.conjugate() if lower else w)
    return out


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

#: the tracker refuses a step whose size rests on a scaled |f| at c below
#: STEP_FLOOR times the rounding scale of its evaluation: the sum of the
#: moduli of the terms of w = Log A + k Log c - c, formed from _cofactor's
#: Log c (about eps times it is the error of w, so of t relative), or 1 + k
#: near the origin (the error of e^c + A c^k relative to its larger term).
#: At 1e-12, about 4500 eps, rounding moves |1 + t| by under 1e-3 relative,
#: far inside the STEP_TARGET / STEP_ACCEPT gap.  Beyond |c| of about 1e12
#: the floor exceeds any |1 + t|: no step there can be proven
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


def _origin_radius(k, ea, lna, r, lark, ark, fmod, cap):
    """Largest rho <= min(cap, ORIGIN_RADIUS) with
    |e^c| (e^rho - 1) + |A| ((r + rho)^k - r^k) <= STEP_TARGET |f(c)|, a bound
    on |f(z) - f(c)| over |z - c| <= rho; ea = |e^c|, lna = ln|A|, r = |c|,
    lark = ln(|A| r^k) (-inf at r = 0), ark = e^lark and fmod = |f(c)|.
    Returned once the bound is below STEP_ACCEPT |f(c)|.

    The polynomial term is formed as |A| r^k expm1(k log1p(rho / r)), so no
    power of r is formed and the difference keeps its relative precision;
    where |A| r^k underflows, or is below e^-700 times |A| (r + rho)^k
    (rho / r may overflow there), it is |A| (r + rho)^k, formed in
    logarithms.  So nothing overflows for any |A|, up to beyond the float
    range, and a subnormal power of r is never multiplied by a huge |A|.

    The bound is convex in rho and 0 at 0.  Newton starts from where each
    term alone meets the midpoint of the target and the acceptance level,
    the smaller of the two: the bound is at least that midpoint there, so
    the start lies above the root and Newton falls to it, and where one
    term dominates the start is accepted as it is.  A start beyond 1, above
    any cap, is taken as 1, so none overflows for a tiny |A|.
    """
    top = ORIGIN_RADIUS if cap > ORIGIN_RADIUS else cap
    target = STEP_TARGET * fmod
    accept = STEP_ACCEPT * fmod
    start = 0.5 * (target + accept)
    rho = math.log1p(start / ea)
    if ark:
        g = _log1p_exp(math.log(start) - lark) / k  # (1 + rho/r)^k = 1 + start/ark
        alone = r * math.expm1(g) if g < 1.0 else math.exp(min(math.log(r) + g, 0.0))
    else:
        alone = math.exp(min((math.log(start) - lna) / k, 0.0))
    if alone < rho:
        rho = alone
    if rho > top:
        rho = top
    for _ in range(30):
        g = k * math.log1p(rho / r) if ark else math.inf  # rho / r may overflow
        poly = ark * math.expm1(g) if g < 700.0 else math.exp(lna + k * math.log(r + rho))
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


def _where(arc, p, c):
    """Where a tracked point lies, the way its piece is parametrised."""
    return f"near {c:.6g}" if arc is None else f"(arc at angle {p:.3g})"


def _track(k, log_a, point, p0, p1, arc, u, budget):
    """(change of arg f, steps, smallest scaled |f| at a step's start) along
    point(p) for p from p0 up to p1: a line in the unit direction u
    parametrised by arc length (arc None), or an arc of radius `arc`
    parametrised by angle (u None).

    For |c| >= ORIGIN_RADIUS, f = D (1 + t) as in _cofactor, chosen at
    c = point(p); a step's end takes its one _cofactor, which the next step
    starts from, and t there is formed again in the factor chosen at c only
    where the dominant term changes.  On a line where |Re w(c)| exceeds the
    path margin (PATH_MARGIN, see _path_clear), the step first goes as far
    as the endpoint bound on Re w proves |t| < 1 on the step's path
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
    STEP_ACCEPT |f(c)| (_origin_radius) and adds the phase of
    f(c1) / f(c).  Every step, path steps too, starts with the floor check:
    a step from a scaled |f| below the rounding floor (STEP_FLOOR), or one
    too short to move p, raises ZeroOnContourError, naming c (an arc: its
    angle); more than `budget` steps raise QuadratureStalledError.
    """
    a = cmath.exp(log_a)
    lna = log_a.real
    total = 0.0
    steps = 0
    minmod = math.inf
    p = p0
    c = point(p)
    cof = fc = None  # _cofactor or f at c, carried from the step ending there
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
            lark = lna + k * math.log(r) if r else -math.inf
            ark = math.exp(lark)
            mod = fmod / max(ea, ark)
            scale = 1.0 + k
        else:
            if cof is None:
                cof = _cofactor(k, log_a, c)
            expdom, t, loglam, w = cof
            scale = abs(log_a) + k * abs(loglam) + abs(c)
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
                if direct:
                    rho = _origin_radius(k, ea, lna, r, lark, ark, fmod, cap)
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
            fc, cof = f1, None
        else:
            cof = _cofactor(k, log_a, c1)
            expdom1, t1, _loglam1, w1 = cof
            if expdom1 != expdom:  # t(c1) in the factor chosen at c
                t1 = cmath.exp(w1 if expdom else -w1)
            total += ((c1.imag - c.imag) if expdom else k * cmath.phase(c1 / c)) \
                + cmath.phase((1.0 + t1) / (1.0 + t))
            fc = None
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
