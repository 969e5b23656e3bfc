"""Seeded rejection samplers of the paper's lower bounds: the exterior
margins of T1 and T2, the strip's sector containment, and |f|/|l|^k over the
punctured strip (C_delta), with the streams they draw from.

bounds runs them; this module imports no other module of the package, so
a command that only samples (bounds, sector-radius) loads none of the
zero-finding kernels of _kernels_py.  The contract is the kernels':
identical argv and seed give a byte-identical document at one commit.

Conventions:
  * f(l) = e^l + A l^k; the samplers take k and, where they evaluate f,
    log_a = ln|A| + i arg A, as the kernels of _kernels_py do
  * a sampler accepts n >= 1 points, drawing its uniforms from
    uniform_pairs(seed), the Mersenne Twister stream of random.Random(seed),
    so a seed fully determines the samples; sm64 (splitmix64) only derives
    the substream seeds (bounds.derive_substream)
  * a sampler takes each accepted point's margin from what its draw already
    computed: w = Log A + k Log l - l is formed from the point's ln|l| and
    arg l, |f| is the dominant term times |1 + t| (see
    _kernels_py._cofactor), and ln|1 + t| comes from _log_abs_1p, so no point costs a complex logarithm
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

import math
import random
from bisect import bisect_left

M64 = 0xFFFFFFFFFFFFFFFF
PI = math.pi
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)
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
    """ln|1 + t| for t = e^(-|wr|) e^(+-i wi), the co-factor of
    _kernels_py._cofactor with w = wr + i wi; -inf at an exact zero.

    |1 + t|^2 = 1 + x with x = e (2 cos wi + e) and e = |t|.  At a zero x
    is -1, where log1p raises, so any x <= -1 reads as a zero.
    """
    e = math.exp(-abs(wr))
    x = e * (2.0 * math.cos(wi) + e)
    if x <= -1.0:
        return -math.inf
    return 0.5 * math.log1p(x)


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
    dominant term times |1 + t| (see _kernels_py._cofactor), so the margin is
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
            i = bisect_left(zim, y - delta)
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
