"""Pure-Python kernels: overflow-safe evaluation, the Rouche disk test,
contour quadrature sums, and seeded rejection samplers.

This is the package's only kernel implementation; the other modules import
it through quasizeros._backend.  The operation order (libm
exp/log/sqrt/sin/cos/atan2 only, no hypot, no complex type, explicit re/im
arithmetic) is part of the contract: reordering a floating-point step can
change the last bits of the printed documents and of the sample streams.

Conventions:
  * the quasipolynomial is f(x+iy) = e^(x+iy) + (are+i*aim)*(x+iy)**k
  * "scaled" quantities divide f by its dominant term, max(|e^l|, |A l^k|),
    so nothing overflows for |Re l| or k*ln|l| in the hundreds
  * the RNG is splitmix64; a seed fully determines every sample stream
"""

import math

M64 = 0xFFFFFFFFFFFFFFFF
U53 = 1.0 / 9007199254740992.0  # 2**-53
PI = math.pi
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)
REJECTION_BUDGET = 1000000


def sm64(state):
    """One splitmix64 step: returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    z = z ^ (z >> 31)
    return state, z


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


def _cofactor(k, are, aim, xre, xim):
    """Dominance-factored co-factor of f at x+iy.

    Returns (expdom, co_re, co_im, t_re, t_im, lnr, theta, la, aarg) where
    t = subdominant/dominant term (|t| <= 1) and co = 1 + t, so that
      f = e^l * co            when expdom (Re l - k ln|l| >= ln|A|)
      f = A l^k * co          otherwise.
    Caller must ensure x+iy != 0.
    """
    r2 = xre * xre + xim * xim
    lnr = 0.5 * math.log(r2)
    theta = math.atan2(xim, xre)
    la = 0.5 * math.log(are * are + aim * aim)
    aarg = math.atan2(aim, are)
    d = xre - k * lnr - la
    if d >= 0.0:
        gre = -d
        gim = aarg + k * theta - xim
        m = math.exp(gre)
        tre = m * math.cos(gim)
        tim = m * math.sin(gim)
        return True, 1.0 + tre, tim, tre, tim, lnr, theta, la, aarg
    qre = d
    qim = xim - k * theta - aarg
    m = math.exp(qre)
    tre = m * math.cos(qim)
    tim = m * math.sin(qim)
    return False, 1.0 + tre, tim, tre, tim, lnr, theta, la, aarg


def _logmag(k, are, aim, xre, xim):
    """(log|f|, ln|l|, ln|A|) at x+iy != 0, computed without overflow."""
    expdom, cre, cim, _tre, _tim, lnr, _th, la, _aa = _cofactor(k, are, aim, xre, xim)
    c2 = cre * cre + cim * cim
    lnco = 0.5 * math.log(c2) if c2 > 0.0 else -math.inf
    if expdom:
        return xre + lnco, lnr, la
    return la + k * lnr + lnco, lnr, la


def eval_scaled(k, are, aim, xre, xim):
    """log|f| and principal arg f at x+iy.  Exact zeros give -inf magnitude."""
    if xre == 0.0 and xim == 0.0:
        return 0.0, 0.0
    expdom, cre, cim, _tre, _tim, lnr, theta, la, aarg = _cofactor(k, are, aim, xre, xim)
    c2 = cre * cre + cim * cim
    if c2 == 0.0:
        return -math.inf, 0.0
    lnco = 0.5 * math.log(c2)
    if expdom:
        return xre + lnco, wrap_angle(xim + math.atan2(cim, cre))
    return la + k * lnr + lnco, wrap_angle(aarg + k * theta + math.atan2(cim, cre))


def relative_residual(k, are, aim, xre, xim):
    """|f| / max(|e^l|, |A l^k|) at x+iy; equals |1 + subdominant/dominant|."""
    if xre == 0.0 and xim == 0.0:
        return 1.0
    _e, cre, cim, _tre, _tim, _l, _t, _a, _g = _cofactor(k, are, aim, xre, xim)
    return math.sqrt(cre * cre + cim * cim)


def newton_step(k, are, aim, xre, xim):
    """Newton ratio f/f' in dominance-factored form.

    Returns (ratio_re, ratio_im, flag); flag = 1 means |f'| fell below
    1e-14 * max(|e^l|, k|A||l|^(k-1)) and the ratio is unusable.
    """
    if xre == 0.0 and xim == 0.0:
        if k == 1:
            dre = 1.0 + are
            dim = aim
            scale = math.sqrt(are * are + aim * aim)
            if scale < 1.0:
                scale = 1.0
        else:
            dre = 1.0
            dim = 0.0
            scale = 1.0
        dd = dre * dre + dim * dim
        if math.sqrt(dd) < 1e-14 * scale:
            return 0.0, 0.0, 1
        return dre / dd, -dim / dd, 0
    expdom, cre, cim, tre, tim, _lnr, _th, _la, _aa = _cofactor(k, are, aim, xre, xim)
    ure, uim, _r, _tmag, vanishes = _derivative_cofactor(k, xre, xim, expdom, tre, tim)
    if vanishes:
        return 0.0, 0.0, 1
    den = ure * ure + uim * uim
    return (cre * ure + cim * uim) / den, (cim * ure - cre * uim) / den, 0


def _derivative_cofactor(k, xre, xim, expdom, tre, tim):
    """f' divided by the dominant term of f, from _cofactor's outputs.

    Returns (u_re, u_im, |l|, |t|, vanishes): u = 1 + (k/l) t when e^l
    dominates and t + k/l otherwise, so f' = dominant * u; vanishes is True
    when |u| < 1e-14 * max(|e^l|, k|A||l|^(k-1)) / dominant.  x+iy != 0.
    """
    r2 = xre * xre + xim * xim
    r = math.sqrt(r2)
    kre = k * xre / r2
    kim = -k * xim / r2
    tmag = math.sqrt(tre * tre + tim * tim)
    if expdom:
        ure = 1.0 + (kre * tre - kim * tim)
        uim = kre * tim + kim * tre
        scale = (k / r) * tmag
        if scale < 1.0:
            scale = 1.0
    else:
        ure = kre + tre
        uim = kim + tim
        scale = k / r
        if tmag > scale:
            scale = tmag
    return ure, uim, r, tmag, math.sqrt(ure * ure + uim * uim) < 1e-14 * scale


def rouche_isolates(k, are, aim, xre, xim, radius):
    """True when Rouche's theorem proves exactly one zero of f in the open
    disk |l - z| < radius around z = x+iy.

    With |h| = radius, f(z+h) = f(z) + f'(z) h + R(h) and
      |R(h)| <= |e^z| (e^r - 1 - r) + |A| sum_{j=2..k} C(k,j) |z|^(k-j) r^j.
    When |f(z)| + that bound < |f'(z)| r, f has as many zeros in the disk
    as the linear part, which has exactly one.  Every term is divided by
    D = max(|e^z|, |A||z|^k), so nothing overflows; the polynomial sum is
    accumulated term by term from positive terms (never below its true
    value but for rounding), and the inequality must hold with a 1% margin.
    False means "not proven", never "no zero".
    """
    if (xre == 0.0 and xim == 0.0) or not 0.0 < radius < 700.0:
        return False
    expdom, cre, cim, tre, tim, _lnr, _th, _la, _aa = _cofactor(k, are, aim, xre, xim)
    ure, uim, zabs, tmag, vanishes = _derivative_cofactor(k, xre, xim, expdom, tre, tim)
    if vanishes:
        return False
    # e^r - 1 - r; its rounding error (~eps * r) is far inside the margin
    etail = math.expm1(radius) - radius
    # sum_{j=2..k} C(k,j) rho^j with rho = r/|z|, term by term
    rho = radius / zabs
    term = k * rho
    poly = 0.0
    for j in range(2, k + 1):
        term *= rho * (k - j + 1) / j
        poly += term
    if expdom:
        remainder = etail + tmag * poly
    else:
        remainder = tmag * etail + poly
    lhs = math.sqrt(cre * cre + cim * cim) + remainder
    return lhs < 0.99 * math.sqrt(ure * ure + uim * uim) * radius


def _logderiv(k, are, aim, xre, xim):
    """f'/f and the scaled |f| on the contour (for zero-on-contour checks)."""
    if xre == 0.0 and xim == 0.0:
        if k == 1:
            return 1.0 + are, aim, 1.0
        return 1.0, 0.0, 1.0
    expdom, cre, cim, tre, tim, _l, _t, _a, _g = _cofactor(k, are, aim, xre, xim)
    c2 = cre * cre + cim * cim
    if c2 == 0.0:
        return 0.0, 0.0, 0.0
    r2 = xre * xre + xim * xim
    kre = k * xre / r2
    kim = -k * xim / r2
    if expdom:
        ure = 1.0 + (kre * tre - kim * tim)
        uim = kre * tim + kim * tre
    else:
        ure = kre + tre
        uim = kim + tim
    return (ure * cre + uim * cim) / c2, (uim * cre - ure * cim) / c2, math.sqrt(c2)


def line_segment_logderiv(k, are, aim, z0re, z0im, z1re, z1im, nodes, weights):
    """Gauss sum of (f'/f) dz over the segment z0 -> z1.

    Returns (sum_re, sum_im, min scaled |f| over the nodes).
    """
    mre = 0.5 * (z0re + z1re)
    mim = 0.5 * (z0im + z1im)
    hre = 0.5 * (z1re - z0re)
    him = 0.5 * (z1im - z0im)
    sre = 0.0
    sim = 0.0
    minmod = math.inf
    for j in range(len(nodes)):
        t = nodes[j]
        gre, gim, mod = _logderiv(k, are, aim, mre + hre * t, mim + him * t)
        if mod < minmod:
            minmod = mod
        w = weights[j]
        sre += w * gre
        sim += w * gim
    return sre * hre - sim * him, sre * him + sim * hre, minmod


def arc_segment_logderiv(k, are, aim, cre, cim, radius, t0, t1, nodes, weights):
    """Gauss sum of (f'/f) dz over the arc angle range [t0, t1] of a circle."""
    mt = 0.5 * (t0 + t1)
    ht = 0.5 * (t1 - t0)
    sre = 0.0
    sim = 0.0
    minmod = math.inf
    for j in range(len(nodes)):
        th = mt + ht * nodes[j]
        c = math.cos(th)
        s = math.sin(th)
        gre, gim, mod = _logderiv(k, are, aim, cre + radius * c, cim + radius * s)
        if mod < minmod:
            minmod = mod
        dre = -radius * s
        dim = radius * c
        w = weights[j]
        sre += w * (gre * dre - gim * dim)
        sim += w * (gre * dim + gim * dre)
    return sre * ht, sim * ht, minmod


def sample_exterior_margin(k, are, aim, s_branch, side, h, r_in, r_max,
                           bound_kind, n, seed):
    """Sample an exterior region and track the worst lower-bound margin.

    Points are drawn log-uniformly in radius over [r_in, r_max] and uniformly
    in angle, then rejected against the region predicate
        offset = Re l + (-1)^s_branch * k * ln|l|,
        side < 0: offset < -h,   side > 0: offset > h.
    The margin is log|f| minus the log of the claimed bound:
        bound_kind 1:  (|A|/2) |l|^k      bound_kind 2:  |e^l| / 2.
    Returns (min_log_margin, worst_re, worst_im, ok); ok = 0 after
    REJECTION_BUDGET consecutive rejections.
    """
    lr0 = math.log(r_in)
    lspan = math.log(r_max) - lr0
    sgn = -1.0 if s_branch == 1 else 1.0
    state = seed & M64
    accepted = 0
    consec = 0
    minlog = math.inf
    wre = 0.0
    wim = 0.0
    while accepted < n:
        state, z = sm64(state)
        u1 = (z >> 11) * U53
        state, z = sm64(state)
        u2 = (z >> 11) * U53
        lr = lr0 + u1 * lspan
        r = math.exp(lr)
        th = -PI + TWO_PI * u2
        xre = r * math.cos(th)
        xim = r * math.sin(th)
        off = xre + sgn * (k * lr)
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
        logf, lnr, la = _logmag(k, are, aim, xre, xim)
        if bound_kind == 1:
            lm = logf - (la - LN2 + k * lnr)
        else:
            lm = logf - (xre - LN2)
        if lm < minlog:
            minlog = lm
            wre = xre
            wim = xim
        accepted += 1
    return minlog, wre, wim, 1


def sample_strip_sector(k, are, aim, s_branch, h, r_in, r_max, delta, n, seed):
    """Sample the curvilinear strip and measure sector containment.

    margin = delta - |arg l -+ pi/2| (sign matched to the half-plane).
    Returns (min_margin, worst_re, worst_im, violations, ok); a violation is
    a sampled strip point outside both sectors (margin <= 0).
    """
    lr0 = math.log(r_in)
    lspan = math.log(r_max) - lr0
    sgn = -1.0 if s_branch == 1 else 1.0
    state = seed & M64
    accepted = 0
    consec = 0
    violations = 0
    minmargin = math.inf
    wre = 0.0
    wim = 0.0
    while accepted < n:
        state, z = sm64(state)
        u1 = (z >> 11) * U53
        state, z = sm64(state)
        u2 = (z >> 11) * U53
        lr = lr0 + u1 * lspan
        r = math.exp(lr)
        th = -PI + TWO_PI * u2
        xre = r * math.cos(th)
        xim = r * math.sin(th)
        off = xre + sgn * (k * lr)
        if off < -h or off > h:
            consec += 1
            if consec > REJECTION_BUDGET:
                return minmargin, wre, wim, violations, 0
            continue
        consec = 0
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
    return minmargin, wre, wim, violations, 1


def sample_strip_ratio(k, are, aim, h, r_in, im_cap, delta, zre, zim, n, seed):
    """Sample the punctured strip and track the minimum of |f|/|l|^k.

    Coordinates are (y, t) uniform over [-im_cap, im_cap] x [-h, h] with
    Re l solved from Re l - k ln|l| = t; points with |l| < r_in or within
    delta of a listed zero (zre/zim sorted by imaginary part) are rejected.
    Returns (min_log_ratio, worst_re, worst_im, ok).
    """
    nz = len(zre)
    d2 = delta * delta
    state = seed & M64
    accepted = 0
    consec = 0
    minlog = math.inf
    wre = 0.0
    wim = 0.0
    while accepted < n:
        state, z = sm64(state)
        u1 = (z >> 11) * U53
        state, z = sm64(state)
        u2 = (z >> 11) * U53
        y = -im_cap + (2.0 * im_cap) * u1
        t = -h + (2.0 * h) * u2
        ay = y if y >= 0.0 else -y
        if ay < 1e-300:
            ay = 1e-300
        x = t + k * math.log(ay)
        bad = False
        for _ in range(3):
            r2 = x * x + y * y
            if r2 == 0.0:
                bad = True
                break
            x = t + 0.5 * k * math.log(r2)
        if not bad:
            for _ in range(6):
                r2 = x * x + y * y
                if r2 == 0.0:
                    bad = True
                    break
                g = x - t - 0.5 * k * math.log(r2)
                gp = 1.0 - k * x / r2
                if gp < 0.5 and gp > -0.5:
                    x = t + 0.5 * k * math.log(r2)
                else:
                    x = x - g / gp
        if not bad:
            r2 = x * x + y * y
            r = math.sqrt(r2)
            if r < r_in:
                bad = True
            else:
                resid = x - t - 0.5 * k * math.log(r2)
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
        logf, lnr, _la = _logmag(k, are, aim, x, y)
        lm = logf - k * lnr
        if lm < minlog:
            minlog = lm
            wre = x
            wim = y
        accepted += 1
    return minlog, wre, wim, 1
