"""Reference complex exp and log in stdlib decimal, for checking the kernels'
double-precision formulas against a result that carries far more digits.

Every float converts to a Decimal exactly, so a reference value is a
function of the very doubles the kernel read.  The functions work at the
precision of the current decimal context plus GUARD digits; callers set
PRECISION (up to about 80) with decimal.localcontext().  Angles are reduced
by 2 pi held to 110 digits, so the reduction is exact to far below a
double's rounding at any height up to 1e15.  atan, cos and sin are Taylor
series after argument reduction; ln and exp of a real are Decimal's own,
correctly rounded.
"""

import decimal
from decimal import Decimal

#: digits the references are meant to be used at: 40 or more
PRECISION = 50

#: extra digits each function carries internally
GUARD = 10

PI = Decimal("3.14159265358979323846264338327950288419716939937510"
             "582097494459230781640628620899862803482534211706798214808651")


def _series_atan(x):
    """atan(x) for |x| <= 0.1 by its Taylor series."""
    x2 = x * x
    term = x
    total = x
    n = 1
    while True:
        term *= -x2
        n += 2
        step = term / n
        if total + step == total:
            return total
        total += step


def atan(x):
    """atan(x) for a Decimal x: halved three times by
    atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))), after atan(x) = pi/2 -
    atan(1/x) for |x| > 1."""
    with decimal.localcontext() as ctx:
        ctx.prec += GUARD
        flip = abs(x) > 1
        y = 1 / x if flip else +x
        for _ in range(3):
            y = y / (1 + (1 + y * y).sqrt())
        a = 8 * _series_atan(y)
        if flip:
            half = PI / 2
            a = (half if x > 0 else -half) - a
    return +a


def atan2(y, x):
    """The principal argument of x + iy, in (-pi, pi]; x + iy != 0."""
    with decimal.localcontext() as ctx:
        ctx.prec += GUARD
        p = +PI
        if abs(y) <= abs(x):
            a = atan(y / x)
            if x < 0:
                a += p if y >= 0 else -p
        else:
            a = (p / 2 if y > 0 else -p / 2) - atan(x / y)
    return +a


def cos_sin(y):
    """(cos y, sin y) for a Decimal y, by the Taylor series of y less the
    nearest multiple of 2 pi, formed with pi to the working precision plus
    the digits of y's integer part."""
    with decimal.localcontext() as ctx:
        ctx.prec += GUARD + max(0, y.adjusted())
        two_pi = 2 * PI
        r = y - two_pi * (y / two_pi).to_integral_value()
        r2 = r * r
        c = term = Decimal(1)
        n = 0
        while True:
            n += 2
            term *= -r2 / (n * (n - 1))
            if c + term == c:
                break
            c += term
        s = term = r
        n = 1
        while True:
            n += 2
            term *= -r2 / (n * (n - 1))
            if s + term == s:
                break
            s += term
    return +c, +s


def exp(re, im):
    """e^(re + i im) as a Decimal pair."""
    with decimal.localcontext() as ctx:
        ctx.prec += GUARD
        m = re.exp()
        c, s = cos_sin(im)
        out = m * c, m * s
    return +out[0], +out[1]


def log(re, im):
    """The principal logarithm of re + i im as a Decimal pair; re + i im != 0."""
    with decimal.localcontext() as ctx:
        ctx.prec += GUARD
        out = (re * re + im * im).ln() / 2, atan2(im, re)
    return +out[0], +out[1]
