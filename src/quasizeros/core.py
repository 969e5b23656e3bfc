"""The quasipolynomial f(l) = e^l + A*l^k and its numerically stable evaluation.

Direct evaluation is exact double-precision complex arithmetic and is limited
to the range where e^l and A*l^k are representable; the scaled forms factor out
the dominant of the two terms, so they work across the whole plane (the
co-factor 1 + subdominant/dominant has magnitude at most 2).  The scaled
forms import the kernels when called, so a command that only builds a
QuasiPolynomial (classify, a refused input) loads none.
"""

import cmath
import math
from collections import namedtuple

from .errors import DerivativeVanishesError, DomainError, OverflowRangeError

#: |Re l| and k*ln|l| limit for the direct (unscaled) forms.
DIRECT_RANGE = 700.0


class QuasiPolynomial(namedtuple("QuasiPolynomial", "k a log_a")):
    """The pair (k, A) defining f(l) = e^l + A*l^k.

    k must be a positive integer and A a nonzero finite complex coefficient.
    log_a = ln|A| + i arg A (principal argument in (-pi, pi]) is derived
    once here; the kernels take it in place of A.  It is the tuple's third
    field, but a function of a: the constructor and _replace take only k
    and a, and repr shows only them.
    """

    __slots__ = ()

    def __new__(cls, k, a):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        a = complex(a)
        if a == 0:
            raise DomainError("coefficient A must be nonzero")
        if not cmath.isfinite(a):
            raise DomainError(f"coefficient A must be finite, got {a!r}")
        arg = math.atan2(a.imag, a.real)
        if arg == -math.pi:  # A on, or just below, the negative real axis
            arg = math.pi
        try:
            log_abs = math.log(abs(a))
        except OverflowError:  # |A| beyond the float range; A/4 is exact
            log_abs = math.log(abs(0.25 * a)) + 2.0 * math.log(2.0)
        return super().__new__(cls, k, a, complex(log_abs, arg))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(changes.pop("k", self.k), changes.pop("a", self.a), **changes)

    def __getnewargs__(self):
        return self.k, self.a

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k!r}, a={self.a!r})"

    @property
    def a_magnitude(self):
        """|A|; +inf where |A| is beyond the float range (log_abs_a holds
        it there)."""
        try:
            return abs(self.a)
        except OverflowError:
            return math.inf

    @property
    def b_magnitude(self):
        """1/|A|, the reciprocal coefficient magnitude."""
        try:
            return 1.0 / abs(self.a)
        except OverflowError:
            return 0.25 / abs(0.25 * self.a)

    @property
    def log_abs_a(self):
        return self.log_a.real

    @property
    def arg_a(self):
        """Principal argument of A in (-pi, pi]."""
        return self.log_a.imag


class EvalScale(namedtuple("EvalScale", "log_magnitude phase")):
    """Overflow-safe value of f: natural log of |f| plus principal phase.

    log_magnitude is -inf exactly when f vanishes.
    """

    __slots__ = ()

    @property
    def value(self):
        """Reconstructed complex value; overflows for log_magnitude > ~709."""
        if self.log_magnitude == -math.inf:
            return 0j
        m = math.exp(self.log_magnitude)
        return complex(m * math.cos(self.phase), m * math.sin(self.phase))


def _check_direct_range(qp, lam):
    lam = complex(lam)
    if abs(lam.real) > DIRECT_RANGE:
        raise OverflowRangeError(
            f"|Re l| = {abs(lam.real):.3g} exceeds the direct range {DIRECT_RANGE:g}")
    if lam != 0 and qp.k * math.log(abs(lam)) > DIRECT_RANGE:
        raise OverflowRangeError(
            f"k*ln|l| = {qp.k * math.log(abs(lam)):.3g} exceeds the direct range")
    return lam


def evaluate(qp, lam):
    """f(l) = e^l + A*l^k by direct complex arithmetic.

    Raises OverflowRangeError outside |Re l| <= 700, k*ln|l| <= 700; use
    evaluate_scaled there.
    """
    lam = _check_direct_range(qp, lam)
    return cmath.exp(lam) + qp.a * lam ** qp.k


def derivative(qp, lam):
    """f'(l) = e^l + k*A*l^(k-1); for k = 1 the second term is the constant A."""
    lam = _check_direct_range(qp, lam)
    if qp.k == 1:
        return cmath.exp(lam) + qp.a
    return cmath.exp(lam) + qp.k * qp.a * lam ** (qp.k - 1)


def evaluate_scaled(qp, lam):
    """log|f| and arg f with the dominant term factored out.

    Never overflows.  An exact zero of f yields the sentinel
    EvalScale(-inf, 0.0) rather than an error, so contour integrands can
    detect near-zeros uniformly.
    """
    from ._backend import kernels

    logf = kernels.eval_scaled(qp.k, qp.log_a, complex(lam))
    return EvalScale(logf.real, logf.imag)


def relative_residual(qp, lam):
    """|f(l)| / max(|e^l|, |A*l^k|): the scale-free size of f at l."""
    from ._backend import kernels

    return kernels.relative_residual(qp.k, qp.log_a, complex(lam))


def newton_ratio(qp, lam):
    """The Newton step f/f', computed in dominance-factored form.

    Raises DerivativeVanishesError when |f'| is below
    1e-14 * max(|e^l|, k|A||l|^(k-1)).
    """
    from ._backend import kernels

    lam = complex(lam)
    ratio, vanishes = kernels.newton_step(qp.k, qp.log_a, lam)
    if vanishes:
        raise DerivativeVanishesError(f"f' vanishes near l = {lam:.6g}")
    return ratio
