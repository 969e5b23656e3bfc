import cmath
import math

import pytest
from hypothesis import settings

from quasizeros import QuasiPolynomial

# every property test draws the same examples on every run and keeps no
# example database, so Tier-1 is deterministic; tests set only max_examples
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def bisect_real_root(f, lo, hi, iterations=200):
    """Plain bisection oracle for a sign change of f on [lo, hi]."""
    flo = f(lo)
    assert flo * f(hi) < 0, "no sign change in the bracket"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo = mid
            flo = fm
    return 0.5 * (lo + hi)


def direct_f(qp, lam):
    """Straight complex-arithmetic evaluation, independent of the library."""
    return cmath.exp(lam) + qp.a * lam ** qp.k


@pytest.fixture
def qp11():
    return QuasiPolynomial(1, 1 + 0j)


@pytest.fixture
def omega_root():
    """Real root of e^x + x = 0 on [-1, 0], by bisection."""
    return bisect_real_root(lambda x: math.exp(x) + x, -1.0, 0.0)
