import cmath
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasizeros as qz
from quasizeros.errors import (
    DerivativeVanishesError,
    DomainError,
    OverflowRangeError,
)

from conftest import direct_f


class TestQuasiPolynomial:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(DomainError):
            qz.QuasiPolynomial(1, 0j)

    @pytest.mark.parametrize("a", [complex("nan"), complex("inf"), complex(1.0, -math.inf),
                                   complex(math.nan, 0.0)])
    def test_rejects_non_finite_coefficient(self, a):
        with pytest.raises(DomainError, match="must be finite"):
            qz.QuasiPolynomial(1, a)

    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_rejects_bad_exponent(self, k):
        with pytest.raises(DomainError):
            qz.QuasiPolynomial(k, 1 + 0j)

    @pytest.mark.parametrize("a", [1 + 0j, -3 + 4j, 0.5j, 2.25 - 0.125j])
    def test_reciprocal_magnitude(self, a):
        qp = qz.QuasiPolynomial(2, a)
        prod = qp.b_magnitude * abs(a)
        assert abs(prod - 1.0) <= 2 ** -52

    @pytest.mark.parametrize("a", [1 + 0j, -3 + 4j, 5e-324 + 0j, 1e308 + 1e308j,
                                   -1.7e308 + 0j, 1.2e308 - 1.2e308j])
    def test_log_a_where_abs_is_finite(self, a):
        qp = qz.QuasiPolynomial(1, a)
        assert qp.log_a.real == math.log(abs(a))
        assert qp.a_magnitude == abs(a) and qp.b_magnitude == 1.0 / abs(a)

    @pytest.mark.parametrize("a", [1.7e308 + 1e308j, -1.7e308 - 1.7e308j, 1.3e308j + 1.3e308])
    def test_coefficient_beyond_the_float_range(self, a):
        # |A| overflows; ln|A| and 1/|A| are formed from A/4, which is exact
        qp = qz.QuasiPolynomial(1, a)
        exact = math.log(abs(a / 4)) + math.log(4.0)
        assert qp.log_a.real == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert qp.log_a.real > math.log(1.7976931348623157e308)
        assert qp.a_magnitude == math.inf
        assert qp.b_magnitude == pytest.approx(0.25 / abs(a / 4), rel=1e-15, abs=0.0)
        # f'(0) = 1 + A overflows abs(); the Newton ratio 1 / (1 + A) at the
        # origin is below the normal range
        assert abs(qz.newton_ratio(qp, 0)) < 1e-300


class TestLogAPinned:
    """log_a = ln|A| + i arg A, bit for bit as recorded (float.hex): arg A
    is atan2's with -pi read as pi, so the negative real axis has arg pi
    from either side and a -0.0 imaginary part on the positive one gives
    -0.0; |A| subnormal and |A| beyond the float range."""

    PINNED = [
        (complex(-2.0, -0.0), "0x1.62e42fefa39efp-1", "0x1.921fb54442d18p+1"),
        (complex(-2.0, 0.0), "0x1.62e42fefa39efp-1", "0x1.921fb54442d18p+1"),
        (complex(2.0, -0.0), "0x1.62e42fefa39efp-1", "-0x0.0p+0"),
        (complex(2.0, 0.0), "0x1.62e42fefa39efp-1", "0x0.0p+0"),
        (complex(-0.0, 1.0), "0x0.0p+0", "0x1.921fb54442d18p+0"),
        (complex(0.0, -1.0), "0x0.0p+0", "-0x1.921fb54442d18p+0"),
        (complex(-1.0, 5e-324), "0x0.0p+0", "0x1.921fb54442d18p+1"),
        (complex(-1.0, -5e-324), "0x0.0p+0", "0x1.921fb54442d18p+1"),
        (complex(5e-324, 0.0), "-0x1.74385446d71c3p+9", "0x0.0p+0"),
        (complex(-5e-324, -0.0), "-0x1.74385446d71c3p+9", "0x1.921fb54442d18p+1"),
        (complex(0.0, 5e-324), "-0x1.74385446d71c3p+9", "0x1.921fb54442d18p+0"),
        (complex(3e-320, -4e-321), "-0x1.6fdc219340bc5p+9", "-0x1.0f991cbd46298p-3"),
        (complex(1.7976931348623157e308, 1.7976931348623157e308), "0x1.63108c75a1936p+9",
         "0x1.921fb54442d18p-1"),
        (complex(-1.7e308, -1.7e308), "0x1.63096583c4ed0p+9", "-0x1.2d97c7f3321d2p+1"),
        (complex(-1.7976931348623157e308, -0.0), "0x1.62e42fefa39efp+9",
         "0x1.921fb54442d18p+1"),
        (complex(1.3e308, 1.3e308), "0x1.62e70f0a585dcp+9", "0x1.921fb54442d18p-1"),
    ]

    @pytest.mark.parametrize("a, log_abs, arg", PINNED)
    def test_pinned(self, a, log_abs, arg):
        log_a = qz.QuasiPolynomial(1, a).log_a
        assert (log_a.real.hex(), log_a.imag.hex()) == (log_abs, arg)

    def test_seeded_digest(self):
        # 2,000 A log-uniform in |A| from 1e-323 to past the float range,
        # uniform in angle
        rng = random.Random(32)
        digest = hashlib.sha256()
        for _ in range(2000):
            mag = 10.0 ** rng.uniform(-323.0, 308.25)
            th = rng.uniform(-math.pi, math.pi)
            log_a = qz.QuasiPolynomial(1, complex(mag * math.cos(th), mag * math.sin(th))).log_a
            digest.update(f"{log_a.real.hex()} {log_a.imag.hex()};".encode())
        assert digest.hexdigest() == \
            "14176353db7fc1dacc42df25d123830e94ba6a3467df20288a13768c6428c0c1"


class TestEvaluate:
    def test_at_zero(self):
        assert qz.evaluate(qz.QuasiPolynomial(1, 1 + 0j), 0) == 1 + 0j
        assert qz.evaluate(qz.QuasiPolynomial(2, -3 + 4j), 0) == 1 + 0j

    def test_euler_identity_point(self, qp11):
        val = qz.evaluate(qp11, 1j * math.pi)
        assert abs(val - (-1 + 1j * math.pi)) < 1e-15

    def test_overflow_range(self, qp11):
        with pytest.raises(OverflowRangeError):
            qz.evaluate(qp11, 800.0)
        with pytest.raises(OverflowRangeError):
            qz.evaluate(qz.QuasiPolynomial(3, 1 + 0j), 1e90)

    @pytest.mark.parametrize("function", [qz.evaluate, qz.derivative])
    def test_power_beyond_the_direct_range(self, function):
        # |Re l| = 0 is in range, but k ln|l| = 3 ln(1e110) = 760 is not
        with pytest.raises(OverflowRangeError, match=r"^k\*ln\|l\| = 760 exceeds the direct range$"):
            function(qz.QuasiPolynomial(3, 1 + 0j), 1e110j)

    def test_derivative_examples(self):
        assert qz.derivative(qz.QuasiPolynomial(1, 1 + 0j), 0) == 2 + 0j
        assert qz.derivative(qz.QuasiPolynomial(2, 3 + 0j), 0) == 1 + 0j
        val = qz.derivative(qz.QuasiPolynomial(1, 1 + 0j), 1j * math.pi)
        assert abs(val) < 1e-15


class TestEvaluateScaled:
    def test_dominant_exponential(self, qp11):
        es = qz.evaluate_scaled(qp11, 1000.0)
        assert es.log_magnitude == pytest.approx(1000.0, abs=1e-9)
        assert es.phase == pytest.approx(0.0, abs=1e-12)

    def test_dominant_monomial(self, qp11):
        es = qz.evaluate_scaled(qp11, -1000.0)
        assert es.log_magnitude == pytest.approx(math.log(1000.0), abs=1e-9)
        assert es.phase == pytest.approx(math.pi, abs=1e-12)

    def test_against_direct(self, qp11):
        es = qz.evaluate_scaled(qp11, 0.5)
        expected = math.log(abs(qz.evaluate(qp11, 0.5)))
        assert es.log_magnitude == pytest.approx(expected, rel=1e-13)

    def test_reconstruction(self):
        qp = qz.QuasiPolynomial(2, -3 + 4j)
        for lam in (0.5 + 0.25j, -2 + 3j, 5 - 1j, 12j):
            es = qz.evaluate_scaled(qp, lam)
            direct = qz.evaluate(qp, lam)
            assert abs(es.value - direct) <= 1e-12 * abs(direct)

    def test_consistency_random(self):
        # scaled magnitude vs direct evaluation over a seeded cloud
        import random

        rng = random.Random(42)
        qp = qz.QuasiPolynomial(2, 2 + 1j)
        worst = 0.0
        for _ in range(10000):
            lam = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if lam == 0:
                continue
            direct = abs(direct_f(qp, lam))
            scaled = qz.evaluate_scaled(qp, lam).log_magnitude
            worst = max(worst, abs(math.exp(scaled) - direct) / direct)
        assert worst < 1e-10

    def test_zero_at_double_resolution(self):
        # the double zero of e^l - e*l sits exactly at l = 1: direct
        # evaluation cancels to 0.0 and the scaled magnitude bottoms out at
        # the rounding floor of the co-factor
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        assert qz.evaluate(qp, 1.0) == 0j
        es = qz.evaluate_scaled(qp, 1.0)
        assert es.log_magnitude < -30

    def test_exact_zero_sentinel_contract(self):
        es = qz.EvalScale(-math.inf, 0.0)
        assert es.value == 0j

    def test_at_origin(self, qp11):
        es = qz.evaluate_scaled(qp11, 0)
        assert (es.log_magnitude, es.phase) == (0.0, 0.0)


@settings(max_examples=200)
@given(
    re=st.floats(-40, 40),
    im=st.floats(-40, 40),
    a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
    k=st.integers(1, 4),
)
def test_conjugation_symmetry(re, im, a, k):
    qp = qz.QuasiPolynomial(k, complex(a, 0.0))
    lam = complex(re, im)
    left = qz.evaluate(qp, lam.conjugate())
    right = qz.evaluate(qp, lam).conjugate()
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_derivative_finite_difference():
    import random

    rng = random.Random(7)
    qp = qz.QuasiPolynomial(3, 0.5j)
    for _ in range(1000):
        lam = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        h = 1e-6 * max(1.0, abs(lam))
        fd = (qz.evaluate(qp, lam + h) - qz.evaluate(qp, lam - h)) / (2 * h)
        dv = qz.derivative(qp, lam)
        assert abs(fd - dv) <= 1e-6 * max(1.0, abs(dv))


def test_critical_point_algebra():
    # f and f' vanish together only at l = k with A = -e^k/k^k
    qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
    assert abs(qz.evaluate(qp, 1.0)) < 1e-12
    assert abs(qz.derivative(qp, 1.0)) < 1e-12
    qp2 = qz.QuasiPolynomial(2, complex(-math.exp(2) / 4.0, 0))
    assert abs(qz.evaluate(qp2, 2.0)) < 1e-12
    assert abs(qz.derivative(qp2, 2.0)) < 1e-12


class TestNewtonRatio:
    def test_at_zero(self, qp11):
        assert qz.newton_ratio(qp11, 0) == 0.5 + 0j

    def test_dominant_cancellation(self, qp11):
        assert abs(qz.newton_ratio(qp11, 100.0) - 1.0) < 1e-10

    def test_derivative_vanishes(self, qp11):
        with pytest.raises(DerivativeVanishesError):
            qz.newton_ratio(qp11, 1j * math.pi)

    def test_matches_direct_ratio(self):
        qp = qz.QuasiPolynomial(2, 1 - 2j)
        for lam in (0.3 + 1j, -4 + 2j, 6 - 3j):
            direct = qz.evaluate(qp, lam) / qz.derivative(qp, lam)
            assert abs(qz.newton_ratio(qp, lam) - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("a", [1 + 0j, 2 + 1j, 1.7e308 + 1e308j])
    @pytest.mark.parametrize("lam", [1e-310, 3e-309, 1e-320, 5e-324])
    def test_subnormal_point(self, lam, a, k):
        """k/lam overflows below |lam| = k/FLOAT_MAX; the ratio stays finite
        and matches f/f' formed directly, with k multiplied into lam^(k-1)
        before A so that k A cannot overflow."""
        qp = qz.QuasiPolynomial(k, a)
        direct = direct_f(qp, lam) / (cmath.exp(lam) + qp.a * (k * lam ** (k - 1)))
        ratio = qz.newton_ratio(qp, lam)
        assert cmath.isfinite(ratio)
        assert abs(ratio - direct) <= 1e-12 * abs(direct) + 1e-300

    def test_subnormal_point_derivative_vanishes(self):
        # f'(l) = e^l - 1 is about 1e-310 there
        with pytest.raises(DerivativeVanishesError):
            qz.newton_ratio(qz.QuasiPolynomial(1, -1 + 0j), 1e-310)
