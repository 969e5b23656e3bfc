"""Kernel contract tests: splitmix64 (which derives the substream seeds) and
the samplers' Mersenne Twister uniform stream, angle wrapping, the samplers'
ln|1 + t|, the contour segment kernels' tracked change of arg f against
direct f unwrapped on a fine grid, the Lambert-W kernel against scipy, the Rouche disk test
against its first-order predecessor and at (near-)double zeros, the list
kernels against their one-element calls, _cofactor's t against a 50-digit
decimal reference, and the reported backend name."""

import cmath
import decimal
import math
import random
import types

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from quasizeros import _kernels_py as kp, _sampling as sp, bounds, certify, core, zeros as zeros_mod
from quasizeros._backend import backend_name
from quasizeros.errors import DerivativeVanishesError, EscapedBasinError, MaxIterationsError

import decimal_reference as ref


SPLITMIX64_SEED0 = [  # standard splitmix64 test vector for seed 0
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_splitmix64_reference_stream():
    state = 0
    outs = []
    for _ in range(4):
        state, z = sp.sm64(state)
        outs.append(z)
    assert outs == SPLITMIX64_SEED0
    # the samplers' stream: consecutive random.Random(seed).random() values
    pairs = sp.uniform_pairs(0)
    assert [next(pairs) for _ in range(2)] == [
        (0.8444218515250481, 0.7579544029403025),
        (0.420571580830845, 0.25891675029296335)]


def test_substream_seeds_pinned():
    # the 16-substream layout is derived by splitmix64 and must not move
    assert bounds.derive_substream(0, 0) == 0x06C45D188009454F
    assert bounds.derive_substream(7, 15) == 0x538C6A0CDA7326C7


def test_uniform_in_unit_interval():
    pairs = sp.uniform_pairs(987654321)
    for _ in range(1000):
        u1, u2 = next(pairs)
        assert 0.0 <= u1 < 1.0 and 0.0 <= u2 < 1.0


@settings(max_examples=300)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_wrap_angle_principal(x):
    y = kp.wrap_angle(x)
    assert -math.pi < y <= math.pi
    # same angle modulo 2*pi
    assert abs(math.sin(y) - math.sin(x)) < 1e-7
    assert abs(math.cos(y) - math.cos(x)) < 1e-7


def test_wrap_angle_boundaries():
    assert kp.wrap_angle(math.pi) == math.pi
    assert kp.wrap_angle(-math.pi) == math.pi
    assert kp.wrap_angle(0.0) == 0.0


def test_log_abs_1p_matches_direct():
    rng = random.Random(5)
    for _ in range(2000):
        wr = rng.uniform(-40.0, 40.0)
        wi = rng.uniform(-1e3, 1e3)
        direct = abs(1.0 + cmath.exp(complex(-abs(wr), wi)))
        if direct > 1e-3:
            assert abs(sp._log_abs_1p(wr, wi) - math.log(direct)) < 1e-13


def test_log_abs_1p_exact_zero():
    # t = -1: the log1p argument is exactly -1
    assert sp._log_abs_1p(0.0, math.pi) == -math.inf
    assert sp._log_abs_1p(-0.0, -math.pi) == -math.inf


def test_log_abs_1p_argument_below_minus_one(monkeypatch):
    # a cosine rounded one ulp below -1 puts the log1p argument below -1,
    # where math.log1p raises; the helper must read it as a zero
    below = math.nextafter(-1.0, -2.0)
    fake = types.SimpleNamespace(exp=math.exp, cos=lambda x: below,
                                 log1p=math.log1p, inf=math.inf)
    monkeypatch.setattr(sp, "math", fake)
    assert sp._log_abs_1p(0.0, math.pi) == -math.inf


def test_active_backend_reported():
    assert backend_name() == "python"


ACCEPTANCE_COMBOS = [(k, a) for k in (1, 2, 3) for a in (1 + 0j, 2 + 1j, 0.5j)]


def _direct_turn(qp, points):
    """The change of arg f along the polygon through points, from direct f
    unwrapped between neighbours; None when a neighbour's phase moves by
    more than 0.5, where the grid is too coarse to unwrap."""
    phases = [cmath.phase(core.evaluate(qp, lam)) for lam in points]
    total = 0.0
    for p0, p1 in zip(phases, phases[1:]):
        d = kp.wrap_angle(p1 - p0)
        if abs(d) > 0.5:
            return None
        total += d
    return total


def _scaled_modulus(qp, lam):
    return abs(core.evaluate(qp, lam)) / max(abs(cmath.exp(lam)), abs(qp.a * lam ** qp.k))


GRID = 4000


@pytest.mark.parametrize("k, a", ACCEPTANCE_COMBOS)
def test_line_segment_sum_matches_direct_rule(k, a):
    qp = core.QuasiPolynomial(k, a)
    rng = random.Random(1000 * k + int(4 * a.real + 2 * a.imag))
    checked = 0
    for _ in range(40):
        z0 = complex(rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0))
        z1 = z0 + cmath.rect(rng.uniform(0.1, 4.0), rng.uniform(-math.pi, math.pi))
        turn, steps, minmod = kp.line_segment_logderiv(k, qp.log_a, z0, z1, 10000)
        want = _direct_turn(qp, [z0 + (z1 - z0) * (i / GRID) for i in range(GRID + 1)])
        if want is None:
            continue
        checked += 1
        assert abs(turn - want) <= 1e-9 * max(1.0, abs(want))
        assert 0 < steps and 0.0 < minmod <= _scaled_modulus(qp, z0) * (1 + 1e-12)
    assert checked >= 35


@pytest.mark.parametrize("k, a", ACCEPTANCE_COMBOS)
def test_arc_segment_sum_matches_direct_rule(k, a):
    qp = core.QuasiPolynomial(k, a)
    rng = random.Random(2000 * k + int(4 * a.real + 2 * a.imag))
    checked = 0
    for _ in range(40):
        center = complex(rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0))
        radius = rng.uniform(0.1, 4.0)
        t0 = rng.uniform(0.0, 2.0 * math.pi)
        t1 = t0 + rng.uniform(0.1, 1.5)
        turn, steps, minmod = kp.arc_segment_logderiv(k, qp.log_a, center, radius, t0, t1,
                                                      10000)
        want = _direct_turn(qp, [center + cmath.rect(radius, t0 + (t1 - t0) * (i / GRID))
                                 for i in range(GRID + 1)])
        if want is None:
            continue
        checked += 1
        assert abs(turn - want) <= 1e-9 * max(1.0, abs(want))
        start = center + cmath.rect(radius, t0)
        assert 0 < steps and 0.0 < minmod <= _scaled_modulus(qp, start) * (1 + 1e-12)
    assert checked >= 35


BRANCHES = range(-50, 51)


def _omega_points(k, a):
    """z_j = -1/(k w_j) for the k roots w_j of w^k = -A: every zero of
    e^l + A l^k is -k W_m(z_j) for one j and one branch m."""
    qp = core.QuasiPolynomial(k, a)
    return qp, [-1.0 / (k * cmath.exp((qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / k))
                for j in range(k)]


def _w_error(z, m):
    want = complex(lambertw(z, m))
    return abs(kp.lambert_w(z, m) - want) / abs(want)


def test_lambert_w_matches_scipy_at_seeded_points():
    rng = random.Random(31)
    for _ in range(60):
        z = cmath.rect(10.0 ** rng.uniform(-8.0, 8.0), rng.uniform(-math.pi, math.pi))
        assert max(_w_error(z, m) for m in BRANCHES) <= 1e-12, z


@pytest.mark.parametrize("k, a", ACCEPTANCE_COMBOS + [(5, 1 + 0j), (10, 1 + 0j),
                                                      (25, 1 + 0j)])
def test_lambert_w_gives_the_zeros(k, a):
    qp, points = _omega_points(k, a)
    for z in points:
        for m in BRANCHES:
            assert _w_error(z, m) <= 1e-12, (z, m)
            lam = -k * kp.lambert_w(z, m)
            if abs(lam) <= 200.0:
                assert core.relative_residual(qp, lam) <= 1e-13, (z, m)


@pytest.mark.parametrize("offset", [1e-3, -1e-3, 1e-3j, -1e-3j, 1e-8, 1e-8j])
def test_lambert_w_near_branch_point(offset):
    # W's condition number near -1/e grows like 1/|p|, p = sqrt(2(e z + 1)):
    # a rounding of z moves W by ~1e-16/|p| relative
    z = -1.0 / math.e + offset
    p = abs(cmath.sqrt(2.0 * (math.e * z + 1.0)))
    assert max(_w_error(z, m) for m in BRANCHES) <= 1e-13 + 1e-15 / p


def _w_side(z, m):
    """scipy's W_m(z) on the side of the real axis that the sign of a zero
    imaginary part names: W_m(x - 0i) = conj W_-m(x + 0i).  scipy reads
    -0.0 as +0.0 for some real z (W_-1 on (-1/e, 0), W_0 right of 0)."""
    if math.copysign(1.0, z.imag) > 0:
        return complex(lambertw(z, m))
    return complex(lambertw(z.conjugate(), -m)).conjugate()


def test_lambert_w_signed_zero_picks_the_cut_side():
    # a real z on a cut: +0.0 is its upper side, -0.0 its lower.  Where W_m
    # is real (W_0 right of -1/e; W_-1 above and W_1 below on (-1/e, 0)) the
    # result is real, with z's signed zero as its imaginary part
    for x in (-3.0, -2.0, -1.7, -1.5, -1.0, -0.5, -0.45, -0.3679, -0.3678, -0.3,
              -0.1, -1e-3, -1e-12, 1e-12, 1e-3, 0.5, 1.0, 1.9, 3.0, 1e5):
        for z in (complex(x, 0.0), complex(x, -0.0)):
            for m in range(-3, 4):
                got, want = kp.lambert_w(z, m), _w_side(z, m)
                assert abs(got - want) <= 1e-13 * abs(want), (z, m, got, want)
                assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag), (z, m)
                assert (got.imag == 0.0) == (want.imag == 0.0), (z, m, got, want)


@pytest.mark.parametrize("im", [1e-17, -1e-17, 1e-9, -1e-9, 5e-3, -5e-3])
def test_lambert_w_principal_branch_beside_the_cut(im):
    # between -0.5 and -1/e, just off the cut, Log(1 + z) is a nearly real
    # seed for a W_0 with |Im W_0| near 0.75, and Halley's iteration from it
    # stayed on the real axis
    for x in (-0.4999, -0.49, -0.48):
        assert _w_error(complex(x, im), 0) <= 1e-13, (x, im)


def _first_order_isolates(k, log_a, lam, radius):
    """The Rouche test with f'' bounded term by term, as it stood before the
    exact second-order term: the reference the new test must never refuse
    where this one accepts."""
    expdom, t, _loglam, _w = kp._cofactor(k, log_a, lam)
    u, _umag, zabs, tmag, vanishes = kp._derivative_cofactor(k, lam, expdom, t)
    if vanishes:
        return False
    etail = math.expm1(radius) - radius
    rho = radius / zabs
    term = k * rho
    poly = 0.0
    for j in range(2, k + 1):
        term *= rho * (k - j + 1) / j
        poly += term
    remainder = etail + tmag * poly if expdom else tmag * etail + poly
    return abs(1.0 + t) + remainder < 0.99 * abs(u) * radius


def _pair(k, eps):
    """The two zeros near l = k for A = -e^k/k^k (1 + eps): W_0 and W_-1 at
    z = -1/(e (1 + eps)^(1/k)), Newton-polished."""
    qp = core.QuasiPolynomial(k, complex(-math.exp(k) / k ** k * (1 + eps), 0))
    z = complex(-1.0 / (math.e * (1 + eps) ** (1.0 / k)), 0.0)
    return qp, [zeros_mod.newton_refine(qp, -k * kp.lambert_w(z, m), 1e-12).value
                for m in (0, -1)]


def test_rouche_never_refuses_what_the_first_order_test_proves():
    rng = random.Random(12)
    agreed = 0
    for _ in range(2000):
        k = rng.randint(1, 25)
        qp = core.QuasiPolynomial(k, cmath.rect(10.0 ** rng.uniform(-3, 3),
                                                rng.uniform(-math.pi, math.pi)))
        z = -1.0 / (k * cmath.exp((qp.log_a + complex(0.0, math.pi * (2 * rng.randrange(k) + 1)))
                                  / k))
        lam = -k * kp.lambert_w(z, rng.randint(-5, 5))
        lam += cmath.rect(10.0 ** rng.uniform(-8, -1), rng.uniform(-math.pi, math.pi))
        r = 10.0 ** rng.uniform(-6, 0)
        if _first_order_isolates(k, qp.log_a, lam, r):
            agreed += 1
            assert kp.rouche_isolates(k, qp.log_a, lam, r), (k, qp.a, lam, r)
    assert agreed > 500


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_rouche_refuses_double_zero(k, delta):
    # a disk around k + delta holds the double zero at l = k (r > delta) or
    # no zero at all: either way never exactly one
    qp = core.QuasiPolynomial(k, complex(-math.exp(k) / k ** k, 0))
    for r in (10.0 ** e for e in range(-9, 2)):
        for r_scaled in (r, 0.5 * r, 3.0 * r):
            assert not kp.rouche_isolates(k, qp.log_a, complex(k + delta, 0), r_scaled)


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("eps", [1e-9, -1e-9])
def test_rouche_isolates_near_double_pair(k, eps):
    # each zero at its isolation radius, half the pair's distance; the
    # term-by-term bound on f'' cannot prove either
    qp, pair = _pair(k, eps)
    radius = 0.5 * abs(pair[0] - pair[1])
    assert 1e-5 < radius < 1e-3
    for lam in pair:
        assert kp.rouche_isolates(k, qp.log_a, lam, radius)
        assert not _first_order_isolates(k, qp.log_a, lam, radius)


def test_exp_tail_matches_decimal():
    decimal.getcontext().prec = 60
    rng = random.Random(3)
    radii = [1e-8, 1e-4, 0.1, 0.5, math.nextafter(1.0, 0.0), 1.0]
    radii += [10.0 ** rng.uniform(-8, 0) for _ in range(300)]
    for r in radii:
        d = decimal.Decimal(r)
        want = d.exp() - 1 - d - d * d / 2
        got = decimal.Decimal(kp._exp_tail3(r))
        assert abs(got - want) <= decimal.Decimal("1e-12") * want, r


#: _cofactor's t is within this many times its rounding scale of the
#: reference: relative error <= T_BOUND (|Log A| + k |Log l| + |l|) 2^-52
T_BOUND = 4.0


def test_decimal_reference_agrees_with_cmath():
    # the reference rounds to the double cmath gives, within an ulp or two
    D = decimal.Decimal
    rng = random.Random(3103)
    with decimal.localcontext() as ctx:
        ctx.prec = ref.PRECISION
        for _ in range(40):
            z = cmath.rect(10.0 ** rng.uniform(-5, 6), rng.uniform(-math.pi, math.pi))
            w = complex(rng.uniform(-50.0, 50.0), z.imag)
            for got, want in ((ref.log(D(z.real), D(z.imag)), cmath.log(z)),
                              (ref.exp(D(w.real), D(w.imag)), cmath.exp(w))):
                got = complex(float(got[0]), float(got[1]))
                assert abs(got - want) <= 1e-15 * abs(want), (z, got, want)


def test_cofactor_t_matches_the_decimal_reference():
    # t = e^(+-w) carries the rounding of w's terms, about eps times the sum
    # of their moduli (the scale STEP_FLOOR rests on), and no more.  Points
    # lie near the zero strip (Re w drawn in [-20, 20]) at |Im l| from 1 to
    # 1e6
    D = decimal.Decimal
    rng = random.Random(3102)
    coefficients = [1e-300 + 0j, 1 + 0j, 2 + 1j, -3 + 0j, -1e300 + 0j, complex(0.0, 1e300)]
    coefficients += [cmath.rect(10.0 ** rng.uniform(-300, 300), rng.uniform(-math.pi, math.pi))
                     for _ in range(3)]
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = ref.PRECISION
        for k in (1, 3, 10):
            for a in coefficients:
                qp = core.QuasiPolynomial(k, a)
                ar, ai = ref.log(D(a.real), D(a.imag))
                for height in [10.0 ** rng.uniform(0, 6) for _ in range(10)] + [1e6]:
                    y = math.copysign(height, rng.random() - 0.5)
                    s = rng.uniform(-20.0, 20.0)
                    x = qp.log_a.real + k * math.log(height) - s
                    for _ in range(4):  # Re w = ln|A| + k ln|l| - x -> s
                        x = qp.log_a.real + 0.5 * k * math.log(x * x + y * y) - s
                    lam = complex(x, y)
                    expdom, t, loglam, _w = kp._cofactor(k, qp.log_a, lam)
                    lr, li = ref.log(D(x), D(y))
                    wr, wi = ar + k * lr - D(x), ai + k * li - D(y)
                    tr, ti = ref.exp(wr, wi) if expdom else ref.exp(-wr, -wi)
                    err = (((D(t.real) - tr) ** 2 + (D(t.imag) - ti) ** 2)
                           / (tr * tr + ti * ti)).sqrt()
                    scale = abs(qp.log_a) + k * abs(loglam) + abs(lam)
                    worst = max(worst, float(err) / (scale * 2.0 ** -52))
    assert worst <= T_BOUND, worst


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rouche_at_tiny_lambda(k):
    # lam^2 underflows below |lam| ~ 1e-154 and k/lam overflows near 5e-324;
    # the test then answers without raising.  For k = 1 the second-order
    # term is exactly 0: e^l + 1e300 l has its one zero near -1e-300 in the
    # disk, and e^l + l none within 0.5 of the origin
    for a in (1 + 0j, 1e300 + 0j):
        log_a = core.QuasiPolynomial(k, a).log_a
        for lam in (1e-300 + 0j, -1e-300 + 0j, 1e-300j, 5e-324 + 0j):
            proven = kp.rouche_isolates(k, log_a, lam, 0.5)
            assert isinstance(proven, bool)
            if k == 1 and lam != 5e-324:
                assert proven == (a == 1e300)
            if k == 1 and lam == 5e-324:
                assert not proven


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a", [1 + 0j, 2 + 1j, 1.7e308 + 1e308j])
@pytest.mark.parametrize("lam", [1e-310, 3e-309, 1e-320, 5e-324])
def test_polish_and_critical_step_from_a_subnormal_point(lam, a, k):
    """k/lam overflows below |lam| = k/FLOAT_MAX.  The polish steps from
    there by newton_step's tiny-lam form and reaches the zero, except where
    Newton's own course fails, which it reports: for k = 2 and A = 1 the
    step leaves the seed's basin, and for |A| near FLOAT_MAX and k >= 2 the
    zeros near |A|^(-1/k) (about 1e-154 and 1e-103) are approached only
    geometrically from the first step's landing point, about 1 away.
    critical_step is finite there or None, and matches f'/f'' formed
    directly where both terms are in range."""
    qp = core.QuasiPolynomial(k, a)
    seed = complex(lam)
    ratio, vanishes = kp.newton_step(k, qp.log_a, seed)
    assert not vanishes and cmath.isfinite(ratio) and ratio != 0
    huge = abs(a.real) > 1e300
    *polished, failure = kp.newton_polish_list(
        k, qp.log_a, [seed], 1e-12, 50, zeros_mod.ESCAPE_RADIUS)
    if (k == 2 and a == 1) or (huge and k >= 2):
        assert polished == [[], [], [], []]
        assert type(failure) is (EscapedBasinError if a == 1 else MaxIterationsError)
    else:
        assert failure is None
        [value], [residual], [_its], [_cofactor] = polished
        assert residual < 1e-12 and value != seed
    step = kp.critical_step(k, qp.log_a, seed)
    assert step is None or cmath.isfinite(step)
    if not huge:
        d1 = cmath.exp(seed) + qp.a * (k * seed ** (k - 1))
        d2 = cmath.exp(seed) + (qp.a * (k * (k - 1) * seed ** (k - 2)) if k > 1 else 0)
        assert abs(step - d1 / d2) <= 1e-12 * abs(d1 / d2)


def test_newton_polish_carries_its_last_evaluation():
    rng = random.Random(8)
    for _ in range(200):
        k = rng.choice((1, 2, 3, 5))
        qp = core.QuasiPolynomial(k, complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        z = zeros_mod.lambert_argument(qp, rng.randrange(k))
        lam = -k * kp.lambert_w(z, rng.randint(-4, 4))
        lam += complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        [value], [residual], [_its], [cofactor], failure = kp.newton_polish_list(
            k, qp.log_a, [lam], 1e-12, 60, zeros_mod.ESCAPE_RADIUS)
        assert failure is None
        assert (residual, cofactor) == kp.residual_cofactor(k, qp.log_a, value)
        assert residual == kp.relative_residual(k, qp.log_a, value) < 1e-12
        radii = (1e-3, 0.1, 1.0)
        assert kp.rouche_holds_list(k, [value] * 3, [cofactor] * 3, radii) == [
            kp.rouche_isolates(k, qp.log_a, value, r) for r in radii]


def test_lambert_w_from_log_argument():
    # with Log z passed, a z beyond the float range still gives W: for
    # |z| = 1e320, w + Log w = Log z + 2 pi i m
    logz = complex(320 * math.log(10.0), 0.5)
    for m in (-3, -1, 0, 1, 4):
        w = kp.lambert_w(complex(math.inf, 0.0), m, logz)
        assert abs(w + cmath.log(w) - logz - 2j * math.pi * m) < 1e-12 * abs(logz)
    for z in (0.3 + 2j, -5 - 1e-3j, 1e200 + 1e200j):
        for m in (-2, 0, 3):
            assert kp.lambert_w(z, m, cmath.log(z)) == kp.lambert_w(z, m)


def _bits(w):
    """A complex value bit for bit, signed zeros included."""
    return w.real.hex(), w.imag.hex()


_CUT = -1.0 / math.e


@pytest.mark.parametrize("z, logz", [
    # the branch-point series, above, below and on both sides of the cut
    (complex(_CUT + 1e-3, 0.0), None), (complex(_CUT + 1e-3, -0.0), None),
    (complex(_CUT + 1e-8, 1e-4), None), (complex(_CUT - 1e-3, -1e-4), None),
    (complex(_CUT - 1e-3, 0.0), None), (complex(_CUT - 1e-3, -0.0), None),
    # the cut on (-1/e, 0), where W_-1 above and W_1 below are real
    (complex(-0.2, 0.0), None), (complex(-0.2, -0.0), None),
    (complex(-1e-12, -0.0), None),
    # m = 0 within 1e-2 of the cut on (-1, -1/e): the asymptotic seed
    (complex(-0.5, 5e-3), None), (complex(-0.9, -5e-3), None), (complex(-0.5, -0.0), None),
    # Log(1 + z) for m = 0, and the generic seed
    (0.3 + 0.2j, None), (-3.0 + 1e-3j, None), (1e200 + 1e200j, None),
    # a |z| beyond the float range, placed by its logarithm alone
    (complex(math.inf, 0.0), complex(320 * math.log(10.0), 0.5)),
    (complex(math.inf, -0.0), complex(320 * math.log(10.0), -2.0)),
])
def test_lambert_w_list_matches_one_branch_calls(z, logz):
    # what depends on z alone is formed once per list; each branch's value
    # must be the one-branch value bit for bit, in any order, repeats too
    ms = [0, -1, 1, 2, -2, 0, 5, -37, 120, 1, -1]
    got = kp.lambert_w_list(z, ms, logz)
    assert [_bits(w) for w in got] == [_bits(kp.lambert_w(z, m, logz)) for m in ms]
    assert [_bits(w) for w in kp.lambert_w_list(z, ms[::-1], logz)] == [
        _bits(w) for w in got[::-1]]


def _polish_seeds():
    """k = 1, A = 1: three seeds 1e-6 from zeros -W_m(1)."""
    qp = core.QuasiPolynomial(1, 1 + 0j)
    z = zeros_mod.lambert_argument(qp, 0)
    return qp, [-kp.lambert_w(z, m) + 1e-6 for m in (-2, 0, 3)]


@pytest.mark.parametrize("offset, tolerance, iterations, escape, error", [
    (0.1, 1e-12, 60, 1e-3, EscapedBasinError),
    (None, 1e-12, 60, 3.0, DerivativeVanishesError),  # at l = i pi, f' = e^l + 1 = 0
    (0.5, 1e-12, 2, 3.0, MaxIterationsError),
])
def test_newton_polish_list_stops_at_the_first_failure(offset, tolerance, iterations,
                                                       escape, error):
    qp, seeds = _polish_seeds()
    bad = 1j * math.pi if offset is None else seeds[2] + offset
    args = (tolerance, iterations, escape)

    def one_seed(seed):
        return kp.newton_polish_list(1, qp.log_a, [seed], *args)

    def rows(seeds):
        """The one-seed calls' columns joined into the columns of a list."""
        return [[one_seed(s)[field][0] for s in seeds] for field in range(4)]

    *alone, alone_failure = one_seed(bad)
    assert alone == [[], [], [], []] and type(alone_failure) is error
    *polished, failure = kp.newton_polish_list(1, qp.log_a, [*seeds[:2], bad, seeds[2]], *args)
    # the seeds before it polished as one-seed calls do, the failure the
    # one-seed call's, and nothing polished after it
    assert polished == rows(seeds[:2])
    assert type(failure) is error and str(failure) == str(alone_failure)
    assert kp.newton_polish_list(1, qp.log_a, seeds, *args) == (*rows(seeds), None)


@pytest.mark.parametrize("k", [1, 2, 10])
def test_rouche_holds_list_matches_one_disk_calls(k):
    # radii below, at and above 1 in mixed order, so the list's tail
    # e^r - 1 - r - r^2/2, formed again only where the radius changes, is
    # reused across equal radii and re-formed across different ones
    rng = random.Random(40 + k)
    qp = core.QuasiPolynomial(k, 2 + 1j)
    disks = []
    for j in range(k):
        z = zeros_mod.lambert_argument(qp, j)
        for m in (-3, -1, 1, 4):
            lam = -k * kp.lambert_w(z, m) + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            cofactor = kp.residual_cofactor(k, qp.log_a, lam)[1]
            for r in (1e-3, 0.3, 0.3, 0.999, 1.0, 1.0, 1.7, 6.0, 0.0, -1.0, 700.0):
                disks.append((lam, cofactor, r))
    rng.shuffle(disks)
    got = kp.rouche_holds_list(k, *zip(*disks))
    assert got == [kp.rouche_isolates(k, qp.log_a, lam, r) for lam, cofactor, r in disks]
    assert True in got and False in got
    # a radius the test refuses is not proven before the cofactor is read
    assert kp.rouche_holds_list(k, [0j, disks[0][0]], [None, None], [0.0, -1.0]) == [
        False, False]


def _decimal_step_bound(k, lna, r, ea, rho):
    """The step bound e^Re c (e^rho - 1) + |A| ((r + rho)^k - r^k) in
    60-digit decimals.  Both differences are formed as sums of positive
    terms, the series of expm1 and the binomial expansion, so no digit
    cancels however small rho is against 1 and r."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d_rho, d_r = decimal.Decimal(rho), decimal.Decimal(r)
        expm1 = term = d_rho
        j = 1
        while term > expm1 * decimal.Decimal("1e-62"):
            j += 1
            term = term * d_rho / j
            expm1 += term
        poly = d_rho ** k + sum(math.comb(k, j) * d_r ** (k - j) * d_rho ** j
                                for j in range(1, k))
        return decimal.Decimal(ea) * expm1 + decimal.Decimal(lna).exp() * poly


def test_origin_radius_keeps_its_bound():
    # the near-origin step bound at the returned rho, in 60-digit decimals:
    # below STEP_ACCEPT |f(c)|, and above 0.4 |f(c)| unless the step reached
    # its cap.  |A| from e^-700 to beyond the float range, r near the
    # zeros' |A|^(-1/k) or anywhere down to subnormal values, and 0
    rng = random.Random(18)
    cases = [(2, math.log(1e308), 1.414213562373095e-154, 1.0, 2.2360679774998133, 1.4e-154),
             (1, 709.875, 4e-309, 1.0, 1e-3, 0.5), (3, 700.0, 0.0, 1.0, 1.0, 0.5),
             (1, -700.0, 0.0, 1.0, 1.0, 0.5), (25, -700.0, 0.3, 1.2, 0.9, 0.5),
             # rho / r overflows at the subnormal r
             (1, 11.301909570198859, 2.87e-322, 0.6721101474079423, 4.672847991052346e-05,
              2.662590124592442e-05)]
    for _ in range(600):
        k = rng.choice((1, 2, 3, 5, 10, 25))
        lna = rng.uniform(-700.0, 709.9)
        u = rng.random()
        if u < 0.5:
            r = math.exp(-lna / k) * 10.0 ** rng.uniform(-3, 3)
        elif u < 0.9:
            r = 10.0 ** rng.uniform(-323, 0)
        else:
            r = 0.0
        cases.append((k, lna, min(r, 0.49), math.exp(rng.uniform(-0.5, 0.5)),
                      10.0 ** rng.uniform(-10, 1), 10.0 ** rng.uniform(-160, 0)))
    for k, lna, r, ea, fmod, cap in cases:
        lark = lna + k * math.log(r) if r else -math.inf
        rho = kp._origin_radius(k, ea, lna, r, lark, math.exp(lark), fmod, cap)
        assert 0.0 < rho <= min(cap, kp.ORIGIN_RADIUS), (k, lna, r, fmod, cap)
        bound = _decimal_step_bound(k, lna, r, ea, rho)
        assert bound < decimal.Decimal(kp.STEP_ACCEPT * fmod), (k, lna, r, fmod, cap)
        if rho < min(cap, kp.ORIGIN_RADIUS):
            assert bound > decimal.Decimal(0.4 * fmod), (k, lna, r, fmod, cap)


def test_winding_where_powers_are_subnormal():
    # e^l + 1e308 l^2: zeros at about +-1e-154 i; the circle about the upper
    # one passes within rounding of the origin, where |l|^2 is subnormal
    qp = core.QuasiPolynomial(2, 1e308 + 0j)
    assert certify.winding_count(qp, certify.Circle(1e-154j, 1e-154)).count == 1
