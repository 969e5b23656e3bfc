import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasizeros as qz
from quasizeros import RegionTag
from quasizeros.errors import DomainError, OutsideStripError


@pytest.fixture
def params():
    return qz.RegionParams(2.0, 5.0, 1)


class TestRegionParams:
    @pytest.mark.parametrize("h, r_cut, delta", [
        (math.nan, 5.0, None), (math.inf, 5.0, None), (0.0, 5.0, None),
        (2.0, math.nan, None), (2.0, math.inf, None), (2.0, 5.0, math.nan),
        (2.0, 5.0, math.inf), (2.0, 5.0, 0.0)])
    def test_invalid(self, h, r_cut, delta):
        with pytest.raises(DomainError):
            qz.RegionParams(h, r_cut, 1, delta)


class TestSignedOffset:
    def test_examples(self, qp11):
        assert qz.signed_offset(qp11, math.e, 1) == pytest.approx(math.e - 1)
        assert qz.signed_offset(qp11, math.e, 2) == pytest.approx(math.e + 1)
        qp2 = qz.QuasiPolynomial(2, 1 + 0j)
        assert qz.signed_offset(qp2, 1 + 0j, 1) == pytest.approx(1.0)

    def test_origin_rejected(self, qp11):
        with pytest.raises(DomainError):
            qz.signed_offset(qp11, 0, 1)

    def test_bad_branch(self, qp11):
        with pytest.raises(DomainError):
            qz.signed_offset(qp11, 1.0, 3)


class TestClassify:
    def test_exterior_examples(self, qp11, params):
        assert qz.classify(qp11, -100.0, params).tag is RegionTag.T_EXTERIOR_1
        assert qz.classify(qp11, 100.0, params).tag is RegionTag.T_EXTERIOR_2

    def test_strip_example(self, qp11, params):
        label = qz.classify(qp11, 2.33 + 10j, params)
        assert label.tag is RegionTag.STRIP
        assert label.half == 1
        # cross-check the offset by direct arithmetic
        off = 2.33 - math.log(abs(2.33 + 10j))
        assert abs(off) <= 2.0

    def test_origin_disk(self, qp11, params):
        assert qz.classify(qp11, 1 + 1j, params).tag is RegionTag.ORIGIN_DISK

    def test_boundary_conventions(self, qp11):
        # |l| = R exactly -> origin disk (closed disk)
        p = qz.RegionParams(1.0, 0.5, 1)
        assert qz.classify(qp11, 0.5, p).tag is RegionTag.ORIGIN_DISK
        # offset = +-h exactly -> strip (closed strip); ln|1| = 0 makes it exact
        assert qz.classify(qp11, 1.0, p).tag is RegionTag.STRIP
        assert qz.classify(qp11, -1.0, p).tag is RegionTag.STRIP
        # real-axis strip points take the upper half by convention
        assert qz.classify(qp11, 1.0, p).half == 1

    def test_lower_half(self, qp11, params):
        label = qz.classify(qp11, 2.33 - 10j, params)
        assert label.tag is RegionTag.STRIP
        assert label.half == 2

    def test_partition_totality_random(self, qp11, params):
        import random

        rng = random.Random(11)
        for _ in range(100000):
            lam = complex(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
            label = qz.classify(qp11, lam, params)
            assert label.tag in RegionTag

    def test_monotone_nesting(self, qp11):
        import random

        rng = random.Random(3)
        small = qz.RegionParams(1.0, 5.0, 1)
        big = qz.RegionParams(2.5, 5.0, 1)
        hits = 0
        for _ in range(20000):
            lam = complex(rng.uniform(-30, 30), rng.uniform(-100, 100))
            if qz.classify(qp11, lam, small).tag is RegionTag.STRIP:
                hits += 1
                assert qz.classify(qp11, lam, big).tag is RegionTag.STRIP
        assert hits > 0


@settings(max_examples=300)
@given(re=st.floats(-500, 500), im=st.floats(-500, 500),
       h=st.floats(0.1, 5), r=st.floats(0.1, 20), s=st.sampled_from([1, 2]))
def test_classify_total_property(re, im, h, r, s):
    qp = qz.QuasiPolynomial(2, 1.5 - 0.5j)
    label = qz.classify(qp, complex(re, im), qz.RegionParams(h, r, s))
    assert (label.half is not None) == (label.tag is RegionTag.STRIP)


class TestSectorContains:
    def test_examples(self):
        assert qz.sector_contains(1j, 0.1, 1) is True
        assert qz.sector_contains(1.0, 0.1, 1) is False
        assert qz.sector_contains(-1j, 0.1, 2) is True

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            qz.sector_contains(0, 0.1, 1)

    def test_sector_index_rejected(self):
        with pytest.raises(DomainError, match="^sector index must be 1 or 2$"):
            qz.sector_contains(1j, 0.5, 3)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
    def test_invalid_delta(self, delta):
        with pytest.raises(DomainError):
            qz.sector_contains(1j, delta, 1)


class TestSectorCoverRadius:
    def test_examples(self, qp11):
        # largest root of (h + k ln r)/r = sin(delta), checked by substitution
        for h, delta in ((2.0, 0.5), (2.0, 1.5), (0.5, 0.3)):
            r = qz.sector_cover_radius(qp11, h, delta)
            assert (h + math.log(r)) / r == pytest.approx(math.sin(delta), rel=1e-9)
        qp2 = qz.QuasiPolynomial(2, 1 + 0j)
        r = qz.sector_cover_radius(qp2, 1.0, 0.5)
        assert (1.0 + 2 * math.log(r)) / r == pytest.approx(math.sin(0.5), rel=1e-9)

    def test_reference_magnitudes(self, qp11):
        assert qz.sector_cover_radius(qp11, 2.0, 0.5) == pytest.approx(8.7, abs=0.1)
        assert qz.sector_cover_radius(qp11, 2.0, 1.5) == pytest.approx(3.2, abs=0.1)
        qp2 = qz.QuasiPolynomial(2, 1 + 0j)
        assert qz.sector_cover_radius(qp2, 1.0, 0.5) == pytest.approx(12.7, abs=0.1)

    def test_largest_root(self, qp11):
        # beyond the returned radius the ratio stays below sin(delta)
        r = qz.sector_cover_radius(qp11, 2.0, 0.5)
        for mult in (1.01, 2, 10, 100):
            rr = r * mult
            assert (2.0 + math.log(rr)) / rr < math.sin(0.5)

    def test_invalid_delta(self, qp11):
        with pytest.raises(DomainError):
            qz.sector_cover_radius(qp11, 2.0, 2.0)
        with pytest.raises(DomainError):
            qz.sector_cover_radius(qp11, 2.0, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_h(self, qp11, h):
        with pytest.raises(DomainError, match="h must be a positive finite number"):
            qz.sector_cover_radius(qp11, h, 0.5)

    @pytest.mark.parametrize("k", [1, 3, 25])
    @pytest.mark.parametrize("h", [200.0, 745.0, 1e3, 1e5, 1e300])
    def test_large_h(self, k, h):
        # the peak exp(1 - h/k) of (h + k ln r)/r underflows beyond h/k of
        # about 745, and the root lies far more doublings above it than 200
        qp = qz.QuasiPolynomial(k, 1 + 0j)
        for delta in (0.5, 1.5):
            r = qz.sector_cover_radius(qp, h, delta)
            assert (h + k * math.log(r)) / r == pytest.approx(math.sin(delta), rel=1e-9)

    def test_radius_beyond_the_float_range(self, qp11):
        with pytest.raises(DomainError, match="beyond the float range"):
            qz.sector_cover_radius(qp11, 1e308, 0.5)


class TestStripQuadrangle:
    def test_asymptotic_ordinate_spacing(self, qp11, params):
        shift = math.pi + 0.5 * math.pi
        y0 = qz.asymptotic_zero(qp11, 19).imag - shift
        y1 = qz.asymptotic_zero(qp11, 20).imag - shift
        quad = qz.strip_quadrangle(qp11, params, 20, (y0, y1))
        assert quad.upper_ordinate - quad.lower_ordinate == pytest.approx(
            2 * math.pi, abs=1e-9)

    def test_refined_ordinate_spacing_trend(self, qp11, params):
        # the spacing approaches 2*pi as nu grows
        shift = math.pi + 0.5 * math.pi
        devs = []
        for nu in (20, 40):
            recs = qz.zeros_in_index_range(qp11, nu - 1, nu, 1e-12, certify=False)
            y0 = recs[0].value.imag - shift
            y1 = recs[1].value.imag - shift
            quad = qz.strip_quadrangle(qp11, params, nu, (y0, y1))
            devs.append(abs(quad.upper_ordinate - quad.lower_ordinate - 2 * math.pi))
        assert devs[0] < 5e-3
        assert devs[1] < devs[0]

    def test_diagonal_reference(self, qp11, params):
        # level curves become vertically parallel: diagonal -> sqrt(4pi^2 + 16)
        shift = math.pi + 0.5 * math.pi
        recs = qz.zeros_in_index_range(qp11, 19, 20, 1e-12, certify=False)
        quad = qz.strip_quadrangle(
            qp11, params, 20,
            (recs[0].value.imag - shift, recs[1].value.imag - shift))
        ref = math.sqrt((2 * math.pi) ** 2 + (2 * params.h) ** 2)
        assert abs(quad.diagonal - ref) / ref < 0.10
        assert quad.diagonal >= quad.upper_ordinate - quad.lower_ordinate

    def test_degenerate(self, qp11, params):
        quad = qz.strip_quadrangle(qp11, params, 7, (50.0, 50.0))
        width = quad.right_curve[0].real - quad.left_curve[0].real
        assert quad.diagonal == pytest.approx(width)

    def test_outside_strip(self, qp11):
        tight = qz.RegionParams(2.0, 50.0, 1)
        with pytest.raises(OutsideStripError):
            qz.strip_quadrangle(qp11, tight, 2, (8.0, 10.0))

    def test_curves_sit_on_level_sets(self, qp11, params):
        quad = qz.strip_quadrangle(qp11, params, 10, (60.0, 66.28))
        for pt in quad.left_curve:
            assert qz.signed_offset(qp11, pt, 1) == pytest.approx(-2.0, abs=1e-9)
        for pt in quad.right_curve:
            assert qz.signed_offset(qp11, pt, 1) == pytest.approx(2.0, abs=1e-9)
