import cmath
import hashlib
import json
import math
import pathlib
import random
import types

import pytest

import quasizeros as qz
from quasizeros import _sampling as sp, bounds, cli
from quasizeros.errors import (
    DeltaTooLargeError,
    DomainError,
    EmptyRegionSampleError,
    IncompleteZeroListError,
    PreconditionHError,
    QuasiZeroError,
)

from conftest import direct_f

LN2 = math.log(2.0)


class TestHThreshold:
    def test_examples(self):
        assert qz.h_threshold(qz.QuasiPolynomial(1, 1 + 0j), "T1") == pytest.approx(LN2)
        assert qz.h_threshold(qz.QuasiPolynomial(1, 4 + 0j), "T1") == 1e-3
        assert qz.h_threshold(qz.QuasiPolynomial(1, 4 + 0j), "T2") == pytest.approx(
            math.log(8.0))
        assert qz.h_threshold(qz.QuasiPolynomial(2, 0.5j), "T2") == 1e-3

    def test_bad_selector(self, qp11):
        with pytest.raises(DomainError):
            qz.h_threshold(qp11, "T3")

    @pytest.mark.parametrize("a", [1e308 + 0j, 1.7e308 + 1e308j])
    def test_huge_coefficient(self, a):
        # 2|A| (and for the second A, |A| itself) overflows; ln(2|A|) does not
        qp = qz.QuasiPolynomial(1, a)
        assert qz.h_threshold(qp, "T2") == pytest.approx(LN2 + qp.log_abs_a, rel=1e-15)
        rep = qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.5, 10.0, 100, seed=1)
        assert rep.passed and rep.proven_margin == pytest.approx(2.0 * (1.0 - math.exp(-0.5) / 2))
        rep = qz.verify_T1_bound(qp, 0.5, 10.0, 100, seed=1)
        assert rep.passed and rep.proven_margin == 2.0

    @pytest.mark.parametrize("a", [1e-308 + 0j, 1e-320 + 0j, 5e-324 + 0j, 3e-300 + 2e-300j])
    def test_tiny_coefficient(self, a):
        # 2/|A| (and for the subnormal A, 1/|A| itself) overflows; ln(2/|A|)
        # does not.  At h = threshold + 1/2, e^-h is subnormal or 0, and
        # e^-h / |A| is 1/2 e^-1/2 all the same
        qp = qz.QuasiPolynomial(1, a)
        threshold = qz.h_threshold(qp, "T1")
        assert threshold == pytest.approx(LN2 - qp.log_abs_a, rel=1e-15)
        rep = qz.verify_T1_bound(qp, threshold + 0.5, 10.0, 100, seed=1)
        assert rep.passed and rep.threshold_h_used == threshold
        assert rep.proven_margin == pytest.approx(2.0 - math.exp(-0.5), rel=1e-12)

    def test_strip_constant_beyond_the_float_range(self):
        # |f|/|l|^k is about |A| in the strip; e^709.9 has no float
        qp = qz.QuasiPolynomial(1, 1.7e308 + 1e308j)
        strip = qz.zeros_in_index_range(qp, -12, 12)
        with pytest.raises(DomainError, match="beyond the float range"):
            qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 100, 1, strip, im_cap=50.0)


class TestExteriorBounds:
    def test_T1_passes(self, qp11):
        rep = qz.verify_T1_bound(qp11, 1.0, 5.0, 10000, seed=1)
        assert rep.passed
        assert rep.min_margin >= 1.0
        assert rep.samples == 10000
        # worst point really sits in the sampled region
        off = qz.signed_offset(qp11, rep.worst_point, 1)
        assert off < -1.0 and abs(rep.worst_point) >= 5.0

    @pytest.mark.parametrize("r_cut, r_max", [
        (0.0, 1e3), (math.nan, 1e3), (10.0, 10.0), (10.0, math.inf), (10.0, math.nan)])
    def test_shell_rejected(self, qp11, r_cut, r_max):
        with pytest.raises(DomainError):
            qz.verify_T1_bound(qp11, 1.0, r_cut, 100, seed=1, r_max=r_max)

    @pytest.mark.parametrize("which", ["T1", "T2"])
    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_h_rejected(self, qp11, which, h):
        # refused before sampling: the region is empty or undefined
        verify = qz.verify_T1_bound if which == "T1" else qz.verify_T2_bound
        with pytest.raises(DomainError, match="h must be a positive finite number"):
            verify(qp11, h, 10.0, 100, seed=1)

    def test_T1_precondition(self, qp11):
        with pytest.raises(PreconditionHError):
            qz.verify_T1_bound(qp11, 0.5, 5.0, 100, seed=1)

    def test_T1_deep_interior_margin(self, qp11):
        # far from the strip the monomial dominates: |f|/((1/2)|A||l|^k) -> 2
        es = qz.evaluate_scaled(qp11, -100.0)
        margin = math.exp(es.log_magnitude - (math.log(0.5) + math.log(100.0)))
        assert margin == pytest.approx(2.0, abs=1e-10)

    def test_T2_passes(self, qp11):
        rep = qz.verify_T2_bound(qp11, 1.0, 5.0, 10000, seed=1)
        assert rep.passed and rep.min_margin >= 1.0

    def test_T2_deep_interior_margin(self, qp11):
        es = qz.evaluate_scaled(qp11, 100.0)
        margin = math.exp(es.log_magnitude - (100.0 - LN2))
        assert margin == pytest.approx(2.0, abs=1e-10)

    def test_T2_precondition(self, qp11):
        with pytest.raises(PreconditionHError):
            qz.verify_T2_bound(qp11, 0.5, 5.0, 100, seed=1)

    def test_sharpness_near_boundary(self, qp11):
        # with h barely above threshold, margins near offset = -h approach 1
        h = LN2 + 1e-3
        worst = math.inf
        deep = None
        for i in range(4000):
            y = 10.0 + i * 0.05
            x = qz.regions.level_curve_re(qp11, y, -h, 1) - 1e-9
            lam = complex(x, y)
            es = qz.evaluate_scaled(qp11, lam)
            margin = math.exp(
                es.log_magnitude - (math.log(0.5) + math.log(abs(lam))))
            worst = min(worst, margin)
        assert 1.0 <= worst <= 1.2
        # and deep inside the same region the margin approaches 2
        es = qz.evaluate_scaled(qp11, -200.0)
        deep = math.exp(es.log_magnitude - (math.log(0.5) + math.log(200.0)))
        assert deep == pytest.approx(2.0, abs=1e-6)

    def test_determinism_bitwise(self, qp11):
        a = qz.verify_T1_bound(qp11, 1.0, 5.0, 20000, seed=42)
        b = qz.verify_T1_bound(qp11, 1.0, 5.0, 20000, seed=42)
        assert a == b
        c = qz.verify_T1_bound(qp11, 1.0, 5.0, 20000, seed=43)
        assert c.min_margin != a.min_margin

    def test_small_sample_counts(self, qp11):
        rep = qz.verify_T1_bound(qp11, 1.0, 5.0, 3, seed=5)
        assert rep.samples == 3

    def test_printed_branch_region_contains_zeros(self, qp11):
        """The alternative S=2 right-side region provably contains zeros of f
        (offset_2 at a zero is ln|A| + 2k ln|l|), so the exponential lower
        bound cannot hold there; the sampler finds the violation."""
        h = qz.h_threshold(qp11, "T2") + 0.5
        for rec in qz.zeros_in_index_range(qp11, 3, 40, 1e-12, certify=False):
            if abs(rec.value) >= 10.0:
                assert qz.signed_offset(qp11, rec.value, 2) > h
        rep = qz.verify_T2_bound(qp11, h, 10.0, 100000, seed=1, s_branch=2)
        assert not rep.passed
        # while no zero sits in the default (S=1) region at all
        for rec in qz.zeros_in_index_range(qp11, 1, 40, 1e-12, certify=False):
            assert qz.signed_offset(qp11, rec.value, 1) < h


ACCEPTANCE_COMBOS = [(k, a) for k in (1, 2, 3) for a in (1 + 0j, 2 + 1j, 0.5j)]


class TestProvenMargin:
    def test_example(self, qp11):
        h = qz.h_threshold(qp11, "T1") + 0.5
        rep = qz.verify_T1_bound(qp11, h, 10.0, 100, seed=7)
        assert round(rep.proven_margin, 4) == 1.3935

    def test_closed_forms(self):
        qp = qz.QuasiPolynomial(2, 2 + 1j)
        h = qz.h_threshold(qp, "T2") + 0.25
        rep1 = qz.verify_T1_bound(qp, h, 10.0, 100, seed=1)
        rep2 = qz.verify_T2_bound(qp, h, 10.0, 100, seed=1)
        assert rep1.proven_margin == pytest.approx(2.0 * (1.0 - math.exp(-h) / abs(qp.a)))
        assert rep2.proven_margin == pytest.approx(2.0 * (1.0 - abs(qp.a) * math.exp(-h)))

    @pytest.mark.parametrize("which", ["T1", "T2"])
    def test_above_one_past_threshold(self, which):
        verify = qz.verify_T1_bound if which == "T1" else qz.verify_T2_bound
        for k, a in ACCEPTANCE_COMBOS:
            qp = qz.QuasiPolynomial(k, a)
            h = qz.h_threshold(qp, which) * (1.0 + 1e-9) + 1e-12
            assert verify(qp, h, 10.0, 10, seed=1).proven_margin >= 1.0

    def test_no_proof_on_s2_branch(self, qp11):
        h = qz.h_threshold(qp11, "T2") + 0.5
        rep = qz.verify_T2_bound(qp11, h, 10.0, 100, seed=1, s_branch=2)
        assert rep.proven_margin is None

    @pytest.mark.parametrize("k, a", ACCEPTANCE_COMBOS)
    def test_sampled_minimum_above_proven(self, k, a):
        # the sizes and seed of acceptance criteria 05 and 06
        qp = qz.QuasiPolynomial(k, a)
        for verify, which in ((qz.verify_T1_bound, "T1"), (qz.verify_T2_bound, "T2")):
            h = qz.h_threshold(qp, which) + 0.5
            rep = verify(qp, h, 10.0, 100000, seed=1)
            assert rep.min_margin >= rep.proven_margin * (1.0 - 1e-12), (which, rep)


class TestMarginAgainstDirect:
    """The samplers take each margin from the drawn ln|l| and arg l; the
    worst point's margin must match a direct evaluation there (|l| <= 60,
    so plain complex arithmetic cannot overflow)."""

    @pytest.mark.parametrize("k, a", ACCEPTANCE_COMBOS)
    def test_exterior(self, k, a):
        qp = qz.QuasiPolynomial(k, a)
        h1 = qz.h_threshold(qp, "T1") + 0.5
        h2 = qz.h_threshold(qp, "T2") + 0.5
        runs = [
            (qz.verify_T1_bound(qp, h1, 10.0, 10000, 1, r_max=60.0),
             lambda lam: math.log(0.5 * abs(a)) + k * math.log(abs(lam))),
            (qz.verify_T2_bound(qp, h2, 10.0, 10000, 1, r_max=60.0),
             lambda lam: lam.real - LN2),
            (qz.verify_T2_bound(qp, h2, 10.0, 10000, 1, r_max=60.0, s_branch=2),
             lambda lam: lam.real - LN2),
        ]
        for rep, log_bound in runs:
            lam = rep.worst_point
            direct = math.log(abs(direct_f(qp, lam))) - log_bound(lam)
            assert abs(math.log(rep.min_margin) - direct) < 1e-12, rep

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (1, 2 + 1j), (1, 0.5j), (2, 1 + 0j),
                                      (2, 2 + 1j)])
    def test_cdelta(self, k, a):
        qp = qz.QuasiPolynomial(k, a)
        strip = qz.zeros_in_index_range(qp, -12, 12)
        est = qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 10000, 1, strip, im_cap=50.0)
        lam = est.argmin
        assert abs(lam) <= 60.0
        direct = math.log(abs(direct_f(qp, lam))) - k * math.log(abs(lam))
        assert abs(math.log(est.c_hat) - direct) < 1e-12


class TestStreamPinned:
    """Seeded reports at fixed inputs, as computed with each margin taken
    from a fresh complex logarithm.  Taking it from the draw may move a
    margin only in its last bits; the worst point stays exact."""

    EXTERIOR = [
        (1, 1 + 0j, "T1", 1.4811523814612082, complex(1.0559996067755972, -10.981247206771597)),
        (1, 1 + 0j, "T2", 1.4447642107251573, complex(4.14192753677746, -16.99528638029078)),
        (2, 2 + 1j, "T1", 1.5711696400026125, complex(4.467833780649664, 12.543178593451161)),
        (2, 2 + 1j, "T2", 1.484967211659639, complex(7.395633515924106, 12.31461968464209)),
    ]

    @pytest.mark.parametrize("k, a, which, margin, worst", EXTERIOR)
    def test_exterior(self, k, a, which, margin, worst):
        qp = qz.QuasiPolynomial(k, a)
        verify = qz.verify_T1_bound if which == "T1" else qz.verify_T2_bound
        rep = verify(qp, qz.h_threshold(qp, which) + 0.5, 10.0, 10000, seed=1)
        assert rep.worst_point == worst
        assert rep.min_margin == pytest.approx(margin, rel=1e-13, abs=0.0)

    def test_sector_cover(self, qp11):
        r_star = qz.sector_cover_radius(qp11, 2.0, 0.5)
        rep = qz.verify_sector_cover(qp11, 2.0, 0.5, r_star, 1000, 3)
        assert rep == bounds.SectorCoverReport(
            r_used=8.678923298880754, samples=1000, min_margin=0.015621586673110421,
            worst_point=complex(-4.195669398198697, 7.97369705704107), violations=0,
            passed=True)


class TestSectorCover:
    def test_pass_and_witness(self, qp11):
        r_star = qz.sector_cover_radius(qp11, 2.0, 0.5)
        rep = qz.verify_sector_cover(qp11, 2.0, 0.5, r_star, 4000, seed=9)
        assert rep.passed and rep.violations == 0 and rep.min_margin > 0
        rep_half = qz.verify_sector_cover(qp11, 2.0, 0.5, r_star / 2, 4000, seed=9)
        assert not rep_half.passed and rep_half.violations >= 1
        # the witness really violates both sectors
        w = rep_half.worst_point
        assert not (qz.sector_contains(w, 0.5, 1) or qz.sector_contains(w, 0.5, 2))

    def test_radius_beyond_r_max_rejected(self, qp11):
        r_star = qz.sector_cover_radius(qp11, 2.0, 0.005)
        assert r_star > bounds.DEFAULT_R_MAX
        with pytest.raises(DomainError):
            qz.verify_sector_cover(qp11, 2.0, 0.005, r_star, 2000, seed=1)

    @pytest.mark.parametrize("r_cut, r_max, samples, s_branch", [
        (0.0, 1e3, 100, None), (10.0, 10.0, 100, None), (10.0, 1e3, 0, None),
        (10.0, 1e3, 100, 3)])
    def test_bad_inputs(self, qp11, r_cut, r_max, samples, s_branch):
        with pytest.raises(DomainError):
            qz.verify_sector_cover(qp11, 2.0, 0.5, r_cut, samples, seed=1,
                                   r_max=r_max, s_branch=s_branch)

    @pytest.mark.parametrize("h, delta", [
        (math.nan, 0.5), (math.inf, 0.5), (2.0, math.nan), (2.0, math.inf), (2.0, 0.0)])
    def test_bad_geometry(self, qp11, h, delta):
        with pytest.raises(DomainError):
            qz.verify_sector_cover(qp11, h, delta, 10.0, 100, seed=1)


def _strip_zeros(qp, span, tol=1e-12):
    return qz.zeros_in_index_range(qp, -span, span, tol)


class TestCDelta:
    def test_positive_and_monotone(self, qp11):
        strip = _strip_zeros(qp11, 8)
        kw = dict(im_cap=2 * math.pi * 5.5, verify_completeness=True)
        est5 = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 20000, 1, strip, **kw)
        est25 = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.25, 20000, 1, strip, **kw)
        est1 = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.1, 20000, 1, strip, **kw)
        assert est5.c_hat > 0
        assert est1.c_hat <= est25.c_hat <= est5.c_hat
        # the argmin sits in the sampled window, outside every disk
        assert abs(est5.argmin) >= 10.0
        assert all(abs(est5.argmin - r.value) >= 0.5 for r in strip)

    def test_scale_of_minimum(self, qp11):
        # |f|/|l|^k at distance delta from a ladder zero is about |A|*delta,
        # shaved by curvature; the sampled infimum lands just below that
        strip = _strip_zeros(qp11, 8)
        est = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 20000, 1, strip,
                                  im_cap=2 * math.pi * 5.5)
        assert 0.2 < est.c_hat < 0.5

    def test_delta_too_large(self, qp11):
        strip = _strip_zeros(qp11, 8)
        with pytest.raises(DeltaTooLargeError):
            qz.estimate_C_delta(qp11, 2.0, 10.0, 4.0, 1000, 1, strip,
                                im_cap=2 * math.pi * 5.5)

    def test_zeros_outside_the_window_do_not_constrain_delta(self, capsys):
        # k=1, A=-3: two real zeros 0.89 apart near the origin, 8 or more
        # from any sample at R=10.  The ladder plus every disk zero the CLI
        # searches (|l| <= R + h + 2 pi k) gives the c_hat of the CLI's
        # window-filtered list.
        qp = qz.QuasiPolynomial(1, -3 + 0j)
        strip = qz.zeros_in_index_range(qp, -63, 63, 1e-12)
        disk = qz.find_zeros_in_disk(qp, 10.0 + 2.0 + 2.0 * math.pi)
        strip += [rec for rec in disk
                  if all(abs(rec.value - r.value) >= 1e-6 for r in strip)]
        assert qz.separation_radius(strip) < 0.5
        est = qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 2000, 1, strip)
        assert cli.main(["bounds", "--k", "1", "--a", "-3+0i", "--which", "cdelta",
                         "--samples", "2000", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["c_hat"] == est.c_hat

    def test_close_pair_inside_the_window_refused(self, qp11):
        strip = _strip_zeros(qp11, 8)
        inside = next(rec for rec in strip if rec.nu == 3)
        crowded = strip + [inside._replace(value=inside.value + 0.6)]
        with pytest.raises(DeltaTooLargeError, match="separation radius 0.3 "):
            qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 1000, 1, crowded,
                                im_cap=2 * math.pi * 5.5)

    def test_incomplete_list_detected(self, qp11):
        strip = _strip_zeros(qp11, 8)
        gutted = [r for r in strip if r.nu != 3]
        with pytest.raises(IncompleteZeroListError,
                           match=r"zero list covers 4 zeros in the sampled window "
                                 r"\(half 1\) but the winding count is 5$"):
            qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 1000, 1, gutted,
                                im_cap=2 * math.pi * 5.5)

    def test_uncertified_list_rejected(self, qp11):
        strip = [r._replace(certified=False)
                 for r in _strip_zeros(qp11, 8)]
        with pytest.raises(IncompleteZeroListError):
            qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 1000, 1, strip,
                                im_cap=2 * math.pi * 5.5)

    @pytest.mark.parametrize("h, r_cut, delta, im_cap, samples", [
        (0.0, 10.0, 0.5, 40.0, 100), (-1.0, 10.0, 0.5, 40.0, 100),
        (2.0, 0.0, 0.5, 40.0, 100), (2.0, -5.0, 0.5, 40.0, 100),
        (2.0, 10.0, 0.0, 40.0, 100), (2.0, 10.0, -0.5, 40.0, 100),
        (2.0, 10.0, 0.5, 0.0, 100), (2.0, 10.0, 0.5, math.inf, 100),
        (2.0, 10.0, 0.5, math.nan, 100), (2.0, 10.0, 0.5, 40.0, 0),
        (math.inf, 10.0, 0.5, 40.0, 100), (math.nan, 10.0, 0.5, 40.0, 100),
        (2.0, math.inf, 0.5, 40.0, 100), (2.0, 10.0, math.inf, 40.0, 100),
        (2.0, 10.0, math.nan, 40.0, 100),
    ])
    def test_bad_inputs(self, qp11, h, r_cut, delta, im_cap, samples):
        with pytest.raises(DomainError):
            qz.estimate_C_delta(qp11, h, r_cut, delta, samples, 1,
                                _strip_zeros(qp11, 8), im_cap=im_cap)

    def test_window_beyond_the_step_budget_refused(self, qp11):
        # a window whose branch walk would take more than STEP_BUDGET
        # branches per root is refused by name, before its draws, whether or
        # not completeness is checked: for k = 1 and delta = 0.5, the walk
        # of the window padded by delta + 1 and then by 2 must stay below
        # |Im l| = 2 pi 32767
        limit = 2 * math.pi * ((qz.certify.STEP_BUDGET - 1) // 2) - 3.5
        strip = _strip_zeros(qp11, 8)
        for im_cap in (1e200, limit * (1 + 1e-12)):
            with pytest.raises(DomainError, match=r"^im_cap = .* exceeds the limit 205878 of "
                                                  r"the window's branch walk$"):
                qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 100, 1, strip, im_cap=im_cap,
                                    verify_completeness=False)
        assert len(bounds._window_boxes(qp11, 2.0, 10.0, limit * (1 - 1e-12), 0.5)) == 2
        # the limit grows with k; at k = 25 and R = 10 samples reach the
        # real axis, so the window is one box
        qp25 = qz.QuasiPolynomial(25, 1 + 0j)
        assert len(bounds._window_boxes(qp25, 2.0, 10.0, 25 * limit, 0.5)) == 1

    def test_window_limit_is_the_walk_budget(self, qp11, monkeypatch):
        # with a budget of 8 branches per root the walk covers |Im l| below
        # 2 pi 3: the window walks up to that height, and a window a little
        # taller is refused before its walk
        monkeypatch.setattr(qz.certify, "STEP_BUDGET", 8)
        limit = 2 * math.pi * 3 - 2.0 - 1.5
        assert bounds.window_zeros(qp11, 2.0, 10.0, limit - 1e-9, 0.5)
        with pytest.raises(DomainError, match="exceeds the limit 15.3496 "):
            bounds.window_zeros(qp11, 2.0, 10.0, limit + 1e-9, 0.5)

    def test_empty_window_decided_by_the_count(self, qp11):
        # k = 4, A = 0.0023, im_cap = 1: the window holds no zero, and the
        # empty list passes the count; unchecked it is refused, and a window
        # with zeros refuses it by the count
        qp = qz.QuasiPolynomial(4, 0.0023 + 0j)
        assert bounds.window_zeros(qp, 2.0, 10.0, 1.0, 0.5) == []
        assert qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 1000, 1, [], im_cap=1.0).c_hat > 0
        with pytest.raises(IncompleteZeroListError, match="^an empty zero list cannot"):
            qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 1000, 1, [], im_cap=1.0,
                                verify_completeness=False)
        with pytest.raises(IncompleteZeroListError, match="^zero list covers 0 zeros"):
            qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 1000, 1, [], im_cap=50.0)

    def test_determinism(self, qp11):
        strip = _strip_zeros(qp11, 8)
        kw = dict(im_cap=2 * math.pi * 5.5, verify_completeness=False)
        a = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 5000, 77, strip, **kw)
        b = qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 5000, 77, strip, **kw)
        assert a == b


def _assembled_window(qp, h, r_cut, im_cap, delta, tol=1e-12):
    """The C_delta strip list as the command line once assembled it: the
    ladder over |nu| <= im_cap / 2 pi + 3, the disk search of radius
    R + h + 2 pi k joined to it (certify.join_disk), and of the disk's zeros
    only those in the window's boxes."""
    span = int(im_cap / (2 * math.pi)) + 3
    ladder = qz.zeros_in_index_range(qp, -span, span, tol)
    disk = qz.find_zeros_in_disk(qp, r_cut + h + 2 * math.pi * qp.k, tol)
    joined = qz.certify.join_disk(qp, ladder, disk, range(-span, span + 1))
    boxes = bounds._window_boxes(qp, h, r_cut, im_cap, delta)
    return joined[:len(ladder)] + [rec for rec in joined[len(ladder):]
                                   if any(box.contains(rec.value) for box in boxes)]


def _window_cases(count=48):
    """(k, A, R, im_cap, delta, seed): A complex, real < 0 and real > 0
    with |A| from 1e-5 to 720, and A = -e^k/k^k (1 + eps), at and beside the
    branch point; R from 1e-6 to 50."""
    rng = random.Random(2701)
    cases = []
    for i in range(count):
        k = rng.choice((1, 2, 3, 4, 5, 7, 10, 25))
        mag = 10 ** rng.uniform(-5, math.log10(720))
        a = (mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi)), complex(-mag, 0.0),
             complex(mag, 0.0),
             complex(-math.e ** k / k ** k * (1 + rng.choice((0.0, 1e-9, -1e-3, 1e-3))), 0.0)
             )[i % 4]
        cases.append((k, a, 10 ** rng.uniform(-6, math.log10(50)),
                      rng.choice((1.0, 3.0, 10.0, 40.0, 2 * math.pi * 20)),
                      rng.choice((0.1, 0.25, 0.5)), rng.getrandbits(16)))
    return cases


def _estimate(qp, r_cut, delta, seed, strip, im_cap):
    try:
        return qz.estimate_C_delta(qp, 2.0, r_cut, delta, 2000, seed, strip, im_cap=im_cap)
    except QuasiZeroError as exc:
        return type(exc).__name__, str(exc)


class TestWindowListing:
    """bounds.window_zeros lists the C_delta window by one branch walk."""

    def test_matches_the_ladder_and_disk_assembly(self):
        # the same records in the window's boxes, and the same estimate.
        # A window of one box also holds the stretch |Im l| < 1 between the
        # half-windows, with the zeros the ladder does not name: there the
        # assembly takes them from its disk search (a double zero's last bits
        # then come from another square), and where it left one out its list
        # fails the box's count
        agree = 0
        for case in _window_cases():
            k, a, r_cut, im_cap, delta, seed = case
            qp = qz.QuasiPolynomial(k, a)
            try:
                assembled = _assembled_window(qp, 2.0, r_cut, im_cap, delta)
            except QuasiZeroError:
                continue
            listed = bounds.window_zeros(qp, 2.0, r_cut, im_cap, delta)
            boxes = bounds._window_boxes(qp, 2.0, r_cut, im_cap, delta)

            def compared(records):
                return sorted((rec for rec in records
                               if any(box.contains(rec.value) for box in boxes)
                               and (len(boxes) == 2 or abs(rec.value.imag) >= 1.0)),
                              key=lambda rec: qz.zeros.im_order(rec.value))

            assert compared(listed) == compared(assembled), case
            old, new = (_estimate(qp, r_cut, delta, seed, strip, im_cap)
                        for strip in (assembled, listed))
            if old == new:
                agree += 1
                continue
            missed = [rec.value for rec in listed
                      if all(abs(rec.value - other.value) > 1e-9 for other in assembled)]
            assert len(boxes) == 1 and any(boxes[0].contains(z) for z in missed), case
            assert old[0] == "IncompleteZeroListError", case
            assert all(abs(rec.value - new.argmin) >= delta for rec in listed), case
        assert agree >= 40

    def test_lists_the_zeros_between_the_half_boxes(self, capsys):
        # k = 1, A = 1, R = 0.5: the real zero -0.567 lies between the
        # half-boxes, in the sampled strip; the ladder does not name it, and a
        # list without it drew 0.033 from it (c_hat 0.0862)
        qp = qz.QuasiPolynomial(1, 1 + 0j)
        listed = bounds.window_zeros(qp, 2.0, 0.5, 2 * math.pi * 60, 0.5)
        assert any(abs(rec.value + 0.5671432904097838) < 1e-12 for rec in listed)
        assert cli.main(["bounds", "--k", "1", "--a", "1+0i", "--which", "cdelta",
                         "--R", "0.5", "--samples", "20000"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        argmin = complex(summary["argmin_re"], summary["argmin_im"])
        assert all(abs(rec.value - argmin) >= 0.5 for rec in listed)

    def test_list_without_a_zero_near_the_axis_refused(self):
        # k = 1, A = 1, R = 0.5: samples reach down to the real axis, so the
        # window is one box, and its count sees the zero -0.567 that the
        # half-boxes, clamped at |Im l| = 1, left between them.  A list
        # without it passed with 10,000 samples, drawing 0.10 from it (c_hat
        # 0.267, argmin -0.593 - 0.100i)
        qp = qz.QuasiPolynomial(1, 1 + 0j)
        im_cap = 2 * math.pi * 60
        assert len(bounds._window_boxes(qp, 2.0, 0.5, im_cap, 0.5)) == 1
        listed = bounds.window_zeros(qp, 2.0, 0.5, im_cap, 0.5)
        missing = [rec for rec in listed if abs(rec.value + 0.5671432904097838) > 1e-12]
        assert len(missing) == len(listed) - 1
        with pytest.raises(IncompleteZeroListError,
                           match=r"\(the whole window\) but the winding count is "):
            qz.estimate_C_delta(qp, 2.0, 0.5, 0.5, 10000, 1, missing, im_cap=im_cap)
        assert qz.estimate_C_delta(qp, 2.0, 0.5, 0.5, 10000, 1, listed, im_cap=im_cap).c_hat > 0

    @pytest.mark.parametrize("k, im_cap", [(1, 376.99), (3, 376.99), (25, 1.0), (25, 86.4)])
    def test_boxes_hold_the_strip(self, k, im_cap):
        # every strip point with |Im l| <= im_cap has Re l <= x, the largest
        # root of x = h + k ln|x + i im_cap|; the boxes reach delta + 1 past it
        h, delta = 2.0, 0.5
        qp = qz.QuasiPolynomial(k, 1 + 0j)
        lo, hi = float(k), 1e4
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid < h + k * math.log(abs(complex(mid, im_cap))) else (lo, mid)
        boxes = bounds._window_boxes(qp, h, 10.0, im_cap, delta)
        assert all(box.corner_max.real >= hi + delta + 1.0 for box in boxes)


class TestEmptyRegion:
    """An empty region stalls the first substream; _run_chunks raises there
    instead of spending a rejection budget on every chunk."""

    @pytest.mark.parametrize("sampler, run", [
        # offset(S=1) > 5000 is empty for |l| <= 1e3
        ("sample_exterior_margin",
         lambda qp: qz.verify_T2_bound(qp, 5000.0, 10.0, 1000, seed=1)),
        # |l| >= 1e6 is out of reach in the strip for |Im l| <= 20
        ("sample_strip_ratio",
         lambda qp: qz.estimate_C_delta(qp, 2.0, 1e6, 0.5, 1000, 1, _strip_zeros(qp, 8),
                                        im_cap=20.0, verify_completeness=False)),
    ])
    def test_raises_after_one_substream(self, qp11, monkeypatch, sampler, run):
        monkeypatch.setattr(sp, "REJECTION_BUDGET", 1000)
        calls = []
        original = getattr(sp, sampler)

        def counted(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(sp, sampler, counted)
        with pytest.raises(EmptyRegionSampleError):
            run(qp11)
        assert calls == [bounds.derive_substream(1, 0)]


class TestSubstreams:
    def test_derivation_is_stable(self):
        # frozen so that published results stay reproducible
        assert bounds.derive_substream(1, 0) == bounds.derive_substream(1, 0)
        assert bounds.derive_substream(1, 0) != bounds.derive_substream(1, 1)
        assert bounds.derive_substream(2, 0) != bounds.derive_substream(1, 0)

    def test_chunk_sizes_cover_exactly(self):
        for n in (1, 5, 16, 17, 100001):
            sizes = bounds._chunk_sizes(n)
            assert sum(sizes) == n
            assert all(s >= 1 for s in sizes)


PARITY_PINS = pathlib.Path(__file__).with_name("bounds_parity.json")

#: (k, A) pairs of the parity pins: real, complex and imaginary A, real A < 0,
#: small and large |A|, k up to 10
PARITY_EXTERIOR = [(1, 1 + 0j), (1, 2 + 1j), (1, -3 + 0j), (2, 0.5j), (2, -1.5 + 0j),
                   (3, 2 + 1j), (4, 0.01 + 0j), (7, 1 + 1j), (10, 1 + 0j)]
PARITY_STRIP = [(1, 1 + 0j), (1, 2 + 1j), (1, -3 + 0j), (2, 0.5j), (2, -1.5 + 0j),
                (3, 2 + 1j)]
PARITY_SECTOR = [(1, 1 + 0j), (2, 2 + 1j), (10, 1 + 0j)]
#: (samples, seed, r_max, h above the threshold)
PARITY_RUNS = [(1, 3, 1e3, 0.5), (7, 4, 1e3, 0.05), (500, 5, 60.0, 0.5),
               (3000, 6, 1e3, 1.5)]
#: runs at the edges of the samplers' angle brackets: shells from R = 0.01
#: to 1e5 and from R = 1e-300, k = 25, h within 1e-6 of its threshold and
#: T2 on the S=2 branch; (which, S, k, A, h above the threshold, R, r_max,
#: samples, seed)
PARITY_EDGE_EXTERIOR = [
    ("T1", 1, 1, 1 + 0j, 0.5, 0.01, 1e5, 3000, 21),
    ("T2", 1, 2, 0.5j, 0.5, 0.01, 1e5, 3000, 22),
    ("T2", 2, 3, 2 + 1j, 0.5, 0.01, 1e5, 3000, 23),
    ("T1", 1, 25, 2 + 1j, 0.5, 10.0, 1e3, 3000, 24),
    ("T2", 1, 25, 1 + 0j, 0.5, 10.0, 1e3, 3000, 25),
    ("T2", 2, 25, 0.5j, 0.5, 10.0, 1e3, 3000, 26),
    ("T1", 1, 3, 2 + 1j, 1e-6, 10.0, 1e3, 3000, 27),
    ("T2", 1, 1, 1 + 0j, 1e-6, 10.0, 1e3, 3000, 28),
    ("T2", 2, 1, -3 + 0j, 1e-6, 0.01, 1e5, 3000, 29),
    ("T1", 1, 2, -1.5 + 0j, 0.5, 1e-300, 1e3, 500, 30),
]
#: sector runs whose R lies near r_max, and one from R = 0.01 to 1e5;
#: (k, A, S, h, delta, R, r_max, samples, seed)
PARITY_EDGE_SECTOR = [
    (1, 1 + 0j, None, 2.0, 0.5, 999.0, 1e3, 300, 31),
    (10, 1 + 0j, 1, 5.0, 0.1, 990.0, 1e3, 200, 32),
    (2, 2 + 1j, 2, 0.5, 0.5, 0.01, 1e5, 500, 33),
]
#: C_delta runs at the edges of the strip sampler's (y, t) decision: R just
#: above delta, k = 25 with the decision height above im_cap (nothing
#: decided), |A| near 1e+-300 (ln|A| far outside [-h, h] unless h covers
#: it) and delta just below the separation radius of the windowed zeros;
#: (k, A, h, R, delta, im_cap, samples, seed)
PARITY_EDGE_CDELTA = [
    (1, 1 + 0j, 2.0, 0.5000001, 0.5, 50.0, 3000, 41),
    (25, 1 + 0j, 2.0, 10.0, 0.5, 50.0, 2000, 42),
    (1, 1e300 + 0j, 695.0, 10.0, 0.5, 50.0, 3000, 43),
    (2, 1e-300j, 695.0, 10.0, 0.5, 50.0, 3000, 44),
    (1, 1 + 0j, 2.0, 10.0, 3.14, 50.0, 3000, 45),
    (3, 2 + 1j, 2.0, 10.0, 3.18, 50.0, 3000, 46),
]


def _parity_cases():
    """(id, thunk) pairs: each thunk returns one seeded report, whose repr
    tests/bounds_parity.json pins."""
    cases = []
    for k, a in PARITY_EXTERIOR:
        qp = qz.QuasiPolynomial(k, a)
        for which, s_branch in (("T1", 1), ("T2", 1), ("T2", 2)):
            verify = qz.verify_T1_bound if which == "T1" else qz.verify_T2_bound
            extra = {} if which == "T1" else {"s_branch": s_branch}
            for n, seed, r_max, dh in PARITY_RUNS:
                h = qz.h_threshold(qp, which) + dh
                cases.append((f"{which}/S{s_branch} k={k} A={a} n={n} r_max={r_max:g}",
                              lambda v=verify, qp=qp, h=h, n=n, seed=seed, r_max=r_max,
                              extra=extra: v(qp, h, 10.0, n, seed, r_max=r_max, **extra)))
    for k, a in PARITY_STRIP:
        qp = qz.QuasiPolynomial(k, a)
        strip = []
        for delta in (0.5, 0.25):
            for n, seed, _r_max, dh in PARITY_RUNS:
                def run(qp=qp, strip=strip, delta=delta, n=n, seed=seed, h=1.5 + dh):
                    if not strip:
                        strip.extend(qz.zeros_in_index_range(qp, -12, 12))
                    return qz.estimate_C_delta(qp, h, 10.0, delta, n, seed, strip,
                                               im_cap=50.0, verify_completeness=False)
                cases.append((f"cdelta k={k} A={a} delta={delta} n={n}", run))
    for k, a in PARITY_SECTOR:
        qp = qz.QuasiPolynomial(k, a)
        for s_branch in (None, 1, 2):
            for n, seed, _r_max, dh in PARITY_RUNS:
                cases.append((f"sector S={s_branch} k={k} A={a} n={n}",
                              lambda qp=qp, n=n, seed=seed, h=1.5 + dh, s=s_branch:
                              qz.verify_sector_cover(qp, h, 0.5, 20.0, n, seed,
                                                     s_branch=s)))
    for which, s_branch, k, a, dh, r_cut, r_max, n, seed in PARITY_EDGE_EXTERIOR:
        qp = qz.QuasiPolynomial(k, a)
        verify = qz.verify_T1_bound if which == "T1" else qz.verify_T2_bound
        extra = {} if which == "T1" else {"s_branch": s_branch}
        h = qz.h_threshold(qp, which) + dh
        cases.append((f"edge {which}/S{s_branch} k={k} A={a} h=+{dh:g} R={r_cut:g} "
                      f"r_max={r_max:g} n={n}",
                      lambda v=verify, qp=qp, h=h, r_cut=r_cut, n=n, seed=seed, r_max=r_max,
                      extra=extra: v(qp, h, r_cut, n, seed, r_max=r_max, **extra)))
    for k, a, s_branch, h, delta, r_cut, r_max, n, seed in PARITY_EDGE_SECTOR:
        qp = qz.QuasiPolynomial(k, a)
        cases.append((f"edge sector S={s_branch} k={k} A={a} h={h:g} R={r_cut:g} "
                      f"r_max={r_max:g} n={n}",
                      lambda qp=qp, h=h, delta=delta, r_cut=r_cut, r_max=r_max, n=n,
                      seed=seed, s=s_branch:
                      qz.verify_sector_cover(qp, h, delta, r_cut, n, seed, r_max=r_max,
                                             s_branch=s)))
    for k, a, h, r_cut, delta, im_cap, n, seed in PARITY_EDGE_CDELTA:
        qp = qz.QuasiPolynomial(k, a)
        strip = []

        def run(qp=qp, strip=strip, h=h, r_cut=r_cut, delta=delta, im_cap=im_cap, n=n,
                seed=seed):
            if not strip:
                strip.extend(qz.zeros_in_index_range(qp, -12, 12))
            return qz.estimate_C_delta(qp, h, r_cut, delta, n, seed, strip, im_cap=im_cap,
                                       verify_completeness=False)
        cases.append((f"edge cdelta k={k} A={a} h={h:g} R={r_cut:.9g} delta={delta:g} "
                      f"im_cap={im_cap:g} n={n}", run))
    return cases


class TestParity:
    """Seeded reports pinned by their repr, as computed when every accepted
    point's margin was evaluated and the strip's Newton solve always took
    its six steps (the edge runs: when every draw took the exact region
    test, or for C_delta the solve): the samplers may skip work but never
    change a report."""

    def test_every_pin_reproduced(self):
        pins = json.loads(PARITY_PINS.read_text())
        cases = _parity_cases()
        assert sorted(pins) == sorted(name for name, _run in cases)
        wrong = [name for name, run in cases if repr(run()) != pins[name]]
        assert not wrong, wrong


class TestSamplerWork:
    """A sampler evaluates the margin only of points that could lower its
    running minimum (_sampling._skip_cut); the skipped points change nothing."""

    @staticmethod
    def _count(monkeypatch, name):
        inner = getattr(sp, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(sp, name, counted)
        return calls

    def test_few_margins_evaluated(self, qp11, monkeypatch):
        calls = self._count(monkeypatch, "_log_abs_1p")
        h = qz.h_threshold(qp11, "T1") + 0.5
        rep = qz.verify_T1_bound(qp11, h, 10.0, 10000, seed=1)
        assert rep.samples == 10000
        assert 0 < len(calls) < 1000

    @pytest.mark.parametrize("run", [
        lambda qp: qz.verify_T1_bound(qp, qz.h_threshold(qp, "T1") + 0.5, 10.0, 5000, 11),
        lambda qp: qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.05, 10.0, 5000, 12),
        lambda qp: qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.5, 10.0, 5000, 13,
                                      r_max=60.0, s_branch=2),
        lambda qp: qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 5000, 14,
                                       qz.zeros_in_index_range(qp, -12, 12), im_cap=50.0,
                                       verify_completeness=False),
    ])
    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (3, 2 + 1j), (2, -1.5 + 0j)])
    def test_skipping_changes_no_report(self, monkeypatch, run, k, a):
        qp = qz.QuasiPolynomial(k, a)
        skipped = run(qp)
        monkeypatch.setattr(sp, "_skip_cut", lambda minlog, base: math.inf)
        assert repr(run(qp)) == repr(skipped)

    @pytest.mark.parametrize("base", [LN2, 0.0, -5.0, 709.8, -744.4])
    def test_skip_bound(self, base):
        """Beyond the cut, base + ln|1 + t| clears the minimum at every
        phase, cos = -1 included, and the cut is tight there to the slack."""
        phases = [math.pi * j / 64 for j in range(-64, 65)]
        assert math.cos(phases[0]) == math.cos(phases[-1]) == -1.0
        for gap in (0.0, 1e-12, 1e-9, 2e-9, 1e-6, 1e-3, 0.1, LN2, 0.7, 3.0, 50.0, 1e3,
                    math.inf):
            minlog = base - gap
            cut = sp._skip_cut(minlog, base)
            assert cut >= LN2
            if cut == math.inf:
                assert minlog - base + sp.SKIP_SLACK >= 0.0
                continue
            if cut > LN2:
                edge = base + sp._log_abs_1p(cut, math.pi) - minlog
                assert 0.0 < edge < 2.0 * sp.SKIP_SLACK
            for stretch in (1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1.01, 1.5, 4.0, 100.0):
                wr = math.nextafter(cut, math.inf) * stretch
                for sign in (1.0, -1.0):
                    for wi in phases:
                        assert base + sp._log_abs_1p(sign * wr, wi) >= minlog, (gap, wr, wi)


class TestSamplerStream:
    """Every accepted point, skipped or not, as the samplers drew and placed
    it before the skip rule and the early stop of the strip's Newton solve:
    the pairs drawn from the stream, and a digest of (Re w, Im w) over the
    accepted points, with the skip rule switched off to see them all."""

    QP11 = (1, 1 + 0j)
    QP2 = (2, 2 + 1j)
    RUNS = [
        ("T1", QP11, 3775, "73ab184810b5d366",
         lambda qp: qz.verify_T1_bound(qp, qz.h_threshold(qp, "T1") + 0.5, 10.0, 2000, 1)),
        ("T2", QP2, 4405, "cfea714dbf08e2d2",
         lambda qp: qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.5, 10.0, 2000, 2)),
        ("T2/S2", QP11, 3933, "cd278590cbf69fda",
         lambda qp: qz.verify_T2_bound(qp, qz.h_threshold(qp, "T2") + 0.5, 10.0, 2000, 3,
                                       s_branch=2)),
        ("cdelta k=1", QP11, 2563, "63c1b43f7b868416",
         lambda qp: qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 2000, 4,
                                        qz.zeros_in_index_range(qp, -12, 12), im_cap=50.0,
                                        verify_completeness=False)),
        ("cdelta k=2", QP2, 2515, "f73bfc4bed2b2690",
         lambda qp: qz.estimate_C_delta(qp, 2.0, 10.0, 0.5, 2000, 5,
                                        qz.zeros_in_index_range(qp, -12, 12), im_cap=50.0,
                                        verify_completeness=False)),
        ("sector", QP11, 126324, None,
         lambda qp: qz.verify_sector_cover(qp, 2.0, 0.5, 20.0, 2000, 6)),
    ]

    @pytest.mark.parametrize("name, kq, draws, digest, run", RUNS, ids=[r[0] for r in RUNS])
    def test_stream(self, monkeypatch, name, kq, draws, digest, run):
        qp = qz.QuasiPolynomial(*kq)
        points = TestSamplerWork._count(monkeypatch, "_log_abs_1p")
        monkeypatch.setattr(sp, "_skip_cut", lambda minlog, base: math.inf)
        pairs = [0]
        stream = sp.uniform_pairs

        def counted(seed):
            for pair in stream(seed):
                pairs[0] += 1
                yield pair

        monkeypatch.setattr(sp, "uniform_pairs", counted)
        run(qp)
        assert pairs[0] == draws
        if digest is None:
            assert not points
        else:
            assert len(points) == 2000
            assert hashlib.sha256(repr(points).encode()).hexdigest()[:16] == digest


def _float_region(k, sgn, lna, lr0, lspan, u1, u2):
    """The samplers' exact float steps for one draw: (offset, Re w)."""
    lr = lr0 + u1 * lspan
    r = math.exp(lr)
    th = -sp.PI + sp.TWO_PI * u2
    xre = r * math.cos(th)
    klr = k * lr
    return xre + sgn * klr, lna + klr - xre


def _near(cut, unit):
    """Draws v just past an angle cut, on the side where its fast path
    fires (unit = +1: above, -1: below), down to one ulp."""
    out = [math.nextafter(cut, unit * math.inf)]
    out += [cut + unit * d for d in (1e-15, 1e-13, 1e-12, 1e-10, 1e-6, 1e-3)]
    return [v for v in out if 0.0 <= v <= 0.5]


def _lattice(u):
    """The nearest value random() can return (a multiple of 2^-53 below 1)."""
    return min(round(u * 2.0 ** 53), 2 ** 53 - 1) / 2.0 ** 53


class TestAngleBracket:
    """Every decision an angle cut makes agrees with the exact float test:
    a rejected draw is outside, an accepted one inside, a skipped one has
    |Re w| beyond the cut, whatever its radius.  Draws sit just past each
    cut, at the radii where the bracket is tight (the shell's ends and the
    stationary point) and at seeded random radii."""

    @staticmethod
    def _grid():
        rng = random.Random(1907)
        for _ in range(240):
            k = rng.randint(1, 25)
            lna = rng.uniform(math.log(1e-3), math.log(1e3))
            r_in = 10.0 ** rng.uniform(-3.0, 3.0)
            r_max = min(r_in * 10.0 ** rng.uniform(0.01, 6.0), 1e6)
            yield (k, lna, rng.choice((1, 2)), rng.choice((-1, 0, 1)),
                   10.0 ** rng.uniform(-3.0, math.log10(50.0)), r_in, r_max, rng)

    @staticmethod
    def _radii(lr0, lspan, edges, rng):
        """u1 at both ends, at the stationary point s = 1 - a/b of each
        boundary (a + b s) e^-s, and three at random."""
        us = [0.0, math.nextafter(1.0, 0.0)]
        us += [(1.0 - a / b - lr0) / lspan for a, b in edges]
        us += [rng.random() for _ in range(3)]
        return [_lattice(u) for u in us if 0.0 <= u < 1.0]

    def test_decisions_match_the_float_test(self):
        checked = {"reject": 0, "accept": 0, "skip": 0}
        for k, lna, s_branch, side, h, r_in, r_max, rng in self._grid():
            sgn = -1.0 if s_branch == 1 else 1.0
            lr0 = math.log(r_in)
            lspan = math.log(r_max) - lr0
            lr1 = lr0 + lspan
            rej_below, rej_above, acc_below, acc_above = sp._region_cuts(
                k, sgn, side, h, lr0, lr1)
            wcuts = [sp.LN2, 1.0, 5.0, 30.0, rng.uniform(sp.LN2, 50.0)]
            skips = [(wcut, *sp._skip_angles(lna, k, wcut, lr0, lr1)) for wcut in wcuts]
            vs = (_near(rej_below, -1) + _near(rej_above, 1) + _near(acc_below, 1)
                  + _near(acc_above, -1))
            for _wcut, below, above in skips:
                vs += _near(below, -1) + _near(above, 1)
            u2s = {_lattice(0.5 + sign * v) for v in vs for sign in (1.0, -1.0)}
            u2s |= {rng.random() for _ in range(20)}
            edges = [(h, -sgn * k), (-h, -sgn * k)]
            edges += [(lna + sign * wcut, k) for wcut in wcuts for sign in (1.0, -1.0)]
            for u1 in self._radii(lr0, lspan, edges, rng):
                for u2 in u2s:
                    off, wr = _float_region(k, sgn, lna, lr0, lspan, u1, u2)
                    inside = off < -h if side < 0 else off > h if side > 0 else -h <= off <= h
                    v = abs(u2 - 0.5)
                    case = (k, lna, s_branch, side, h, r_in, r_max, u1, u2)
                    if v < rej_below or v > rej_above:
                        assert not inside, case
                        checked["reject"] += 1
                    if acc_below < v < acc_above:
                        assert inside, case
                        checked["accept"] += 1
                    for wcut, below, above in skips:
                        if v < below:
                            assert wr < -wcut, (case, wcut)
                            checked["skip"] += 1
                        if v > above:
                            assert wr > wcut, (case, wcut)
                            checked["skip"] += 1
        assert min(checked.values()) > 10000, checked

    @pytest.mark.parametrize("r_in", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_degenerate_shell_decides_nothing(self, r_in, side):
        """Where e^-ln r reaches the hundreds of orders, the slack swamps the
        bracket: no cut may fire, and every draw takes the exact path."""
        lr0 = math.log(r_in)
        lr1 = math.log(1e3)
        for k, sgn, h in ((1, -1.0, 0.5), (25, 1.0, 50.0), (3, -1.0, 1e-3)):
            rej_below, rej_above, acc_below, acc_above = sp._region_cuts(
                k, sgn, side, h, lr0, lr1)
            assert rej_below <= 0.0 and rej_above >= 0.5
            assert acc_below >= min(acc_above, 0.5) or acc_above <= 0.0
            for wcut in (sp.LN2, 5.0, 700.0):
                below, above = sp._skip_angles(0.0, k, wcut, lr0, lr1)
                assert below <= 0.0 and above >= 0.5


class TestAngleWork:
    """Most draws are decided by their angle alone: a draw reaches the exact
    path (exp, cos and the region test) only inside the thin band of angles
    the bracket leaves open.  The exact draws are the cos calls less the
    margins evaluated, which call cos once each."""

    @staticmethod
    def _counters(monkeypatch):
        calls = {"cos": 0, "pairs": 0}
        proxy = types.SimpleNamespace(**vars(math))

        def cos(x):
            calls["cos"] += 1
            return math.cos(x)

        proxy.cos = cos
        monkeypatch.setattr(sp, "math", proxy)
        margins = TestSamplerWork._count(monkeypatch, "_log_abs_1p")
        stream = sp.uniform_pairs

        def counted(seed):
            for pair in stream(seed):
                calls["pairs"] += 1
                yield pair

        monkeypatch.setattr(sp, "uniform_pairs", counted)
        return lambda: (calls["cos"] - len(margins), calls["pairs"])

    def test_T1_exact_draws(self, qp11, monkeypatch):
        counts = self._counters(monkeypatch)
        h = qz.h_threshold(qp11, "T1") + 0.5
        qz.verify_T1_bound(qp11, h, 10.0, 10000, seed=1)
        exact, pairs = counts()
        assert pairs > 19000
        assert exact < 1500, (exact, pairs)

    def test_sector_exact_draws(self, qp11, monkeypatch):
        counts = self._counters(monkeypatch)
        qz.verify_sector_cover(qp11, 2.0, 0.5, 20.0, 2000, 6)
        exact, pairs = counts()
        assert pairs == TestSamplerStream.RUNS[-1][2]
        assert exact < 12000, (exact, pairs)

    def test_degenerate_shell_takes_the_exact_path(self, qp11, monkeypatch):
        counts = self._counters(monkeypatch)
        h = qz.h_threshold(qp11, "T1") + 0.5
        qz.verify_T1_bound(qp11, h, 1e-300, 200, seed=1)
        exact, pairs = counts()
        assert exact == pairs


def _strip_exact(k, lna, r_in, delta, zre, zim, y, t):
    """The strip sampler's exact float steps for one draw, as they ran
    before any draw was decided from (y, t): Re w of the solved point, or
    None where the draw is rejected."""
    hk = 0.5 * k
    x = t + k * math.log(max(abs(y), 1e-300))
    for _ in range(3):
        r2 = x * x + y * y
        if r2 == 0.0:
            return None
        x = t + hk * math.log(r2)
    for _ in range(6):
        r2 = x * x + y * y
        if r2 == 0.0:
            return None
        kln = hk * math.log(r2)
        gp = 1.0 - k * x / r2
        x = t + kln if -0.5 < gp < 0.5 else x - (x - t - kln) / gp
    r2 = x * x + y * y
    if math.sqrt(r2) < r_in:
        return None
    klr = k * (0.5 * math.log(r2))
    resid = x - t - klr
    if resid > 1e-9 or resid < -1e-9:
        return None
    for zr, zi in zip(zre, zim):
        dx, dy = x - zr, y - zi
        if y - delta <= zi <= y + delta and dx * dx + dy * dy < delta * delta:
            return None
    return lna + klr - x


def _strip_points(k, lna, im_cap, spacing, rng):
    """Listed points for the strip sampler, sorted by Im: about `spacing`
    apart in Im over the window and a little beyond it, most on the curve
    Re l - k ln|l| = ln|A| where the zeros lie, some off it."""
    points = []
    y = -im_cap - 3.0 + rng.uniform(0.0, spacing)
    while y < im_cap + 3.0:
        tz = lna + (rng.choice((-1.5, 1.5, 0.3)) if rng.random() < 0.2 else 0.0)
        x = tz + k * math.log(max(abs(y), 1.0))
        for _ in range(60):
            x = tz + 0.5 * k * math.log(x * x + y * y)
        points.append(complex(x, y))
        y += spacing * rng.uniform(0.9, 1.1)
    return [p.real for p in points], [p.imag for p in points]


def _steepest(k, zre, zim, delta):
    """Draws (y, t) of the points a shade inside delta of each listed point
    along +-grad t, where t = Re l - k ln|l| moves fastest, by up to
    delta (1 + k/|l|): the zone must keep every one of them."""
    out = []
    for zr, zi in zip(zre, zim):
        r2 = zr * zr + zi * zi
        gx, gy = 1.0 - k * zr / r2, -k * zi / r2
        g = math.hypot(gx, gy)
        for s in (1.0, -1.0):
            px = zr + s * (1.0 - 1e-9) * delta * gx / g
            py = zi + s * (1.0 - 1e-9) * delta * gy / g
            out.append((py, px - 0.5 * k * math.log(px * px + py * py)))
    return out


def _past(edge, unit):
    """Values just past a band edge, on the side where the draw is decided
    (unit = -1: below, +1: above), from one ulp to 1e-3."""
    out = [math.nextafter(edge, unit * math.inf)]
    return out + [edge + unit * d * max(1.0, abs(edge)) for d in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)]


class TestStripDecision:
    """Every draw the strip sampler decides from (y, t) before its solve is
    one its exact float steps accept, with |Re w| beyond the skip cut: draws
    at |y| = y_dec, at each end of the zone around the listed points and of
    the skip band, one ulp past each and at random, at the listed points'
    heights, and just inside delta of each listed point where t moves
    fastest, over seeded parameter sets and the decision's edges; and the
    sampler's reports are the same with the decision switched off."""

    #: (k, ln|A|, h, R, delta, im_cap, spacing): R just above delta, k = 25
    #: with y_dec = 4k above im_cap, |A| near 1e+-300, delta just below half
    #: the spacing of the listed points
    EDGES = [
        (1, 0.0, 2.0, 0.5000001, 0.5, 50.0, 2 * math.pi),
        (3, 0.8, 1.0, 1.5 * (1 + 1e-12), 1.5, 80.0, 2 * math.pi),
        (25, 0.0, 2.0, 10.0, 0.5, 50.0, 2 * math.pi),
        (1, math.log(1e300), 2.0, 10.0, 0.5, 100.0, 2 * math.pi),
        (2, math.log(1e-300), 3.0, 10.0, 0.5, 100.0, 2 * math.pi),
        (1, math.log(1e300), 695.0, 10.0, 0.5, 100.0, 2 * math.pi),
        (1, 0.0, 2.0, 10.0, 0.999 * 0.45 * math.pi, 60.0, math.pi),
        (5, -1.0, 0.5, 20.0, 0.999 * 0.9 * math.pi, 200.0, 2 * math.pi),
        (1, -6.0, 8.0, 4.0, 0.5, 60.0, 2 * math.pi),
        (2, -9.0, 9.0, 8.0, 0.5, 60.0, 2 * math.pi),
    ]

    @classmethod
    def _grid(cls):
        rng = random.Random(2003)
        for edge in cls.EDGES:
            yield edge + (rng,)
        for _ in range(150):
            k = rng.choice((1, 2, 3, 5, 10, 25))
            lna = math.log(rng.uniform(1e-3, 1e3)) if rng.random() < 0.8 \
                else rng.choice((-1.0, 1.0)) * rng.uniform(600.0, 709.0)
            spacing = 2 * math.pi * rng.uniform(0.5, 1.0)
            delta = rng.uniform(0.05, 0.5) if rng.random() < 0.8 else 0.9 * 0.45 * spacing
            r_in = rng.uniform(0.5, 30.0) if rng.random() < 0.8 else delta * 1.0000001
            yield (k, lna, rng.uniform(0.1, 5.0), r_in, delta, rng.uniform(20.0, 400.0),
                   spacing, rng)

    def test_decided_draws_pass_the_exact_steps(self):
        checked = {"y_dec": 0, "zone": 0, "skip": 0, "random": 0}
        undecided = 0
        steep = 0
        for k, lna, h, r_in, delta, im_cap, spacing, rng in self._grid():
            zre, zim = _strip_points(k, lna, im_cap, spacing, rng)
            y_dec, zone_lo, zone_hi = sp._strip_decision(k, h, r_in, im_cap, delta, zre, zim)
            if y_dec == math.inf:
                undecided += 1
                continue
            ys = [y_dec, math.nextafter(y_dec, math.inf), im_cap]
            ys += [rng.uniform(y_dec, im_cap) for _ in range(4)]
            ys += [abs(zi) + rng.uniform(-delta, delta) for zi in rng.sample(zim, 6)]
            ys = [s * y for y in ys if y_dec <= y <= im_cap for s in (1.0, -1.0)]
            ts = {"zone": _past(zone_lo, -1) + _past(zone_hi, 1),
                  "random": [rng.uniform(-h, h) for _ in range(6)]}
            wcuts = (sp.LN2, 1.0, 5.0, rng.uniform(sp.LN2, 30.0))
            for wcut in wcuts:
                t_lo, t_hi = sp._strip_band(zone_lo, zone_hi, lna, wcut)
                assert t_lo <= zone_lo and t_hi >= zone_hi
                ts["skip"] = _past(lna - wcut - sp.STRIP_SLACK, -1) \
                    + _past(lna + wcut + sp.STRIP_SLACK, 1)
                ts["y_dec"] = _past(t_lo, -1) + _past(t_hi, 1)
                draws = [(case, y, t) for case, values in ts.items() for t in values
                         for y in ys]
                for y, t in _steepest(k, zre, zim, delta):
                    # only the zone keeps a draw past the skip band and y_dec
                    if abs(y) >= y_dec and abs(t - lna) > wcut + sp.STRIP_SLACK:
                        steep += 1
                        draws.append(("zone", y, t))
                for case, y, t in draws:
                    if -h <= t <= h and (t < t_lo or t > t_hi) and abs(y) >= y_dec:
                        wr = _strip_exact(k, lna, r_in, delta, zre, zim, y, t)
                        assert wr is not None and abs(wr) > wcut, \
                            (k, lna, h, r_in, delta, im_cap, wcut, y, t)
                        checked[case] += 1
        assert undecided >= 1 and steep > 100, (undecided, steep)
        assert min(checked.values()) > 2000, checked

    @pytest.mark.parametrize("r_in", [10.0, 1e-300])
    def test_large_k_decides_nothing(self, r_in):
        # y_dec = 4k = 100 lies above im_cap
        zre, zim = _strip_points(25, 0.0, 50.0, 2 * math.pi, random.Random(1))
        assert sp._strip_decision(25, 2.0, r_in, 50.0, 0.5, zre, zim)[0] == math.inf

    def test_reports_match_without_the_decision(self, monkeypatch):
        runs = []
        for k, lna, h, r_in, delta, im_cap, spacing, rng in self._grid():
            zre, zim = _strip_points(k, lna, im_cap, spacing, rng)
            log_a = complex(lna, rng.uniform(-math.pi, math.pi))
            args = (k, log_a, h, r_in, im_cap, delta, zre, zim, 300, rng.getrandbits(32))
            runs.append((args, sp.sample_strip_ratio(*args)))
        monkeypatch.setattr(sp, "_strip_decision",
                            lambda *args: (math.inf, -math.inf, math.inf))
        for args, decided in runs:
            assert repr(sp.sample_strip_ratio(*args)) == repr(decided), args[:6]

    def test_fixed_point_log_is_the_residual_checks(self):
        """At an exact repeat the solve's (k/2) ln r2 stands in for the
        residual check's k (ln r2 / 2): both are one rounding of k ln(r2)/2,
        halving being exact."""
        rng = random.Random(20)
        r2s = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 2.0, 5e-324, 1e308]
        r2s += [10.0 ** rng.uniform(-300, 300) for _ in range(2000)]
        r2s += [1.0 + rng.uniform(-1e-6, 1e-6) for _ in range(500)]
        for k in list(range(1, 30)) + [rng.randint(30, 500) for _ in range(20)]:
            for r2 in r2s:
                a = (0.5 * k) * math.log(r2)
                b = k * (0.5 * math.log(r2))
                assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b), (k, r2)


class TestStripWork:
    """The C_delta sampler solves for Re l only on draws it cannot decide
    from (y, t): at the benchmark's setting (k=1, A=1, h=2, R=10,
    delta=0.5, im_cap=2 pi 60) most draws take no log at all.  A solve takes
    at least five logs (the start, three fixed-point steps, one Newton step),
    so solving every draw takes over 5 a draw (7.5 when every draw was
    solved); about 2.9 a draw are taken here."""

    def test_few_draws_reach_the_solve(self, qp11, monkeypatch):
        strip = qz.zeros_in_index_range(qp11, -63, 63)
        calls = {"log": 0, "pairs": 0}
        proxy = types.SimpleNamespace(**vars(math))

        def log(x):
            calls["log"] += 1
            return math.log(x)

        proxy.log = log
        monkeypatch.setattr(sp, "math", proxy)
        stream = sp.uniform_pairs

        def counted(seed):
            for pair in stream(seed):
                calls["pairs"] += 1
                yield pair

        monkeypatch.setattr(sp, "uniform_pairs", counted)
        qz.estimate_C_delta(qp11, 2.0, 10.0, 0.5, 10000, 1, strip, im_cap=2 * math.pi * 60.0,
                            verify_completeness=False)
        assert calls["pairs"] > 10000
        assert calls["log"] < 4 * calls["pairs"], calls
