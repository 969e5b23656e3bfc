import math
import random
import time

import pytest
from scipy.special import lambertw

import quasizeros as qz
from quasizeros.errors import (
    DerivativeVanishesError,
    DomainError,
    DuplicateZeroError,
    EscapedBasinError,
    InvalidIndexError,
    NotConvergedError,
    TooFewRecordsError,
)
from quasizeros.zeros import isolation_radii

from conftest import direct_f

TWO_PI = 2 * math.pi


def lambert_zero(nu):
    """Oracle: zeros of e^z + z are -W_j(1); branch j = -(nu+1) maps to the
    library's index nu for the upper half, j = -nu for the lower."""
    j = -(nu + 1) if nu >= 0 else -nu
    return complex(-lambertw(1.0, j))


class TestAsymptoticZero:
    def test_example_positive(self, qp11):
        z = qz.asymptotic_zero(qp11, 1)
        assert z.real == pytest.approx(math.log(TWO_PI), abs=1e-12)
        assert z.imag == pytest.approx(TWO_PI + 1.5 * math.pi, abs=1e-12)
        # the seed lands well inside its own branch basin (ladder spacing 2*pi)
        assert abs(lambert_zero(1) - z) < 0.7

    def test_example_negative(self, qp11):
        z = qz.asymptotic_zero(qp11, -1)
        assert z.real == pytest.approx(1.8379, abs=2e-4)
        assert z.imag == pytest.approx(-TWO_PI + 0.5 * math.pi, abs=1e-12)
        oracle = lambert_zero(-1)
        assert oracle == pytest.approx(1.5339133 - 4.3751852j, abs=1e-6)
        assert abs(oracle - z) < 0.5

    def test_example_k2(self):
        qp = qz.QuasiPolynomial(2, 1 + 0j)
        z = qz.asymptotic_zero(qp, 1)
        assert z.real == pytest.approx(2 * math.log(TWO_PI), abs=1e-12)
        assert z.imag == pytest.approx(4 * math.pi, abs=1e-12)

    def test_invalid_index(self, qp11):
        with pytest.raises(InvalidIndexError):
            qz.asymptotic_zero(qp11, 0)

    def test_branch_index_roundtrip(self):
        for k in (1, 2, 3):
            for a in (1 + 0j, 2 + 1j, 0.5j):
                qp = qz.QuasiPolynomial(k, a)
                for nu in (-40, -3, -1, 1, 2, 25):
                    assert qz.branch_index(qp, qz.asymptotic_zero(qp, nu)) == nu


class TestFixedPointRefine:
    def test_converges_small_index(self, qp11):
        rec, trace = qz.fixed_point_refine(qp11, 5, 1e-13)
        assert trace.converged
        assert rec.residual < 1e-12
        assert abs(rec.value - lambert_zero(5)) < 1e-10

    def test_contraction_large_index(self, qp11):
        _rec, trace = qz.fixed_point_refine(qp11, 10 ** 6, 1e-13)
        xi = trace.xi_sequence
        assert abs(xi[2] - xi[1]) < 1e-5

    def test_invalid_indices(self, qp11):
        with pytest.raises(InvalidIndexError):
            qz.fixed_point_refine(qp11, 0)
        qp3 = qz.QuasiPolynomial(3, 1 + 0j)
        # 2*pi*|nu| must exceed 2k; k=3 keeps nu=+-1 admissible but a large
        # k pushes the first admissible index out
        with pytest.raises(InvalidIndexError):
            qz.fixed_point_refine(qz.QuasiPolynomial(7, 1 + 0j), 1)
        rec, _ = qz.fixed_point_refine(qp3, 1, 1e-13)
        assert rec.residual < 1e-13


    @pytest.mark.parametrize("a, steps", [(-2.73, 259), (-2.72, 614)])
    def test_slow_contraction_converges(self, a, steps):
        # k=1, real A just below -e: the nu=-1 zero is the larger real root of
        # e^l = |A| l, where the map contracts only by 1/l ~ 0.91 (A=-2.73)
        # or ~0.97 (A=-2.72) per step, so the tolerance takes more than the
        # 200-step budget
        qp = qz.QuasiPolynomial(1, complex(a, 0))
        rec, trace = qz.fixed_point_refine(qp, -1, 1e-12)
        assert trace.converged
        assert rec.iterations == steps
        assert rec.residual < 1e-12
        oracle = -lambertw(1.0 / a, -1).real
        assert abs(rec.value - oracle) < 1e-9

    def test_double_zero_gives_up_quickly(self):
        # A=-e: the nu=-1 iteration creeps sublinearly towards the double
        # zero at l=1 and its step ratio tends to 1
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        start = time.perf_counter()
        with pytest.raises(NotConvergedError):
            qz.fixed_point_refine(qp, -1, 1e-12)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("k, a, nu, steps", [
        (1, 1 + 0j, 5, 9), (1, 1 + 0j, -1, 20), (2, 2 + 1j, 3, 13),
        (3, 0.5j, -2, 22), (1, -3 + 0j, -1, 71),
    ])
    def test_iteration_count_within_budget(self, k, a, nu, steps):
        # counts of inputs that converge inside the 200-step budget, pinned
        rec, _ = qz.fixed_point_refine(qz.QuasiPolynomial(k, a), nu, 1e-13)
        assert rec.iterations == steps


class TestNewtonRefine:
    def test_real_root_oracle(self, qp11, omega_root):
        rec = qz.newton_refine(qp11, -0.5, 1e-13)
        assert abs(rec.value - omega_root) < 1e-12
        assert rec.value.real == pytest.approx(-0.5671432904, abs=1e-9)
        assert rec.nu is None  # origin zero, outside the indexed family

    def test_critical_seed_fails(self, qp11):
        with pytest.raises(DerivativeVanishesError):
            qz.newton_refine(qp11, 1j * math.pi, 1e-13)

    def test_double_zero_multiplicity_flag(self):
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        rec = qz.newton_refine(qp, 1.1, 1e-11)
        assert abs(rec.value - 1.0) < 1e-4
        checked = qz.certify_record(qp, rec, 0.2)
        assert checked.certified
        assert checked.multiplicity == 2

    def test_escape_guard(self, qp11):
        # a far-field seed heads for a distant zero and trips the guard
        with pytest.raises(EscapedBasinError):
            qz.newton_refine(qp11, 30 + 150j, 1e-13)

    def test_residual_meets_tolerance(self, qp11):
        rec = qz.newton_refine(qp11, qz.asymptotic_zero(qp11, 3), 1e-13)
        assert rec.residual < 1e-13
        assert qz.relative_residual(qp11, rec.value) == rec.residual


class TestZerosInIndexRange:
    def test_batch_residuals_and_certificates(self, qp11):
        records = qz.zeros_in_index_range(qp11, 1, 10, 1e-12)
        assert len(records) == 10
        assert [r.nu for r in records] == list(range(1, 11))
        for rec in records:
            assert rec.residual < 1e-12
            assert rec.certified
            assert abs(rec.value - lambert_zero(rec.nu)) < 1e-9

    def test_conjugation_pairing(self, qp11):
        plus = qz.zeros_in_index_range(qp11, 1, 10, 1e-12, certify=False)
        minus = qz.zeros_in_index_range(qp11, -11, -2, 1e-12, certify=False)
        by_nu = {r.nu: r.value for r in minus}
        for rec in plus:
            partner = by_nu[-rec.nu - 1]
            assert abs(partner - rec.value.conjugate()) < 1e-9

    def test_zero_skipped(self, qp11):
        records = qz.zeros_in_index_range(qp11, -2, 2, 1e-12, certify=False)
        assert [r.nu for r in records] == [-2, -1, 1, 2]

    def test_empty_range_rejected(self, qp11):
        with pytest.raises(InvalidIndexError):
            qz.zeros_in_index_range(qp11, 3, 1)

    def test_all_zeros_satisfy_f(self, qp11):
        for rec in qz.zeros_in_index_range(qp11, -4, 4, 1e-12, certify=False):
            assert abs(direct_f(qp11, rec.value)) < 1e-9 * abs(
                qp11.a * rec.value ** qp11.k)

    def test_index_self_consistency_k3(self):
        qp = qz.QuasiPolynomial(3, 0.5j)
        for rec in qz.zeros_in_index_range(qp, -6, 6, 1e-12, certify=False):
            assert qz.branch_index(qp, rec.value) == rec.nu


class TestDuplicateDetection:
    def test_duplicates_raise(self, qp11):
        rec = qz.newton_refine(qp11, qz.asymptotic_zero(qp11, 2), 1e-13)
        with pytest.raises(DuplicateZeroError):
            qz.separation_radius([rec, rec])


class TestGapStatistics:
    def test_refined_gaps(self, qp11):
        records = qz.zeros_in_index_range(qp11, 20, 30, 1e-12, certify=False)
        stats = qz.gap_statistics(records)
        assert len(stats.gaps) == 10
        assert stats.max_deviation < 0.1

    def test_asymptotic_seed_gap_formula(self, qp11):
        # gaps of the bare asymptotic ladder: Im spacing exactly 2*pi and Re
        # spacing k*ln(1 + 1/nu)
        recs = []
        for nu in (30, 31, 32):
            z = qz.asymptotic_zero(qp11, nu)
            recs.append(qz.ZeroRecord(nu=nu, value=z, residual=0.0, seed=z,
                                      iterations=0))
        stats = qz.gap_statistics(recs)
        for nu, gap in zip((30, 31), stats.gaps):
            expected = math.sqrt(TWO_PI ** 2 + math.log(1 + 1 / nu) ** 2)
            assert gap == pytest.approx(expected, rel=1e-12)

    def test_too_few(self, qp11):
        rec = qz.newton_refine(qp11, qz.asymptotic_zero(qp11, 1), 1e-12)
        with pytest.raises(TooFewRecordsError):
            qz.gap_statistics([rec])

    def test_mixed_half_planes_rejected(self, qp11):
        recs = qz.zeros_in_index_range(qp11, -1, 1, 1e-12, certify=False)
        with pytest.raises(DomainError):
            qz.gap_statistics(recs)


class TestSeparationRadius:
    def test_exact_pair(self, qp11):
        a = qz.ZeroRecord(nu=1, value=1 + 2j, residual=0.0, seed=0j, iterations=0)
        b = qz.ZeroRecord(nu=2, value=1 + 2j + TWO_PI * 1j, residual=0.0,
                          seed=0j, iterations=0)
        assert qz.separation_radius([a, b]) == pytest.approx(math.pi)

    def test_refined_family(self, qp11):
        records = qz.zeros_in_index_range(qp11, 5, 15, 1e-12, certify=False)
        delta = qz.separation_radius(records)
        assert abs(delta - math.pi) / math.pi < 0.15

    def test_too_few(self):
        with pytest.raises(TooFewRecordsError):
            qz.separation_radius([])


class TestIsolationRadii:
    def test_matches_brute_force(self):
        # heavy-tailed cloud: the Im order says little about who is nearest
        rng = random.Random(11)
        values = [complex(math.tan(rng.uniform(-1.5, 1.5)),
                          math.tan(rng.uniform(-1.5, 1.5))) for _ in range(300)]
        values += [complex(rng.uniform(-2, 2), 0.25) for _ in range(20)]
        records = [qz.ZeroRecord(nu=None, value=v, residual=0.0, seed=v,
                                 iterations=0) for v in values]
        nearest = [min(abs(a - b) for j, b in enumerate(values) if j != i)
                   for i, a in enumerate(values)]
        assert isolation_radii(records) == [min(1.0, 0.5 * d) for d in nearest]
        assert qz.separation_radius(records) == 0.5 * min(nearest)
        assert isolation_radii(records[:1]) == [1.0]


class TestRefinerAgreement:
    @pytest.mark.parametrize("k,a", [(1, 1 + 0j), (2, 2 + 1j), (3, 0.5j)])
    def test_newton_vs_fixed_point(self, k, a):
        qp = qz.QuasiPolynomial(k, a)
        for nu in (5, -7, 12):
            newton = qz.newton_refine(qp, qz.asymptotic_zero(qp, nu), 1e-13)
            fixed, _ = qz.fixed_point_refine(qp, nu, 1e-13)
            assert abs(newton.value - fixed.value) < 1e-10


@pytest.mark.parametrize("k,a", [(1, 1 + 0j), (2, 2 + 1j), (3, 0.5j),
                                 (1, 2 + 1j), (2, 0.5j), (3, 1 + 0j)])
def test_strip_localization(k, a):
    # every zero satisfies |e^l| = |A l^k| exactly, so its S=1 offset is
    # ln|A|; the strip of half-width max(threshold) + 1 holds them all
    qp = qz.QuasiPolynomial(k, a)
    h = max(qz.h_threshold(qp, "T1"), qz.h_threshold(qp, "T2")) + 1.0
    for rec in qz.zeros_in_index_range(qp, -50, 50, 1e-12, certify=False):
        off = qz.signed_offset(qp, rec.value, 1)
        assert abs(off) <= h
        assert off == pytest.approx(qp.log_abs_a, abs=1e-9)
