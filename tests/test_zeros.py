import cmath
import hashlib
import math
import random
import time

import pytest
from scipy.special import lambertw

import quasizeros as qz
from quasizeros import _kernels_py as kp, certify as certify_mod, core
from quasizeros.errors import (
    DerivativeVanishesError,
    DomainError,
    DuplicateZeroError,
    EscapedBasinError,
    InvalidIndexError,
    MaxIterationsError,
    NotConvergedError,
    TooFewRecordsError,
)
from quasizeros import zeros as zeros_mod
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
    def test_tolerance_must_be_positive(self, qp11):
        with pytest.raises(InvalidIndexError, match="^tolerance must be positive$"):
            qz.fixed_point_refine(qp11, 5, tolerance=0)

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

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (3, 0.5j)])
    def test_range_beyond_the_step_budget_refused(self, monkeypatch, k, a):
        # at 4 branches per root a ladder lists at most 4 k indices, nu = 0
        # not counted; one more is refused before any seed is formed
        monkeypatch.setattr(zeros_mod, "STEP_BUDGET", 4)
        qp = qz.QuasiPolynomial(k, a)
        n = 4 * k
        assert len(qz.zeros_in_index_range(qp, -n // 2, n - n // 2)) == n
        seeds = []
        monkeypatch.setattr(zeros_mod.kernels, "lambert_w_list",
                            lambda *args: seeds.append(args))
        for lo, hi in ((-n // 2, n - n // 2 + 1), (1, n + 1), (-n - 1, -1)):
            for certify in (True, False):
                with pytest.raises(DomainError, match=rf"^index range \[{lo}, {hi}\] holds "
                                                      rf"{n + 1} indices, more than the {n} "
                                                      rf"a ladder lists for k = {k} \(4 "
                                                      rf"branches per root\)$"):
                    qz.zeros_in_index_range(qp, lo, hi, certify=certify)
        assert seeds == []

    def test_all_zeros_satisfy_f(self, qp11):
        for rec in qz.zeros_in_index_range(qp11, -4, 4, 1e-12, certify=False):
            assert abs(direct_f(qp11, rec.value)) < 1e-9 * abs(
                qp11.a * rec.value ** qp11.k)

    def test_index_self_consistency_k3(self):
        qp = qz.QuasiPolynomial(3, 0.5j)
        for rec in qz.zeros_in_index_range(qp, -6, 6, 1e-12, certify=False):
            assert qz.branch_index(qp, rec.value) == rec.nu


class TestLambertLadder:
    """zeros_in_index_range seeds each nu from -k W_m(z_j), (j, m) from nu."""

    @staticmethod
    def _certified_one_per_nu(k, a, lo, hi):
        records = qz.zeros_in_index_range(qz.QuasiPolynomial(k, a), lo, hi)
        assert [r.nu for r in records] == [nu for nu in range(lo, hi + 1) if nu]
        assert all(r.certified and r.residual < 1e-12 for r in records)
        return records

    @pytest.mark.parametrize("k, a, lo, hi", [
        (4, 1 + 0j, -5, 5), (5, 1 + 0j, -5, 5), (10, 1 + 0j, -20, 20),
        (25, 1 + 0j, -20, 20), (5, 0.319 + 2.203j, -23, 23),
    ])
    def test_low_indices_certify(self, k, a, lo, hi):
        # the lowest |nu| of each range lie where the fixed-point map does
        # not contract (2 pi |nu| <= 2k)
        self._certified_one_per_nu(k, a, lo, hi)

    def test_seeded_windows_certify(self):
        rng = random.Random(10)
        for _ in range(60):
            k = rng.randint(1, 10)
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            self._certified_one_per_nu(k, a, -12, 12)

    def test_branch_labels(self):
        # nu = j - k (m + [nu > 0]) with j = nu mod k; (j, 0) for every j and
        # (0, -1) are the k + 1 zeros no nu reaches
        for k in (1, 2, 5):
            qp = qz.QuasiPolynomial(k, 1 + 0j)
            pairs = {zeros_mod._ladder_branch(qp, nu): nu
                     for nu in range(-6 * k, 6 * k + 1) if nu}
            assert len(pairs) == 12 * k
            assert not pairs.keys() & ({(j, 0) for j in range(k)} | {(0, -1)})
            for (j, m), nu in pairs.items():
                assert 0 <= j < k and nu == j - k * (m + (nu > 0))

    def test_matches_fixed_point(self):
        # wherever the fixed-point map contracts (2 pi |nu| > 2k) it names
        # the same zero; real A < 0 puts z_(k-1) on the cut, and rounding
        # puts it above the cut for k = 7 and 9
        rng = random.Random(2024)
        cases = []
        for _ in range(40):
            k = rng.randint(1, 10)
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lo = int(k / math.pi) + 1
            cases.append((k, a, [rng.choice((-1, 1)) * rng.randint(lo, 400)
                                 for _ in range(8)]))
        near_double = set()
        for k in range(1, 11):
            c = math.e ** k / k ** k
            lo = int(k / math.pi) + 1
            nus = sorted({nu for nu in (-lo, lo, -k - 1, k - 1, -2 * k - 1,
                                        2 * k - 1, -40, 40)
                          if TWO_PI * abs(nu) > 2 * k})
            for a in (-0.1, -1.0, -3.0, -10.0, -c * (1 + 1e-9), -c * (1 - 1e-9)):
                cases.append((k, complex(a, 0.0), nus))
            near_double |= {(k, complex(-c * (1 + s), 0.0)) for s in (1e-9, -1e-9)}
        slow = []
        for k, a, nus in cases:
            qp = qz.QuasiPolynomial(k, a)
            for nu in nus:
                value = qz.zeros_in_index_range(qp, nu, nu, certify=False)[0].value
                try:
                    fixed, _ = qz.fixed_point_refine(qp, nu)
                except NotConvergedError:
                    # the map's step ratio tends to 1 beside a double zero
                    slow.append((k, a, nu))
                    assert abs(value - k) < 1e-4
                    continue
                assert abs(value - fixed.value) < 1e-10 * abs(fixed.value)
        assert {(k, a) for k, a, _nu in slow} <= near_double
        assert {nu for _k, _a, nu in slow} == {-1}

    @pytest.mark.parametrize("k, a", [(7, -1 + 0j), (7, -3 + 0j), (9, -1 + 0j)])
    def test_cut_reads_from_below(self, k, a):
        # z_(k-1) is real and lands above the cut in rounding; nu = -1 is
        # still the larger real zero, as for A just above the negative axis
        # (the smaller one, (k - 1, 0), is left to the disk search)
        qp = qz.QuasiPolynomial(k, a)
        z = -1.0 / (k * abs(a) ** (1.0 / k))
        assert zeros_mod.lambert_argument(qp, k - 1).imag > 0
        records = self._certified_one_per_nu(k, a, -30, 30)
        larger, smaller = (complex(-k * lambertw(z, m)) for m in (-1, 0))
        by_nu = {r.nu: r.value for r in records}
        assert abs(by_nu[-1] - larger) < 1e-12 * abs(larger)
        assert all(abs(v - smaller) > 0.1 for v in by_nu.values())
        above = qz.QuasiPolynomial(k, complex(a.real, 1e-10))
        nearby = qz.zeros_in_index_range(above, -1, -1, certify=False)[0]
        assert abs(nearby.value - larger) < 1e-8

    def test_never_calls_fixed_point(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("fixed_point_refine called")

        monkeypatch.setattr(zeros_mod, "fixed_point_refine", refuse)
        for k in (1, 2, 3):
            for a in (1 + 0j, 2 + 1j, 0.5j):
                self._certified_one_per_nu(k, a, -50, 50)

    def test_residual_floor_raises_not_converged(self):
        # at nu = 2609 for k=1, A=1 Newton cannot reach the default 1e-12;
        # the failure names nu and keeps the type the CLI maps to exit 3
        with pytest.raises(NotConvergedError, match="nu = 2609") as info:
            qz.zeros_in_index_range(qz.QuasiPolynomial(1, 1 + 0j), 2609, 2609)
        assert isinstance(info.value.__cause__, MaxIterationsError)


def _reference_ladder(qp, lo, hi, certify):
    """The ladder composed from the public pieces: newton_refine from the
    Lambert-W seed (re-read from the conjugate z_j when its index is off by
    a multiple of k), relabelled to nu, then certify_record at the
    isolation radius.  A failure is returned as (type, message)."""
    k = qp.k
    records = []
    for nu in range(lo, hi + 1):
        if nu == 0:
            continue
        j, m = zeros_mod._ladder_branch(qp, nu)
        z = zeros_mod.lambert_argument(qp, j)
        seed = -k * kp.lambert_w(z, m)
        off = zeros_mod._ladder_indices(qp, [seed])[0] - nu
        if off and off % k == 0:
            seed = -k * kp.lambert_w(z.conjugate(), m)
        try:
            rec = qz.newton_refine(qp, seed, 1e-12)
        except (EscapedBasinError, MaxIterationsError, DerivativeVanishesError) as exc:
            return NotConvergedError, f"refinement failed for nu = {nu}: {exc}"
        found, = zeros_mod._ladder_indices(qp, [rec.value])
        if found != nu:
            return NotConvergedError, (f"refinement failed for nu = {nu}: Newton reached "
                                       f"the zero of index {found}")
        records.append(rec._replace(nu=nu))
    if certify:
        records = [qz.certify_record(qp, rec, r)
                   for rec, r in zip(records, isolation_radii([rec.value for rec in records]))]
    return records


def _fields(records):
    """Every field of every record by repr, or a failure as (type, message)."""
    if isinstance(records, tuple):
        return records
    return [tuple(repr(getattr(rec, name)) for name in rec._fields)
            for rec in records]


def _mirrored(a, lo, records):
    """The records a ladder from lo takes by conjugation, with no seed and
    no polish of their own: for real A > 0, each positive nu whose partner
    -nu - 1 is in the range."""
    if not (a.imag == 0 and a.real > 0):
        return 0
    return sum(1 for rec in records if rec.nu > 0 and -rec.nu - 1 >= lo)


def _ladder_outcome(qp, lo, hi, certify):
    try:
        return qz.zeros_in_index_range(qp, lo, hi, 1e-12, certify)
    except NotConvergedError as exc:
        return NotConvergedError, str(exc)


def _parity_cases():
    cases = [(k, a, -50, 50) for k in (1, 2, 3) for a in (1 + 0j, 2 + 1j, 0.5j)]
    cases.append((1, 1 + 0j, -1000, 1000))
    rng = random.Random(17)
    for _ in range(40):
        k = rng.choice((1, 2, 3, 4, 5, 10, 25))
        lo = rng.randint(-200, 170)
        cases.append((k, complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), lo, lo + 30))
    # real A < 0: z_(k-1) on the cut, above it in rounding for k = 7 and 9
    cases += [(k, complex(a, 0.0), -30, 30)
              for k in (1, 2, 3, 7, 9) for a in (-0.1, -1.0, -3.0, -10.0)]
    # beside a (near-)double zero Rouche fails at nu = -1 and the winding
    # count decides: a certificate at a shrunk radius, none, or a double zero
    for k in (1, 2, 3):
        c = math.e ** k / k ** k
        cases += [(k, complex(-c * (1 + s), 0.0), -5, 5) for s in (1e-9, -1e-9, 1e-3, 0.0)]
    # Newton stalls at the residual floor: the failure names nu = 2609
    cases.append((1, 1 + 0j, 2600, 2610))
    return cases


class TestLadderParity:
    """The ladder certifies from its polish's final evaluation; its records
    must be those of the public composition, bit for bit."""

    @pytest.mark.parametrize("certify", [True, False])
    def test_matches_reference_composition(self, certify, monkeypatch):
        seeds = []
        lambert_w_list = kp.lambert_w_list

        def counted(z, ms, logz=None):
            seeds.extend(ms)
            return lambert_w_list(z, ms, logz)

        rereads = failures = 0
        for k, a, lo, hi in _parity_cases():
            qp = qz.QuasiPolynomial(k, a)
            monkeypatch.setattr(kp, "lambert_w_list", counted)
            got = _ladder_outcome(qp, lo, hi, certify)
            monkeypatch.setattr(kp, "lambert_w_list", lambert_w_list)
            if isinstance(got, tuple):
                failures += 1
            else:
                # one Lambert-W seed per zero, the cut read once per root,
                # and none for a mirrored zero
                assert len(seeds) == len(got) - _mirrored(a, lo, got), (k, a, lo, hi)
            rereads += (zeros_mod._lambert_root(qp, k - 1)[0]
                        != zeros_mod.lambert_argument(qp, k - 1))
            seeds.clear()
            assert _fields(got) == _fields(_reference_ladder(qp, lo, hi, certify)), (k, a, lo, hi)
        # the conjugate re-read on the cut and the ladder failure both occur
        assert rereads > 0 and failures == 1

    def test_winding_fallback_exercised(self, monkeypatch):
        calls = []
        inner = certify_mod._winding_certificate

        def counted(qp, record, r):
            out = inner(qp, record, r)
            calls.append(out)
            return out

        monkeypatch.setattr(certify_mod, "_winding_certificate", counted)
        for k in (1, 2):
            c = math.e ** k / k ** k
            for s in (1e-9, 1e-3, 0.0):
                qz.zeros_in_index_range(qz.QuasiPolynomial(k, complex(-c * (1 + s), 0.0)), -5, 5)
        assert {(rec.certified, rec.multiplicity) for rec in calls} == {
            (False, 1), (True, 1), (True, 2)}


_MINUS_E = complex(-math.e, 0.0)
_SPLIT = complex(-math.e * (1 + 1e-3), 0.0)

#: sha256 (first 16 hex digits) of the repr of every field of every record,
#: seed and iterations included: (k, A, lo, hi), certify -> digest.  A = -e
#: has the double zero at -1, A = -e (1 + 1e-3) the near-double pair beside
#: it, and nu = 2600..2610 the ladder's documented failure, pinned by its
#: message
PINNED_LADDERS = {
    ((1, 1 + 0j, -200, 200), True): '960b75a56fe198ac',
    ((1, 1 + 0j, -200, 200), False): '2a5db646be7097ad',
    ((2, 3 + 0j, -40, 40), True): '50aef133b8489dbf',
    ((2, 3 + 0j, -40, 40), False): '70d22f0c9d0d5ee2',
    ((3, -0.5 + 0j, -30, 30), True): 'ae14410d44712b1a',
    ((3, -0.5 + 0j, -30, 30), False): 'f179b142b65fcaca',
    ((10, 1 + 0j, 1, 20), True): '97aee2ff5f547bb2',
    ((10, 1 + 0j, 1, 20), False): '434b9144c63b457f',
    ((25, 1 + 0j, -20, 20), True): '67b516963c90e4be',
    ((25, 1 + 0j, -20, 20), False): '5af1d88e89df16c2',
    ((3, 2 + 1j, -40, 40), True): '43b8394014ca2769',
    ((3, 2 + 1j, -40, 40), False): '85abee92ede12a28',
    ((2, 0.5j, -30, 30), True): '47f195721e67d57b',
    ((2, 0.5j, -30, 30), False): '24a05c9ccf5a5e01',
    ((1, _MINUS_E, -10, 10), True): 'f34107b10d0a7797',
    ((1, _MINUS_E, -10, 10), False): 'dced7aa75f6b83b6',
    ((1, _SPLIT, -10, 10), True): '1e8c9a1f696c961f',
    ((1, _SPLIT, -10, 10), False): 'fc11ab37d5c794ed',
    ((3, 1e300 + 0j, -10, 10), True): '931aefdeb169444d',
    ((3, 1e300 + 0j, -10, 10), False): 'd2e330866350fe43',
    ((1, 1 + 0j, 2600, 2610), True): 'add9d072fe3cf5fa',
    ((1, 1 + 0j, 2600, 2610), False): 'add9d072fe3cf5fa',
}

#: the same digests for find_zeros_in_disk: (k, A, radius) -> digest
PINNED_DISKS = {
    (1, 1 + 0j, 40.0): '88aedb5cdbb55903',
    (1, _MINUS_E, 1.5): 'b45ff05d7c6602f4',
    (1, _SPLIT, 3.0): 'eed242f529fa46ed',
    (3, 1e300 + 0j, 1.0): '3281df2f52be8c8e',
    (2, 2 + 1j, 10.0): 'ccdf46e79cded731',
    (1, -3 + 0j, 6.0): 'b2af4ac934ea3864',
    (2, 3 + 0j, 8.0): 'cc3349b7a2286230',
    (4, 1e-3 + 0j, 30.0): '5afdadf65e112e2e',
    (3, 2 + 1j, 25.0): '2cd899bd713a9b9d',
    (5, -2 + 0j, 12.0): '4a2c45cf42da1bc9',
}


def _digest(outcome):
    if isinstance(outcome, tuple):
        text = repr(outcome)
    else:
        text = "\n".join(repr(tuple(rec)) for rec in outcome)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedRecords:
    """Every field of every record, bit for bit, as pinned above."""

    @pytest.mark.parametrize("case, certify", PINNED_LADDERS, ids=str)
    def test_ladder(self, case, certify):
        k, a, lo, hi = case
        try:
            got = qz.zeros_in_index_range(qz.QuasiPolynomial(k, a), lo, hi, 1e-12, certify)
        except NotConvergedError as exc:
            got = ("NotConvergedError", str(exc))
        assert _digest(got) == PINNED_LADDERS[case, certify]

    @pytest.mark.parametrize("case", PINNED_DISKS, ids=str)
    def test_disk(self, case):
        k, a, radius = case
        got = qz.find_zeros_in_disk(qz.QuasiPolynomial(k, a), radius)
        assert _digest(got) == PINNED_DISKS[case]


class TestLadderWork:
    """Each ladder zero costs one Lambert-W seed, one scaled evaluation per
    Newton iterate and one record; a Rouche certificate reuses the last
    evaluation.  Each stage is one list kernel call over the range."""

    @staticmethod
    def _count(monkeypatch, module, name):
        inner = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            # the lists as passed: the ladder extends its seed column later
            calls.append(tuple(list(a) if isinstance(a, list) else a for a in args))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (3, 2 + 1j), (10, 1 + 0j)])
    def test_lambert_argument_once_per_root(self, monkeypatch, k, a):
        # for real A > 0 root k - 1 - j is the conjugate of root j, formed
        # only for 2j + 1 <= k
        calls = self._count(monkeypatch, zeros_mod, "lambert_argument")
        qp = qz.QuasiPolynomial(k, a)
        paired = a.imag == 0 and a.real > 0
        qz.zeros_in_index_range(qp, -40, 40)
        assert sorted(j for _qp, j in calls) == list(range((k + 1) // 2 if paired else k))
        calls.clear()
        # roots 1 .. (k + 1) // 2, of which root k // 2 + 1 is the conjugate
        # of root (k - 1) // 2 for even k
        qz.zeros_in_index_range(qp, 21, 21 + (k - 1) // 2)
        assert len(calls) == (k - 1) // 2 + 1 - (paired and k % 2 == 0)

    def test_rouche_record_costs_no_further_evaluation(self, monkeypatch):
        qp = qz.QuasiPolynomial(2, 2 + 1j)
        refused = []
        for module, name in ((core, "relative_residual"), (core, "newton_ratio"),
                             (kp, "rouche_isolates"), (kp, "relative_residual"),
                             (kp, "newton_step"), (zeros_mod, "newton_refine"),
                             (certify_mod, "certify_record"),
                             (certify_mod, "_winding_certificate")):
            refused += [self._count(monkeypatch, module, name)]
        cofactors = self._count(monkeypatch, kp, "_cofactor")
        records = qz.zeros_in_index_range(qp, -50, 50)
        assert all(rec.certified and rec.isolation_radius == 1.0 for rec in records)
        assert not any(refused)
        # one cofactor per Newton iterate, the last one shared by the
        # residual gate and the Rouche test
        assert len(cofactors) == sum(rec.iterations + 1 for rec in records)

    @pytest.mark.parametrize("k, a, lo, hi, roots", [
        (1, 1 + 0j, -1000, 1000, 2), (3, 2 + 1j, -50, 50, 6), (25, 1 + 0j, 1, 20, 20)])
    def test_one_kernel_call_per_list(self, monkeypatch, k, a, lo, hi, roots):
        # the seeds come one Lambert-W list per root and sign of nu, and the
        # polish and the Rouche test take the whole range in one call each
        lambert = self._count(monkeypatch, kp, "lambert_w_list")
        polish = self._count(monkeypatch, kp, "newton_polish_list")
        rouche = self._count(monkeypatch, kp, "rouche_holds_list")
        records = qz.zeros_in_index_range(qz.QuasiPolynomial(k, a), lo, hi)
        mirrored = _mirrored(a, lo, records)
        assert len(lambert) == roots
        assert sum(len(args[1]) for args in lambert) == len(records) - mirrored
        assert [len(args[2]) for args in polish] == [len(records) - mirrored]
        assert [len(args[1]) for args in rouche] == [len(records)]

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (3, 2 + 1j)])
    def test_polish_one_cofactor_per_iterate(self, monkeypatch, k, a):
        # ladder seeds moved off their zeros, so most iterates step, and
        # subnormal seeds, which step by the tiny-lam form: every iterate
        # makes one _cofactor call and reaches no other evaluation helper
        qp = qz.QuasiPolynomial(k, a)
        rng = random.Random(3310 + k)
        seeds = [rec.value + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                 for rec in qz.zeros_in_index_range(qp, -30, 30, certify=False)]
        seeds += [1e-310 + 0j, 3e-309 + 0j]
        cofactors = self._count(monkeypatch, kp, "_cofactor")
        refused = [self._count(monkeypatch, kp, name)
                   for name in ("residual_cofactor", "relative_residual", "newton_step")]
        values, _residuals, iterations, _cofactors, failure = kp.newton_polish_list(
            k, qp.log_a, seeds, 1e-12, zeros_mod.NEWTON_ITERATIONS, zeros_mod.ESCAPE_RADIUS)
        assert failure is None and len(values) == len(seeds)
        assert sum(iterations) > len(seeds)
        assert len(cofactors) == sum(it + 1 for it in iterations)
        assert not any(refused)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_rouche_one_helper_call_per_tested_disk(self, monkeypatch, k):
        # one _derivatives_cofactor call per disk with a radius in (0, 700),
        # none for the others, and no evaluation of f
        qp = qz.QuasiPolynomial(k, 2 + 1j)
        records = qz.zeros_in_index_range(qp, -20, 20, certify=False)
        values = [rec.value for rec in records]
        cofactors = [kp.residual_cofactor(k, qp.log_a, lam)[1] for lam in values]
        radii = [(0.5, 0.0, -1.0, 700.0, 1e3, 1e-3, 699.0)[i % 7] for i in range(len(values))]
        helper = self._count(monkeypatch, kp, "_derivatives_cofactor")
        evaluated = self._count(monkeypatch, kp, "_cofactor")
        holds = kp.rouche_holds_list(k, values, cofactors, radii)
        tested = [i for i, r in enumerate(radii) if 0.0 < r < 700.0]
        assert [args[1] for args in helper] == [values[i] for i in tested]
        assert evaluated == []
        assert True in holds and not any(holds[i] for i in range(len(radii)) if i not in tested)

    @pytest.mark.parametrize("a", [1 + 0j, 2 + 1j])
    @pytest.mark.parametrize("moved", [(500,), (900, 500)])
    def test_index_check_names_first_moved_value(self, monkeypatch, a, moved):
        # in the 2,001-index baseline, a polished value moved onto its
        # neighbour's zero is named, and of two the first in list order,
        # which is index order.  For A = 1 the polish takes nu = -1000..-1
        # and 1000, for A = 2 + i every nu
        polish = kp.newton_polish_list

        def moving(*args):
            values, *rest = polish(*args)
            for i in moved:
                values[i] = values[i + 1]
            return (values, *rest)

        monkeypatch.setattr(kp, "newton_polish_list", moving)
        qp = qz.QuasiPolynomial(1, a)
        first = min(moved)
        nu = first - 1000
        for certify in (True, False):
            with pytest.raises(NotConvergedError) as info:
                qz.zeros_in_index_range(qp, -1000, 1000, certify=certify)
            assert str(info.value) == (f"refinement failed for nu = {nu}: Newton reached "
                                       f"the zero of index {nu + 1}")

    @staticmethod
    def _count_records(monkeypatch):
        """Every ZeroRecord built, through its constructor or _make."""
        built = []
        new, make = zeros_mod.ZeroRecord.__new__, zeros_mod.ZeroRecord._make

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        def counted_make(cls, iterable):
            built.append(iterable)
            return make(iterable)

        monkeypatch.setattr(zeros_mod.ZeroRecord, "__new__", counted_new)
        monkeypatch.setattr(zeros_mod.ZeroRecord, "_make", classmethod(counted_make))
        return built

    @pytest.mark.parametrize("certify", [True, False])
    def test_one_record_per_zero(self, monkeypatch, certify):
        built = self._count_records(monkeypatch)
        records = qz.zeros_in_index_range(qz.QuasiPolynomial(1, 1 + 0j), -30, 30,
                                          certify=certify)
        assert len(built) == len(records) == 60

    @pytest.mark.parametrize("k, a, radius", [(1, 1 + 0j, 40.0), (3, 2 + 1j, 25.0)])
    def test_one_record_per_disk_zero(self, monkeypatch, k, a, radius):
        # one record per zero the disk search's square holds, any outside
        # the disk included
        qp = qz.QuasiPolynomial(k, a)
        built = self._count_records(monkeypatch)
        records = qz.find_zeros_in_disk(qp, radius)
        monkeypatch.undo()
        xmin, xmax, ymin, ymax = certify_mod._square(radius, 0)
        square = qz.winding_count(qp, qz.Rectangle(complex(xmin, ymin), complex(xmax, ymax)))
        assert len(built) == square.count >= len(records) > 0


def _positive_a_cases():
    """Seeded ladders of real A > 0 with |A| in [1e-3, 1e3]: symmetric
    ranges, one-sided ranges and ranges whose pairs nu, -nu - 1 are cut
    off on either side."""
    rng = random.Random(26)
    cases = []
    for k in (1, 2, 3, 4, 5, 10, 25):
        for _ in range(3):
            a = complex(10 ** rng.uniform(-3, 3), 0.0)
            n = rng.randint(5, 60)
            lo = rng.randint(-80, 40)
            cases += [(k, a, -n, n), (k, a, lo, lo + n),
                      (k, a, -n - rng.randint(1, 20), n - 1),
                      (k, a, -n, n + rng.randint(1, 20))]
    return cases


class TestConjugatePairs:
    """For real A > 0 the zeros come in exact conjugate pairs: the ladder
    polishes one of each pair nu, -nu - 1 and conjugates it."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 10, 25])
    @pytest.mark.parametrize("a", [1e-320, 1e-3, 1.0, 2.5, 1e3, 1e300])
    def test_roots_are_exact_conjugates(self, k, a):
        qp = qz.QuasiPolynomial(k, complex(a, 0.0))
        for j in range(k // 2):
            z, logz = zeros_mod._lambert_root(qp, j)
            pz, plogz = zeros_mod._lambert_root(qp, k - 1 - j)
            assert (repr(z), repr(logz)) == (repr(pz.conjugate()), repr(plogz.conjugate()))
            assert repr(zeros_mod.lambert_argument(qp, j)) == repr(
                zeros_mod.lambert_argument(qp, k - 1 - j).conjugate())
        if k % 2:
            z, logz = zeros_mod._lambert_root(qp, (k - 1) // 2)
            assert math.copysign(1.0, z.imag) == math.copysign(1.0, logz.imag) == 1.0
            assert z.imag == logz.imag == 0.0 and not z.real < 0

    def test_ladder_matches_reference_in_conjugate_pairs(self):
        # the mirrored records are bit for bit those of polishing every
        # index, and each pair nu, -nu - 1 is conjugate in every field
        for k, a, lo, hi in _positive_a_cases():
            qp = qz.QuasiPolynomial(k, a)
            for certify in (True, False):
                got = _ladder_outcome(qp, lo, hi, certify)
                assert _fields(got) == _fields(_reference_ladder(qp, lo, hi, certify)), (
                    k, a, lo, hi)
                by_nu = {rec.nu: rec for rec in got}
                for rec in got:
                    twin = by_nu.get(-rec.nu - 1)
                    if twin is None:
                        continue
                    assert (twin.value.real, twin.value.imag) == (rec.value.real,
                                                                  -rec.value.imag)
                    assert twin.seed == rec.seed.conjugate()
                    assert (twin.residual, twin.iterations, twin.certified,
                            twin.isolation_radius) == (rec.residual, rec.iterations,
                                                       rec.certified, rec.isolation_radius)

    @pytest.mark.parametrize("certify", [True, False])
    def test_baseline_polishes_half(self, monkeypatch, certify):
        # k = 1, A = 1, nu = -1000..1000: the negative indices and nu = 1000,
        # whose partner -1001 is outside; nu = -1 pairs with the unnamed
        # (0, -1)
        seeds = []
        lambert_w_list = kp.lambert_w_list
        polish = kp.newton_polish_list

        def counted_seeds(z, ms, logz=None):
            seeds.extend(ms)
            return lambert_w_list(z, ms, logz)

        def counted_polish(k, log_a, values, *args):
            seeds.append(len(values))
            return polish(k, log_a, values, *args)

        monkeypatch.setattr(kp, "lambert_w_list", counted_seeds)
        monkeypatch.setattr(kp, "newton_polish_list", counted_polish)
        records = qz.zeros_in_index_range(qz.QuasiPolynomial(1, 1 + 0j), -1000, 1000,
                                          certify=certify)
        assert len(records) == 2000
        assert len(seeds) == 1002 and seeds[-1] == 1001

    @pytest.mark.parametrize("a", [2 + 1j, -2 + 0j, complex(1.0, 1e-300)])
    def test_other_a_polishes_every_index(self, monkeypatch, a):
        # complex A, even beside the positive axis, and real A < 0 keep one
        # polish per index
        polish = kp.newton_polish_list
        counts = []

        def counted(k, log_a, values, *args):
            counts.append(len(values))
            return polish(k, log_a, values, *args)

        monkeypatch.setattr(kp, "newton_polish_list", counted)
        records = qz.zeros_in_index_range(qz.QuasiPolynomial(2, a), -30, 30)
        assert counts == [len(records)] == [60]


class TestSubnormalCoefficient:
    """|z_j| = 1/(k |A|^(1/k)) overflows for A = 1e-320 and k = 1; the seed
    is placed from Log z_j."""

    def test_ladder_matches_fixed_point(self):
        qp = qz.QuasiPolynomial(1, 1e-320 + 0j)
        assert not cmath.isfinite(zeros_mod.lambert_argument(qp, 0))
        records = qz.zeros_in_index_range(qp, -6, 6)
        assert [r.nu for r in records] == [nu for nu in range(-6, 7) if nu]
        for rec in records:
            assert rec.certified and rec.residual < 1e-12
            fixed, _ = qz.fixed_point_refine(qp, rec.nu)
            assert abs(rec.value - fixed.value) < 1e-10 * abs(fixed.value)

    def test_lambert_root_log_form(self):
        # where z_j is finite the carried Log z_j is cmath.log(z_j) itself;
        # the closed form agrees with it
        for k, a in ((1, 1 + 0j), (3, 2 + 1j), (7, -1 + 0j), (2, 1e-300j)):
            qp = qz.QuasiPolynomial(k, a)
            for j in range(k):
                z, logz = zeros_mod._lambert_root(qp, j)
                assert logz == cmath.log(z)
                u = (qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / k
                closed = complex(-math.log(k) - u.real, kp.wrap_angle(math.pi - u.imag))
                assert abs(cmath.exp(closed) - z) < 1e-12 * abs(z)


#: the duplicate checks, each on a list of records
_DUPLICATE_CHECKS = (
    qz.separation_radius,
    lambda records: zeros_mod._check_duplicates([r.nu for r in records],
                                                [r.value for r in records]),
    lambda records: zeros_mod._distinct_isolation_radii([r.nu for r in records],
                                                        [r.value for r in records]))


class TestDuplicateDetection:
    def test_duplicates_raise(self, qp11):
        rec = qz.newton_refine(qp11, qz.asymptotic_zero(qp11, 2), 1e-13)
        with pytest.raises(DuplicateZeroError):
            qz.separation_radius([rec, rec])

    @pytest.mark.parametrize("scale", [1e-3, 1e-100, 1e-300])
    def test_duplicate_distance_scales_below_one(self, scale):
        # distinct zeros at |l| = scale lie closer than 1e-6 apart; a
        # duplicate lies within 1e-6 |l| of its twin
        values = [scale * cmath.exp(1j * math.pi * (2 * j + 1) / 3) for j in range(3)]
        records = [qz.ZeroRecord(None, v, 0.0, v, 0) for v in values]
        assert qz.separation_radius(records) == pytest.approx(0.5 * math.sqrt(3) * scale)
        zeros_mod._check_duplicates([None] * 3, values)
        assert zeros_mod._distinct_isolation_radii([None] * 3, values) == isolation_radii(values)
        twin = records[:1] + [qz.ZeroRecord(None, values[0] * (1 + 1e-7), 0.0, 0j, 0)]
        for check in _DUPLICATE_CHECKS:
            with pytest.raises(DuplicateZeroError):
                check(twin)

    def test_duplicate_with_a_record_sorting_between(self):
        # in (Im, Re) order -3 + 1e-12i sorts between 5 and its twin
        # 5 + 2e-12i, so the twins are not neighbours there
        values = [5.0 + 0j, -3.0 + 1e-12j, 5.0 + 2e-12j]
        records = [qz.ZeroRecord(None, v, 0.0, v, 0) for v in values]
        for check in _DUPLICATE_CHECKS:
            with pytest.raises(DuplicateZeroError):
                check(records)

    @pytest.mark.parametrize("seed", range(12))
    def test_names_the_pair_of_an_im_re_ordered_pass(self, seed):
        # several duplicate pairs, exact and up to 0.75e-6 min(1, |l|) apart,
        # among values with tied and signed-zero Im: the capped screen lets
        # the naming pass run, and it names the pair the (Im, Re)-ordered
        # pass names
        rng = random.Random(seed)
        scale = rng.choice([1.0, 1e-3, 1e-100])
        values = _cloud(rng, 40, scale)
        for _ in range(rng.randint(2, 5)):
            twin = rng.choice(values)
            values.insert(rng.randrange(len(values) + 1),
                          rng.choice([twin, twin * (1 + 1e-8), twin + 1e-9 * scale,
                                      twin + 0.75e-6j * min(1.0, abs(twin))]))
        nus = list(range(len(values)))
        with pytest.raises(DuplicateZeroError) as raised:
            _reference_duplicates(nus, values)
        for check in (zeros_mod._check_duplicates, zeros_mod._distinct_isolation_radii):
            with pytest.raises(DuplicateZeroError) as got:
                check(nus, values)
            assert str(got.value) == str(raised.value)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_pair_just_inside_the_distance(self, seed):
        # the only pair closer than DUPLICATE_DISTANCE lies 0.75 of it
        # apart, at |l| >= 1: a duplicate, which the screen must pass on;
        # 1.25 of it apart they are two zeros
        values = _cloud(random.Random(seed), 30, 3.0)
        twin = max(values, key=abs)
        for gap, duplicate in ((0.75, True), (1.25, False)):
            listed = values + [twin + 1j * gap * zeros_mod.DUPLICATE_DISTANCE]
            nus = list(range(len(listed)))
            if not duplicate:
                assert zeros_mod._check_duplicates(nus, listed) is None
                continue
            with pytest.raises(DuplicateZeroError) as raised:
                _reference_duplicates(nus, listed)
            with pytest.raises(DuplicateZeroError) as got:
                zeros_mod._check_duplicates(nus, listed)
            assert str(got.value) == str(raised.value)


def _cloud(rng, n, scale):
    """n values of modulus about scale, a third of them on Im values shared
    with another, among them +0.0 and -0.0."""
    values = [scale * complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    for i in range(0, n, 3):
        values[i] = complex(values[i].real, rng.choice(
            [0.0, -0.0, values[(i + 1) % n].imag, values[(i + 2) % n].imag]))
    return values


def _reference_duplicates(nus, values):
    """The duplicate check as one pass in (Im, Re) order, with no screen:
    each value against every later one less than DUPLICATE_DISTANCE above
    it in Im."""
    order = sorted(range(len(values)), key=lambda i: (values[i].imag, values[i].real))
    for p, i in enumerate(order):
        for q in order[p + 1:]:
            if not values[q].imag - values[i].imag < zeros_mod.DUPLICATE_DISTANCE:
                break
            if zeros_mod._duplicate(values[i], abs(values[i] - values[q])):
                raise DuplicateZeroError(f"indices {nus[i]} and {nus[q]} converged to the "
                                         f"same zero {values[i]:.9g}")


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

    def test_unlabelled_record_rejected(self, qp11):
        # a record labelled as the disk search labels a zero no index names
        recs = qz.zeros_in_index_range(qp11, 1, 2, 1e-12)
        unlabelled = recs[0]._replace(nu=None)
        with pytest.raises(DomainError, match="^gap statistics need indexed records$"):
            qz.gap_statistics([unlabelled, recs[1]])


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
        assert isolation_radii(values) == [min(1.0, 0.5 * d) for d in nearest]
        assert qz.separation_radius(records) == 0.5 * min(nearest)
        assert isolation_radii(values[:1]) == [1.0]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("cap", [2.0, 1e-6, 1e-99, math.inf])
    def test_capped_sweep_matches_brute_force_bit_for_bit(self, seed, cap):
        # Im ties, +-0.0 Im, exact duplicates, and the zeros of k = 3,
        # A = 1e300 at |l| = 1e-100, closer together than any cap but inf
        rng = random.Random(seed)
        values = _cloud(rng, rng.randint(0, 80), rng.choice([1.0, 3.0, 1e-100]))
        values += rng.sample(values, min(3, len(values)))
        if seed % 2:
            qp = qz.QuasiPolynomial(3, 1e300 + 0j)
            values += [rec.value for rec in qz.find_zeros_in_disk(qp, 1.0)]
        rng.shuffle(values)
        want = [min(cap, min((abs(a - b) for j, b in enumerate(values) if j != i),
                             default=math.inf)) for i, a in enumerate(values)]
        got = zeros_mod._nearest_distances(values, cap)
        assert [d.hex() for d in got] == [d.hex() for d in want]
        radii = [min(1.0, 0.5 * min((abs(a - b) for j, b in enumerate(values) if j != i),
                                    default=math.inf)) for i, a in enumerate(values)]
        assert [r.hex() for r in isolation_radii(values)] == [r.hex() for r in radii]

    @pytest.mark.parametrize("cap", [2.0, 1e-6, math.inf])
    def test_capped_sweep_of_empty_and_lone_lists(self, cap):
        assert zeros_mod._nearest_distances([], cap) == []
        assert zeros_mod._nearest_distances([1e-100 + 0j], cap) == [cap]
        assert isolation_radii([]) == []
        assert isolation_radii([-0.0 - 0.0j]) == [1.0]


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
