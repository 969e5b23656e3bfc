import cmath
import dataclasses
import math
import random

import pytest
from scipy.special import lambertw

import quasizeros as qz
from quasizeros import _kernels_py as kp, certify as certify_mod, zeros as zeros_mod
from quasizeros.errors import (
    DomainError,
    QuadratureStalledError,
    RecordOutsideContourError,
    SubdivisionStalledError,
    ZeroOnContourError,
)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    inner = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWindingCount:
    def test_single_zero(self, qp11, omega_root):
        rep = qz.winding_count(qp11, qz.Circle(complex(omega_root, 0) + 0.01j, 0.3))
        assert rep.count == 1
        assert rep.integer_distance < 0.1
        assert rep.min_scaled_modulus > 1e-8

    def test_empty_disk(self, qp11):
        rep = qz.winding_count(qp11, qz.Circle(0j, 0.1))
        assert rep.count == 0

    def test_double_zero(self):
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        rep = qz.winding_count(qp, qz.Circle(1 + 0j, 0.2))
        assert rep.count == 2

    def test_rectangle_window(self, qp11):
        # upper-half window holding exactly the first three ladder zeros
        box = qz.Rectangle(complex(-5, 1), complex(8, 2 * math.pi * 3.6))
        rep = qz.winding_count(qp11, box)
        # oracle: count -W_j(1) values inside the box
        want = 0
        j = -1
        while True:
            z = complex(-lambertw(1.0, j))
            if z.imag > box.corner_max.imag:
                break
            if box.contains(z):
                want += 1
            j -= 1
        assert rep.count == want == 3

    def test_integer_stability(self, qp11):
        box = qz.Rectangle(complex(-5, 0.5), complex(8, 2 * math.pi * 2.6))
        r1 = qz.winding_count(qp11, box, 1e-6)
        r2 = qz.winding_count(qp11, box, 1e-7)
        assert r1.count == r2.count
        assert r1.integer_distance < 0.1 and r2.integer_distance < 0.1

    def test_additivity(self, qp11):
        lo, mid, hi = 0.5, 2 * math.pi * 2.1, 2 * math.pi * 4.3
        left = qz.Rectangle(complex(-6, lo), complex(8, mid))
        right = qz.Rectangle(complex(-6, mid), complex(8, hi))
        union = qz.Rectangle(complex(-6, lo), complex(8, hi))
        c1 = qz.winding_count(qp11, left).count
        c2 = qz.winding_count(qp11, right).count
        cu = qz.winding_count(qp11, union).count
        assert c1 + c2 == cu

    def test_zero_on_contour(self, qp11, omega_root):
        with pytest.raises(ZeroOnContourError):
            qz.winding_count(qp11, qz.Circle(complex(omega_root + 0.2, 0), 0.2))

    def test_zero_on_contour_message(self, qp11, omega_root):
        # the message names the piece the way the contour is parametrised
        with pytest.raises(ZeroOnContourError, match=r"\(arc at angle 3\.14\)"):
            qz.winding_count(qp11, qz.Circle(complex(omega_root + 0.2, 0), 0.2))
        z4 = qz.zeros_in_index_range(qp11, 4, 4, 1e-12)[0].value
        with pytest.raises(ZeroOnContourError, match=r"on the contour near 3\.39869\+29\.7313j"):
            qz.winding_count(qp11, qz.Rectangle(complex(-10, 0.5), complex(10, z4.imag)))

    def test_large_real_part_contour(self, qp11):
        # dominance-factored integrand keeps |Re l| in the hundreds safe
        box = qz.Rectangle(complex(100, -5), complex(300, 5))
        assert qz.winding_count(qp11, box).count == 0

    def test_bad_tolerance(self, qp11):
        with pytest.raises(DomainError):
            qz.winding_count(qp11, qz.Circle(0j, 0.1), -1.0)

    @pytest.mark.parametrize("make", [
        lambda: qz.Circle(complex(math.nan, 0), 1.0),
        lambda: qz.Circle(0j, math.inf),
        lambda: qz.Circle(0j, math.nan),
        lambda: qz.Rectangle(complex(-math.inf, 0), 1 + 1j),
        lambda: qz.Rectangle(0j, complex(1, math.nan)),
    ], ids=["circle-center-nan", "circle-radius-inf", "circle-radius-nan",
            "rectangle-corner-inf", "rectangle-corner-nan"])
    def test_non_finite_contour_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    def test_oversize_side_stalls(self, qp11):
        # 1e20 long would take about 2**65 pieces; none is built
        with pytest.raises(QuadratureStalledError, match="segment budget"):
            qz.winding_count(qp11, qz.Rectangle(0j, complex(1e20, 1)))

    @pytest.mark.parametrize("corner, budget", [
        (complex(20.0, 3.0), 24),    # 3 x perimeter / 4 = 69 > 24: refused from its lengths
        (complex(2.25, 2.25), 23),   # 8 pieces, 24 visits > 23: refused from its count
    ])
    def test_over_budget_refused_before_any_sum(self, qp11, monkeypatch, corner, budget):
        monkeypatch.setattr(certify_mod, "SEGMENT_BUDGET", budget)
        line = kp.line_segment_logderiv
        sums = []

        def counted(*args):
            sums.append(args)
            return line(*args)

        monkeypatch.setattr(kp, "line_segment_logderiv", counted)
        with pytest.raises(QuadratureStalledError, match="segment budget exhausted"):
            qz.winding_count(qp11, qz.Rectangle(-corner, corner))
        assert sums == []

    def test_just_inside_budget_counts(self, qp11, monkeypatch):
        # sides 6 long: 8 pieces of 3, one Gauss-Kronrod sum each, and the
        # two pieces whose estimate is above tolerance bisected once
        monkeypatch.setattr(certify_mod, "SEGMENT_BUDGET", 24)
        report = qz.winding_count(qp11, qz.Rectangle(complex(-3, -3), complex(3, 3)))
        assert report.count == 1 and report.segments_used == 12


class TestMultiplicity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_conservation_under_perturbation(self, k):
        a_critical = -math.exp(k) / k ** k
        qp = qz.QuasiPolynomial(k, complex(a_critical, 0))
        disk = qz.Circle(complex(k, 0) + 0.001j, 0.3)
        assert qz.winding_count(qp, disk).count == 2
        qp_pert = qz.QuasiPolynomial(k, complex(a_critical * (1 + 1e-3), 0))
        assert qz.winding_count(qp_pert, disk).count == 2
        # the perturbed pair splits into two simple zeros straddling l = k
        recs = qz.find_zeros_in_disk(qp_pert, k + 0.5)
        doubles = [r for r in recs if abs(r.value - k) < 0.2]
        assert len(doubles) == 2
        assert all(r.multiplicity == 1 and r.certified for r in doubles)
        mid = 0.5 * (doubles[0].value + doubles[1].value)
        assert abs(mid - k) < 0.01

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("eps", [0.0, 1e-9, -1e-9, 1e-10, 1e-11, 1e-6, 1e-4])
    def test_near_double_disks(self, k, eps, monkeypatch):
        # A = -e^k/k^k (1 + eps): a double zero at l = k for eps = 0, else a
        # pair about 2k sqrt(2 |eps|/k) apart.  The branch point is read from
        # z = -1/(k w_j), so the rounded eps = 0 case is one double zero
        # although W_0 and W_-1 polish to two values there.  The exact f''
        # term of the Rouche test proves each zero of a pair at its own
        # isolation radius, down to eps = 1e-11 (pairs ~1e-5 apart).
        qp = qz.QuasiPolynomial(k, complex(-math.exp(k) / k ** k * (1 + eps), 0))
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        recs = qz.find_zeros_in_disk(qp, k + 2.0)
        assert all(r.certified for r in recs)
        near = [r.multiplicity for r in recs if abs(r.value - k) < 0.2]
        assert near == ([2] if eps == 0.0 else [1, 1])
        # one count of the square and no cells; near l = k only a double
        # zero takes a circle count, the pair's zeros certify by Rouche
        contours = [args[1] for args in counts]
        assert sum(isinstance(c, qz.Rectangle) for c in contours) == 1
        assert sum(isinstance(c, qz.Circle) and abs(c.center - k) < 0.2
                   for c in contours) == near.count(2)


class TestFindZerosInDisk:
    def test_omega_constant(self, qp11, omega_root):
        recs = qz.find_zeros_in_disk(qp11, 2.0)
        assert len(recs) == 1
        assert abs(recs[0].value - omega_root) < 1e-10
        assert recs[0].multiplicity == 1
        assert recs[0].certified
        assert recs[0].nu is None

    @pytest.mark.parametrize("radius", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    def test_real_zero_labelled_origin(self, qp11, omega_root, radius):
        # the label must not depend on the rounding-level Im of the value
        recs = [r for r in qz.find_zeros_in_disk(qp11, radius)
                if abs(r.value - omega_root) < 1e-10]
        assert len(recs) == 1
        assert recs[0].nu is None

    def test_two_real_zeros_labelled_origin(self):
        qp = qz.QuasiPolynomial(1, -3 + 0j)
        real = [r for r in qz.find_zeros_in_disk(qp, 3.0)
                if abs(r.value.imag) < 1e-9]
        assert len(real) == 2
        assert all(r.nu is None for r in real)

    def test_conjugate_pair(self):
        # zeros of e^l = l; oracle via the Lambert function: l = -W_0(-1)
        qp = qz.QuasiPolynomial(1, -1 + 0j)
        oracle = complex(-lambertw(-1.0, 0))
        assert abs(cmath.exp(oracle) - oracle) < 1e-13
        recs = qz.find_zeros_in_disk(qp, 2.0)
        assert len(recs) == 2
        values = sorted((r.value for r in recs), key=lambda v: v.imag)
        lower, upper = ((oracle, oracle.conjugate()) if oracle.imag < 0
                        else (oracle.conjugate(), oracle))
        assert values[0] == pytest.approx(lower, abs=1e-10)
        assert values[1] == pytest.approx(upper, abs=1e-10)
        assert values[1] == pytest.approx(0.3181315 + 1.3372357j, abs=1e-6)

    def test_small_disk_empty(self, qp11):
        assert qz.find_zeros_in_disk(qp11, 0.1) == []

    def test_radius_five(self, qp11):
        recs = qz.find_zeros_in_disk(qp11, 5.0)
        assert len(recs) == 3
        assert all(r.certified for r in recs)
        assert all(abs(r.value) <= 5.0 for r in recs)

    def test_double_zero(self):
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        recs = qz.find_zeros_in_disk(qp, 2.0)
        assert len(recs) == 1
        assert recs[0].multiplicity == 2
        assert abs(recs[0].value - 1.0) < 1e-8
        assert recs[0].certified

    def test_bad_radius(self, qp11):
        with pytest.raises(DomainError):
            qz.find_zeros_in_disk(qp11, -1.0)

    @pytest.mark.parametrize("radius", [0.0, math.nan, math.inf])
    def test_radius_must_be_positive_and_finite(self, qp11, radius):
        with pytest.raises(DomainError):
            qz.find_zeros_in_disk(qp11, radius)

    def test_double_zero_read_once(self, monkeypatch):
        # the cell's count of 2 already proves the critical point is its
        # double zero: the only circle winding count is the certificate's
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        winding = certify_mod.winding_count
        circles = []

        def counted(qp, contour, *args):
            if isinstance(contour, qz.Circle):
                circles.append(contour)
            return winding(qp, contour, *args)

        monkeypatch.setattr(certify_mod, "winding_count", counted)
        recs = qz.find_zeros_in_disk(qp, 1.5)
        assert [(r.multiplicity, r.certified) for r in recs] == [(2, True)]
        assert len(circles) == 1

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("extra", [0.5, 2.0, None])
    @pytest.mark.parametrize("zero_sign", [1.0, -1.0])
    def test_real_zeros_in_re_order(self, k, extra, zero_sign):
        # A = -e^k/k^k (a double zero at l = k), with Im A = +-0: the real
        # zeros' rounding-level Im must not decide their order
        radius = 3 * k + 3.0 if extra is None else k + extra
        qp = qz.QuasiPolynomial(k, complex(-math.exp(k) / k ** k, zero_sign * 0.0))
        recs = qz.find_zeros_in_disk(qp, radius)
        real = [r.value.real for r in recs
                if abs(r.value.imag) <= zeros_mod.REAL_AXIS_NOISE * max(1.0, abs(r.value))]
        assert len(real) >= 2 and real == sorted(real)

    def test_stalled_outer_square_not_retried(self, monkeypatch):
        # k=1, A=-3: z_0 lies on the cut, so the square takes the winding
        # count, at a budget the r=40 square cannot meet: the stall recurs
        # on every wider square, so the search spends one budget and
        # reports it
        qp = qz.QuasiPolynomial(1, -3 + 0j)
        monkeypatch.setattr(certify_mod, "SEGMENT_BUDGET", 64)
        report = certify_mod._report
        calls = []

        def counted(*args):
            calls.append(args)
            return report(*args)

        monkeypatch.setattr(certify_mod, "_report", counted)
        with pytest.raises(QuadratureStalledError, match="segment budget exhausted"):
            qz.find_zeros_in_disk(qp, 40.0)
        assert len(calls) == 1


class TestSharedEdges:
    """A contour piece keeps its Gauss sum; the disk search's square count
    must be the one a fresh winding count on the same rectangle gives."""

    def test_outer_square_report_matches_fresh_winding_count(self, qp11):
        (xmin, xmax, ymin, ymax), report = certify_mod._outer_cell(qp11, 40.0)
        fresh = qz.winding_count(qp11, qz.Rectangle(complex(xmin, ymin),
                                                    complex(xmax, ymax)))
        assert report == fresh

    def test_disk_search_work_bound(self, qp11, monkeypatch):
        # the square's one count and the record certificates
        kernel = certify_mod.kernels.line_segment_logderiv
        calls = []

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(certify_mod.kernels, "line_segment_logderiv", counted)
        recs = qz.find_zeros_in_disk(qp11, 40.0)
        assert len(recs) == 13 and all(r.certified for r in recs)
        assert len(calls) <= 4000


class TestGaussKronrod:
    """One 15-node Gauss-Kronrod sum per contour piece, bisected only while
    |K15 - G7| is above the piece's share of the tolerance."""

    def test_count_matches_branch_proof(self):
        # the closed-form count takes no contour integral: an independent
        # oracle wherever it decides
        rng = random.Random(1501)
        decided = 0
        for _ in range(200):
            k = rng.randint(1, 10)
            a = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            x0, y0 = rng.uniform(-30, 15), rng.uniform(-300, 240)
            box = qz.Rectangle(complex(x0, y0),
                               complex(x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 60)))
            qp = qz.QuasiPolynomial(k, a)
            count = certify_mod._branch_zeros(qp, _rect_cell(box))[1]
            if count is not None:
                decided += 1
                assert qz.winding_count(qp, box).count == count, (k, a, box)
        assert decided == 200

    def test_criterion_02_box_work(self, qp11):
        box = qz.Rectangle(complex(-12, -2 * math.pi * 20.6), complex(12, 2 * math.pi * 20.6))
        report = qz.winding_count(qp11, box)
        assert report.count == 41 and report.segments_used <= 300

    @pytest.mark.parametrize("a, radius, bound", [(complex(-math.e, 0), 1.5, 40),
                                                  (-3 + 0j, 40.0, 384)],
                             ids=["branch-point", "cut"])
    def test_fallback_search_work(self, a, radius, bound, monkeypatch):
        # the square's count and the certificates' circle counts together
        # take no more sums than the whole-versus-halves rule did (bound)
        qp = qz.QuasiPolynomial(1, a)
        lines = _counting(monkeypatch, certify_mod.kernels, "line_segment_logderiv")
        arcs = _counting(monkeypatch, certify_mod.kernels, "arc_segment_logderiv")
        recs = qz.find_zeros_in_disk(qp, radius)
        assert recs and all(r.certified for r in recs)
        assert lines and len(lines) + len(arcs) <= bound


def _lambert_oracle(qp, radius):
    """The zeros with |l| <= radius from scipy: -k W_m(z_j) over the roots
    w_j of w^k = -A, z_j = -1/(k w_j), as (value, multiplicity), the two
    values of a double zero merged.  |Im W_m| > 2 (|m| - 1) pi for |m| >= 2
    (Corless et al.), so |m| <= radius / (2 pi k) + 1 covers the disk."""
    k = qp.k
    top = int(radius / (2.0 * math.pi * k)) + 2
    out = []
    for j in range(k):
        z = -1.0 / (k * cmath.exp((qp.log_a + complex(0.0, math.pi * (2 * j + 1))) / k))
        for m in range(-top, top + 1):
            lam = -k * complex(lambertw(z, m))
            if abs(lam) > radius:
                continue
            twin = [i for i, (v, _) in enumerate(out) if abs(v - lam) < 1e-6]
            if twin:
                out[twin[0]] = (out[twin[0]][0], 2)
            else:
                out.append((lam, 1))
    return out


class TestEnumeration:
    """The disk search lists the zeros by Lambert-W branch and proves the
    list in closed form, or with the outer square's one count where that
    proof is undecided; a list that fails the count identity raises
    SubdivisionStalledError."""

    def test_one_count_and_no_subdivision(self, qp11, monkeypatch):
        # every branch value is decided: no rectangle count, no line sum
        segments = _counting(monkeypatch, certify_mod.kernels, "line_segment_logderiv")
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        recs = qz.find_zeros_in_disk(qp11, 40.0)
        assert len(recs) == 13 and all(r.certified for r in recs)
        assert not any(isinstance(args[1], qz.Rectangle) for args in counts)
        assert segments == []

    @pytest.mark.parametrize("k, a, radius", [(1, 1 + 0j, 40.0), (3, 2 + 1j, 20.0),
                                              (2, 3 + 0j, 8.0)])
    def test_matches_subdivision(self, k, a, radius):
        # the oracle, scipy's Lambert W with a fresh winding count, matched
        # the recursive subdivision that it replaced on 111 disks
        qp = qz.QuasiPolynomial(k, a)
        recs = qz.find_zeros_in_disk(qp, radius)
        oracle = _lambert_oracle(qp, radius)
        assert qz.winding_count(qp, qz.Circle(0j, radius)).count == sum(
            mult for _, mult in oracle)
        assert len(recs) == len(oracle)
        radii = zeros_mod.isolation_radii(
            [qz.ZeroRecord(None, v, 0.0, v, 0) for v, _ in oracle])
        for (want, mult), radius_want in zip(oracle, radii):
            rec = min(recs, key=lambda r: abs(r.value - want))
            assert abs(rec.value - want) <= 1e-12 * max(1.0, abs(want))
            assert rec.nu == zeros_mod.disk_zero_index(qp, want)
            assert rec.certified and rec.multiplicity == mult
            assert rec.isolation_radius == pytest.approx(radius_want, abs=1e-9)

    @pytest.mark.parametrize("tamper", ["drop", "duplicate"])
    def test_broken_list_falls_back(self, qp11, tamper, monkeypatch):
        # a list that fails the count identity stops the search, naming the
        # count and the listed sum
        branch_zeros = certify_mod._branch_zeros

        def broken(*args):
            found, count = branch_zeros(*args)
            return (found[1:] if tamper == "drop" else found + found[:1]), count

        monkeypatch.setattr(certify_mod, "_branch_zeros", broken)
        listed = 2 if tamper == "drop" else 4
        with pytest.raises(SubdivisionStalledError,
                           match=f"count is 3, the listed multiplicities add up to {listed}"):
            qz.find_zeros_in_disk(qp11, 10.0)


def _rect_cell(rect):
    lo, hi = rect.corner_min, rect.corner_max
    return lo.real, hi.real, lo.imag, hi.imag


class TestBranchProof:
    """The closed-form count: each branch value is proven to be the zero of
    its own (j, m) and placed in or out of the rectangle, with no contour
    integral; an undecided value sends the region to the winding count."""

    def test_count_matches_winding_count(self):
        rng = random.Random(1301)
        boxes = [(1, 1 + 0j, qz.Rectangle(complex(-12, -2 * math.pi * 20.6),
                                          complex(12, 2 * math.pi * 20.6)))]
        while len(boxes) < 40:
            k = rng.choice((1, 2, 3, 4, 5, 7, 10, 15, 25))
            a = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            x0, y0 = rng.uniform(-30, 15), rng.uniform(-150, 120)
            boxes.append((k, a, qz.Rectangle(
                complex(x0, y0), complex(x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 60)))))
        decided = 0
        for k, a, box in boxes:
            qp = qz.QuasiPolynomial(k, a)
            count = certify_mod._branch_zeros(qp, _rect_cell(box))[1]
            if count is not None:
                decided += 1
                assert count == qz.winding_count(qp, box).count, (k, a, box)
        assert decided == len(boxes)

    @pytest.mark.parametrize("a, radius", [(complex(-math.e, 0), 1.5), (-3 + 0j, 6.0)],
                             ids=["branch-point", "cut"])
    def test_fallback_takes_one_count(self, a, radius, monkeypatch):
        # A = -e puts z_0 at the branch point; A = -3 puts it on the cut
        qp = qz.QuasiPolynomial(1, a)
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        recs = qz.find_zeros_in_disk(qp, radius)
        assert recs and all(r.certified for r in recs)
        assert sum(isinstance(args[1], qz.Rectangle) for args in counts) == 1
        box = qz.Rectangle(complex(-radius, -radius), complex(radius, radius))
        ok, detail = qz.certify_completeness(qp, box, recs)
        assert ok and detail["proof"] == "winding"
        assert detail["integer_distance"] < 0.1

    def test_completeness_reports_branch_proof(self, qp11, monkeypatch):
        recs = qz.zeros_in_index_range(qp11, 1, 10, 1e-12)
        box = qz.Rectangle(complex(-10, 5.0), complex(10, recs[-1].value.imag + math.pi))
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        ok, detail = qz.certify_completeness(qp11, box, recs)
        assert ok and detail["proof"] == "branch" and detail["contour_count"] == 10
        assert "integer_distance" not in detail and "min_scaled_modulus" not in detail
        assert counts == []
        ok, detail = qz.certify_completeness(qp11, box, recs[:-1])
        assert not ok and detail["contour_count"] == 10 and detail["expected_count"] == 9

    def test_branch_rule_matches_scipy(self):
        rng = random.Random(1302)
        for _ in range(2000):
            z = cmath.rect(math.exp(rng.uniform(-12, 12)), rng.uniform(-math.pi, math.pi))
            for m in range(-6, 7):
                w = complex(lambertw(z, m))
                assert certify_mod._branch_of(w, 1e-8 * max(1.0, abs(w))) == m, (z, m)

    @pytest.mark.parametrize("y", [0.3, 2.0, 3.1, 2 * math.pi + 0.2, 4 * math.pi + 2.5,
                                   20 * math.pi + 1.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_refused_at_a_curve(self, y, sign):
        # w within eps of the curve x = -y cot y is refused; clear of it by
        # 1.5 eps (1 + the curve's slope dx/dy), on either side, it is not
        eps = 1e-6
        xc = -y / math.tan(y)
        slope = (y - math.sin(y) * math.cos(y)) / math.sin(y) ** 2
        for dx in (0.0, 0.5 * eps, -0.5 * eps):
            assert certify_mod._branch_of(complex(xc + dx, sign * y), eps) is None
        n = int(y / (2 * math.pi))
        clear = 1.5 * eps * (1.0 + slope)
        right = certify_mod._branch_of(complex(xc + clear, sign * y), eps)
        left = certify_mod._branch_of(complex(xc - clear, sign * y), eps)
        assert (right, left) == (sign * n, sign * (n + 1))

    def test_refused_on_the_cut(self):
        # the half-line y = 0, x <= -1 bounds W_1 above and W_-1 below
        assert certify_mod._branch_of(-2 + 0j, 1e-8) is None
        assert certify_mod._branch_of(complex(-2, 1e-9), 1e-8) is None
        assert certify_mod._branch_of(complex(-2, 1e-7), 1e-8) == 1
        assert certify_mod._branch_of(complex(-2, -1e-7), 1e-8) == -1
        assert certify_mod._branch_of(-0.5 + 0j, 1e-8) == 0

    def test_root_index_refused_at_pi_over_k(self):
        k = 3
        qp = qz.QuasiPolynomial(k, 2 + 1j)
        lam = qz.find_zeros_in_disk(qp, 10.0)[0].value
        # the j whose root w_j = e^(l/k) / l
        omega = cmath.exp(lam / k) / lam
        j = min(range(k), key=lambda i: abs(
            cmath.exp((qp.log_a + complex(0, math.pi * (2 * i + 1))) / k) - omega))
        holds = certify_mod._root_index_holds
        assert holds(k, qp.log_a, lam, j, 1e-8 * abs(lam))
        assert not any(holds(k, qp.log_a, lam, i, 1e-8 * abs(lam))
                       for i in range(k) if i != j)
        d = abs(kp.wrap_angle(lam.imag / k - cmath.phase(lam)
                              - (qp.log_a.imag + math.pi * (2 * j + 1)) / k))
        # the rho at which d + rho/k + asin(rho/|l|) reaches pi/k, by bisection
        lo, hi = 0.0, abs(lam) * math.sin(math.pi / k - d)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if d + mid / k + math.asin(mid / abs(lam)) < math.pi / k:
                lo = mid
            else:
                hi = mid
        assert not holds(k, qp.log_a, lam, j, hi * (1 + 1e-9))
        assert holds(k, qp.log_a, lam, j, lo * (1 - 1e-6))


class TestCertifyCompleteness:
    def _window_records(self, qp, lo, hi):
        # window bottom at Im = 5 stays above the unindexed zero near
        # 1.53 + 4.38i, so the box holds exactly the ladder zeros lo..hi
        recs = qz.zeros_in_index_range(qp, lo, hi, 1e-12)
        box = qz.Rectangle(complex(-10, 5.0),
                           complex(10, recs[-1].value.imag + math.pi))
        return box, recs

    def test_complete_window(self, qp11):
        box, recs = self._window_records(qp11, 1, 10)
        ok, detail = qz.certify_completeness(qp11, box, recs)
        assert ok
        assert detail["contour_count"] == 10

    def test_missing_record_detected(self, qp11):
        box, recs = self._window_records(qp11, 1, 10)
        ok, detail = qz.certify_completeness(qp11, box, recs[:-1] + [])
        assert not ok
        assert detail["contour_count"] == 10
        assert detail["expected_count"] == 9

    def test_moved_record_detected(self, qp11):
        import dataclasses

        box, recs = self._window_records(qp11, 1, 10)
        moved = dataclasses.replace(recs[3], value=recs[3].value + 0.5)
        ok, _detail = qz.certify_completeness(qp11, box, recs[:3] + [moved] + recs[4:])
        assert not ok

    def test_record_outside_contour(self, qp11):
        box, recs = self._window_records(qp11, 1, 10)
        outside = qz.zeros_in_index_range(qp11, 12, 12, 1e-12)
        with pytest.raises(RecordOutsideContourError):
            qz.certify_completeness(qp11, box, recs + outside)

    def test_edge_through_zero(self, qp11):
        recs = qz.zeros_in_index_range(qp11, 1, 3, 1e-12)
        # top edge passes through the nu=4 zero
        z4 = qz.zeros_in_index_range(qp11, 4, 4, 1e-12)[0].value
        box = qz.Rectangle(complex(-10, 0.5), complex(10, z4.imag))
        with pytest.raises(ZeroOnContourError):
            qz.certify_completeness(qp11, box, recs)


ACCEPTANCE_COMBOS = [(k, a) for k in (1, 2, 3) for a in (1 + 0j, 2 + 1j, 0.5j)]


def _rouche(qp, value, radius):
    return kp.rouche_isolates(qp.k, qp.log_a, complex(value), radius)


class TestRoucheDiskTest:
    @pytest.mark.parametrize("k, a, lo, hi",
                             [(k, a, -50, 50) for k, a in ACCEPTANCE_COMBOS]
                             + [(1, 1 + 0j, -1000, 1000)])
    def test_parity_with_winding_count(self, k, a, lo, hi):
        qp = qz.QuasiPolynomial(k, a)
        records = qz.zeros_in_index_range(qp, lo, hi, 1e-12, certify=False)
        radii = zeros_mod.isolation_radii(records)
        accepted = 0
        for rec, r in zip(records, radii):
            checked = qz.certify_record(qp, rec, r)
            assert checked.certified and checked.multiplicity == 1
            if _rouche(qp, rec.value, r):
                accepted += 1
                assert checked.isolation_radius == r
                winding = certify_mod._winding_certificate(qp, rec, r)
                assert winding.certified
                assert winding.isolation_radius == r
                assert winding.multiplicity == 1
        # the fast test carries nearly every record; only a few zeros near
        # the origin (k = 3, nu = -1) need the fallback
        assert accepted >= len(records) - 1

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (2, 1 + 0j), (3, 2 + 1j),
                                      (5, 0.5j), (8, 1 + 0j)])
    def test_sound_on_offset_disks(self, k, a):
        # centres a little off the zeros, radii up to several spacings: every
        # disk the test accepts must hold exactly one zero
        qp = qz.QuasiPolynomial(k, a)
        zeros = [rec.value for rec in qz.find_zeros_in_disk(qp, 8.0)]
        rng = random.Random(k)
        accepted = 0
        for _ in range(60):
            z = rng.choice(zeros) + cmath.rect(rng.uniform(0.0, 0.1), rng.uniform(-3.2, 3.2))
            r = rng.uniform(0.1, 4.0)
            if _rouche(qp, z, r):
                accepted += 1
                assert qz.winding_count(qp, qz.Circle(z, r)).count == 1
        assert accepted > 0

    def test_rejects_disk_holding_neighbours(self, qp11):
        z = qz.zeros_in_index_range(qp11, 5, 5, 1e-12, certify=False)[0].value
        assert qz.winding_count(qp11, qz.Circle(z, 7.0)).count > 1
        assert not _rouche(qp11, z, 7.0)

    def test_rejects_double_zero(self):
        qp = qz.QuasiPolynomial(1, complex(-math.e, 0))
        assert not _rouche(qp, 1 + 0j, 0.2)
        rec = qz.ZeroRecord(nu=None, value=1 + 0j, residual=0.0, seed=1 + 0j,
                            iterations=0)
        checked = qz.certify_record(qp, rec, 0.2)
        assert checked.certified
        assert checked.multiplicity == 2

    def test_double_zero_beyond_direct_range(self):
        # A = -e^150/150^150: k ln|l| = 752 at the double zero l = 150, past
        # the direct range, so its reading takes Newton on f' in scaled form
        qp = qz.QuasiPolynomial(150, complex(-math.exp(150.0 - 150.0 * math.log(150.0)), 0))
        rec = qz.ZeroRecord(nu=None, value=150 + 0j, residual=0.0, seed=150 + 0j,
                            iterations=0)
        checked = qz.certify_record(qp, rec, 0.2)
        assert checked.certified and checked.multiplicity == 2
        assert abs(checked.value - 150) < 1e-8

    @pytest.mark.parametrize("k", [37, 41, 150])
    def test_double_zero_reading_stops_at_rounding(self, k):
        # near l = k Newton on f' ends in steps that cycle around
        # 1e-14 |l| at rounding level; the reading stops once they no
        # longer shrink instead of running out of iterations
        qp = qz.QuasiPolynomial(k, complex(-math.exp(k - k * math.log(k)), 0))
        rng = random.Random(k)
        for _ in range(10):
            seed = complex(k + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            c = certify_mod._double_zero(qp, qz.Circle(complex(k, 0), 0.5), seed)
            assert c is not None and abs(c - k) < 1e-8 * k, seed

    def test_stale_value_refused_before_fast_test(self, qp11):
        rec = qz.zeros_in_index_range(qp11, 5, 5, 1e-12, certify=False)[0]
        stale = dataclasses.replace(rec, value=rec.value + 0.01)
        # the disk around the stale value does hold one zero, so only the
        # residual gate can refuse it
        assert _rouche(qp11, stale.value, 0.5)
        checked = qz.certify_record(qp11, stale, 0.5)
        assert not checked.certified

    @pytest.mark.parametrize("k", [1, 3])
    def test_large_height(self, k):
        qp = qz.QuasiPolynomial(k, 1 + 0j)
        rec, _trace = qz.fixed_point_refine(qp, 100000, 1e-13)
        assert 1e-12 < rec.residual < 1e-6
        assert _rouche(qp, rec.value, 1.0)
        assert qz.winding_count(qp, qz.Circle(rec.value, 1.0)).count == 1
        checked = qz.certify_record(qp, rec, 1.0)
        assert checked.certified and checked.isolation_radius == 1.0

    def test_no_overflow_beyond_direct_range(self):
        # Re l ~ 1500: e^l and l^k overflow unscaled
        qp = qz.QuasiPolynomial(200, 1 + 0j)
        rec = qz.zeros_in_index_range(qp, 200, 200, 1e-12, certify=False)[0]
        assert rec.value.real > 1000
        assert _rouche(qp, rec.value, 1.0)
        assert qz.winding_count(qp, qz.Circle(rec.value, 1.0)).count == 1

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, 1e4])
    def test_degenerate_radius_not_proven(self, qp11, radius):
        z = qz.zeros_in_index_range(qp11, 5, 5, 1e-12, certify=False)[0].value
        assert not _rouche(qp11, z, radius)
