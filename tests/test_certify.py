import cmath
import hashlib
import json
import math
import random
from collections import namedtuple

import pytest
from scipy.special import lambertw

import quasizeros as qz
from quasizeros import _kernels_py as kp, certify as certify_mod, zeros as zeros_mod
from quasizeros.errors import (
    DomainError,
    EscapedBasinError,
    MaxIterationsError,
    NumericalError,
    QuadratureStalledError,
    RecordOutsideContourError,
    SubdivisionStalledError,
    ZeroOnContourError,
)

from conftest import bisect_real_root


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
        assert rep.min_scaled_modulus > 1e-8

    def test_empty_disk(self, qp11):
        rep = qz.winding_count(qp11, qz.Circle(0j, 0.1))
        assert rep.count == 0

    def test_unsupported_contour_refused(self, qp11):
        with pytest.raises(DomainError, match="^unsupported contour type str$"):
            qz.winding_count(qp11, "x")

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
        # boxes that differ by far less than their distance to any zero
        # take different steps and give the same count
        counts = {qz.winding_count(qp11, qz.Rectangle(complex(-5 + d, 0.5 - d),
                                                     complex(8 - d, 2 * math.pi * 2.6 + d))).count
                  for d in (0.0, 1e-9, 1e-3, 0.1)}
        assert counts == {2}

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
        # the count is exact and takes no tolerance; the disk search's polish
        # tolerance must be positive
        with pytest.raises(TypeError):
            qz.winding_count(qp11, qz.Circle(0j, 0.1), -1.0)
        with pytest.raises(DomainError, match="tolerance must be positive"):
            qz.find_zeros_in_disk(qp11, 10.0, -1.0)

    @pytest.mark.parametrize("make", [
        lambda: qz.Circle(complex(math.nan, 0), 1.0),
        lambda: qz.Circle(0j, math.inf),
        lambda: qz.Circle(0j, math.nan),
        lambda: qz.Rectangle(complex(-math.inf, 0), 1 + 1j),
        lambda: qz.Rectangle(0j, complex(1, math.nan)),
        lambda: qz.Rectangle(complex(-1e308, 0), complex(1e308, 1)),
    ], ids=["circle-center-nan", "circle-radius-inf", "circle-radius-nan",
            "rectangle-corner-inf", "rectangle-corner-nan", "rectangle-width-inf"])
    def test_non_finite_contour_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    def test_side_along_the_strip_counts(self, qp11):
        # off the strip a step is proven on its path, from Re w at its two
        # ends: the box whose right side runs along the strip past its 6,024
        # zeros counts in a few steps at the full budget
        report = qz.winding_count(qp11, qz.Rectangle(complex(10, 1e3), complex(11, 1e5)))
        assert report.count == 6024 and report.segments_used <= 16

    def test_oversize_side_stalls(self, qp11, monkeypatch):
        # the side along the zero strip takes 3 steps after the bottom
        # side's 1; a budget of 3 leaves it 2, and the count is refused
        monkeypatch.setattr(certify_mod, "STEP_BUDGET", 3)
        sides = _counting(monkeypatch, kp, "line_segment_logderiv")
        with pytest.raises(QuadratureStalledError, match="step budget exhausted"):
            qz.winding_count(qp11, qz.Rectangle(complex(10, 1e3), complex(11, 1e5)))
        assert [(args[3], args[-1]) for args in sides] == [(11 + 1e3j, 3), (11 + 1e5j, 2)]

    @pytest.mark.parametrize("corner", [complex(20.0, 3.0), complex(40.0, 100.0)])
    def test_over_budget_refused_before_any_sum(self, monkeypatch, corner):
        # the budget is the whole contour's: each piece is handed what the
        # pieces before it left, and the piece that runs out refuses before
        # the turns are summed into a count.  The budget is one step short
        # of the first three pieces: three of the four sides for a complex
        # A, the whole upper half of the box for a real A
        box = qz.Rectangle(-corner, corner)
        sw, ne = box
        line = kp.line_segment_logderiv
        for a, path in [(2 + 1j, (sw, complex(ne.real, sw.imag), ne, complex(sw.real, ne.imag))),
                        (1 + 0j, (complex(ne.real, 0.0), ne, complex(sw.real, ne.imag),
                                  complex(sw.real, 0.0)))]:
            qp = qz.QuasiPolynomial(1, a)
            need = [line(1, qp.log_a, path[i], path[i + 1], zeros_mod.STEP_BUDGET)[1]
                    for i in range(3)]
            budget = sum(need) - 1
            monkeypatch.setattr(certify_mod, "STEP_BUDGET", budget)
            handed = []

            def counted(*args):
                handed.append(args[2:])
                return line(*args)

            monkeypatch.setattr(kp, "line_segment_logderiv", counted)
            with pytest.raises(QuadratureStalledError, match="step budget exhausted"):
                qz.winding_count(qp, box)
            assert handed == [(path[0], path[1], budget),
                              (path[1], path[2], budget - need[0]),
                              (path[2], path[3], budget - need[0] - need[1])]

    def test_floor_beyond_1e12_refuses_path_steps(self, qp11):
        # the rounding floor is checked at every step's start, path steps
        # too: beyond |l| of about 1e12 it exceeds any |1 + t|, so this box
        # is refused although e^l dominates on all of it and the endpoint
        # bound alone would cover it
        with pytest.raises(ZeroOnContourError, match="rounding floor"):
            qz.winding_count(qp11, qz.Rectangle(1e12 + 1e12j, 2e12 + 2e12j))

    def test_just_inside_budget_counts(self, qp11, monkeypatch):
        # the budget bounds the steps of the whole contour, all four sides
        box = qz.Rectangle(complex(-3, -3), complex(3, 3))
        steps = qz.winding_count(qp11, box).segments_used
        monkeypatch.setattr(certify_mod, "STEP_BUDGET", steps)
        report = qz.winding_count(qp11, box)
        assert report.count == 1 and report.segments_used == steps
        monkeypatch.setattr(certify_mod, "STEP_BUDGET", steps - 1)
        with pytest.raises(QuadratureStalledError, match="step budget exhausted"):
            qz.winding_count(qp11, box)


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

    def test_two_real_zeros_labelled_by_branch(self):
        # -W_0(-1/3) is unnamed; -W_1(-1/3) read below the cut is the
        # ladder's nu = -1
        qp = qz.QuasiPolynomial(1, -3 + 0j)
        real = [r for r in qz.find_zeros_in_disk(qp, 3.0)
                if abs(r.value.imag) < 1e-9]
        assert sorted((r.value.real, r.nu is None) for r in real) == [
            (pytest.approx(0.619061286), True), (pytest.approx(1.512134552), False)]
        named = next(r for r in real if r.nu is not None)
        assert named.nu == -1
        assert named.value == qz.zeros_in_index_range(qp, -1, -1)[0].value

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
        # labelled by W_0's partner branch, as the ladder's nu = -1
        assert recs[0].nu == -1

    @pytest.mark.parametrize("eps", [1e-3, -1e-3])
    def test_joined_ladder_record_certifies_at_the_joint_radius(self, eps):
        # nu = -1 beside its unnamed twin 0.089 away: alone on the ladder its
        # disk holds both zeros; joined with the disk's twin it certifies at
        # half their distance, and no other record is touched
        qp = qz.QuasiPolynomial(1, complex(-math.e * (1 + eps), 0.0))
        ladder = qz.zeros_in_index_range(qp, -3, 3)
        twin = [r for r in qz.find_zeros_in_disk(qp, 5.0) if r.nu is None]
        assert [r.nu for r in ladder if not r.certified] == [-1]
        joined = certify_mod.join_disk(qp, ladder, twin, range(-3, 4))
        assert joined[len(ladder):] == twin
        for before, after in zip(ladder, joined):
            if before.nu != -1:
                assert after is before
        after = next(r for r in joined if r.nu == -1)
        assert after.certified
        assert after.isolation_radius == pytest.approx(0.5 * abs(after.value - twin[0].value))
        assert after.isolation_radius == pytest.approx(0.0447, abs=1e-4)

    def test_principal_zero_beside_the_cut(self):
        # z_2 = -0.4933 lies on the cut, where W_0 was once seeded by a
        # real Log(1 + z) and the listed sum fell one short of the count
        qp = qz.QuasiPolynomial(3, complex(-0.3087231714916467, 0.0))
        recs = qz.find_zeros_in_disk(qp, 4.2)
        assert len(recs) == qz.winding_count(qp, qz.Circle(0j, 4.2)).count == 4
        assert [r.nu for r in recs] == [-1, None, None, None]
        assert recs[3].value == pytest.approx(recs[0].value.conjugate(), abs=1e-12)

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
        # a square over the step budget would be over it at every wider
        # square too, so the search spends one budget and reports it.  The
        # r = 10 square takes 10 steps round its four sides for A = -3 + i,
        # and 6 over its upper half for A = 1; its branch walk, 5 branches
        # per root, stays within either budget
        for a, budget in [(-3 + 1j, 8), (1 + 0j, 5)]:
            monkeypatch.undo()
            monkeypatch.setattr(certify_mod, "STEP_BUDGET", budget)
            counts = _counting(monkeypatch, certify_mod, "winding_count")
            with pytest.raises(QuadratureStalledError, match="step budget exhausted"):
                qz.find_zeros_in_disk(qz.QuasiPolynomial(1, a), 10.0)
            assert len(counts) == 1

    def test_moved_square_checks_its_edges(self, qp11, monkeypatch):
        # the first square is counted without _edge_clear; a square moved
        # off a zero on its edge is checked first
        clear = _counting(monkeypatch, certify_mod, "_edge_clear")
        assert len(qz.find_zeros_in_disk(qp11, 40.0)) == 13
        assert clear == []
        winding = certify_mod.winding_count
        calls = []

        def on_first_square(qp, contour):
            calls.append(contour)
            if len(calls) == 1:
                raise ZeroOnContourError("a zero on the first square")
            return winding(qp, contour)

        monkeypatch.setattr(certify_mod, "winding_count", on_first_square)
        recs = qz.find_zeros_in_disk(qp11, 40.0)
        assert len(recs) == 13 and all(r.certified for r in recs)
        assert len(clear) == 4
        assert calls[1].corner_max.real > calls[0].corner_max.real

    def test_square_near_a_zero_is_passed_over(self, qp11, monkeypatch):
        # a moved square whose edges are not clear is neither walked nor
        # counted: the search goes on to the next square
        winding = certify_mod.winding_count
        calls = []

        def on_first_square(qp, contour):
            calls.append(contour)
            if len(calls) == 1:
                raise ZeroOnContourError("a zero on the first square")
            return winding(qp, contour)

        edges = []

        def second_square_blocked(qp, z0, z1):
            edges.append(z0)
            return len(edges) > 1

        monkeypatch.setattr(certify_mod, "winding_count", on_first_square)
        monkeypatch.setattr(certify_mod, "_edge_clear", second_square_blocked)
        walks = _counting(monkeypatch, certify_mod, "_box_zeros")
        recs = qz.find_zeros_in_disk(qp11, 40.0)
        assert len(recs) == 13 and all(r.certified for r in recs)
        squares = [qz.Rectangle(complex(xmin, ymin), complex(xmax, ymax))
                   for xmin, xmax, ymin, ymax in (certify_mod._square(40.0, a) for a in range(3))]
        # the square of attempt 1 fails at its first edge, attempt 2 clears all four
        assert edges == [squares[1].corner_min, squares[2].corner_min,
                         complex(squares[2].corner_max.real, squares[2].corner_min.imag),
                         squares[2].corner_max,
                         complex(squares[2].corner_min.real, squares[2].corner_max.imag)]
        assert [box for _qp, box, _tol in walks] == [squares[0], squares[2]]
        assert [c for c in calls if isinstance(c, qz.Rectangle)] == [squares[0], squares[2]]

    def test_nine_squares_on_zeros_stop_the_search(self, monkeypatch, capsys):
        # after nine squares that each meet the zero set the search gives
        # up with SubdivisionStalledError, which origin exits 3 with
        from quasizeros.cli import main

        squares = []

        def on_every_square(qp, contour):
            squares.append(contour)
            raise ZeroOnContourError("a zero on the square")

        monkeypatch.setattr(certify_mod, "winding_count", on_every_square)
        monkeypatch.setattr(certify_mod, "_edge_clear", lambda qp, z0, z1: True)
        with pytest.raises(SubdivisionStalledError,
                           match="^could not place the outer square off the zero set$"):
            qz.find_zeros_in_disk(qz.QuasiPolynomial(1, 1 + 0j), 2.0)
        assert len(squares) == 9
        assert main(["origin", "--k", "1", "--a", "1+0i", "--radius", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["type"] == "SubdivisionStalledError"


class TestSharedEdges:
    """The disk search's square gets one winding count, the count a fresh
    winding count of the same rectangle gives."""

    def test_outer_square_report_matches_fresh_winding_count(self, qp11):
        (values, multiplicities), records, count = certify_mod._outer_cell(qp11, 40.0, 1e-12)
        xmin, xmax, ymin, ymax = certify_mod._square(40.0, 0)
        fresh = qz.winding_count(qp11, qz.Rectangle(complex(xmin, ymin),
                                                    complex(xmax, ymax)))
        assert count == fresh.count == len(values) == len(records) == 13
        assert multiplicities == [1] * 13

    def test_disk_search_work_bound(self, monkeypatch):
        # the square's one count: one tracking call per piece, the three of
        # its upper half for a real A, its four sides otherwise
        lines = _counting(monkeypatch, certify_mod.kernels, "line_segment_logderiv")
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        for a, pieces in [(1 + 0j, 3), (2 + 1j, 4)]:
            del lines[:], counts[:]
            recs = qz.find_zeros_in_disk(qz.QuasiPolynomial(1, a), 40.0)
            assert len(recs) == 13 and all(r.certified for r in recs)
            assert len(lines) == pieces and len(counts) == 1


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


def _lambert_count(qp, box):
    """The zeros inside the rectangle by scipy's Lambert W (_lambert_oracle
    over the disk through its farthest corner), with multiplicity; None
    when a value lies within 1e-9 |l| of the edge, where scipy's value
    cannot place it."""
    lo, hi = box.corner_min, box.corner_max
    far = max(abs(complex(x, y)) for x in (lo.real, hi.real) for y in (lo.imag, hi.imag))
    count = 0
    for v, mult in _lambert_oracle(qp, far):
        edge = min(abs(v.real - lo.real), abs(v.real - hi.real),
                   abs(v.imag - lo.imag), abs(v.imag - hi.imag))
        if edge < 1e-9 * max(1.0, abs(v)):
            return None
        count += mult * box.contains(v)
    return count


class TestGaussKronrod:
    """The winding count against the closed-form count of scipy's Lambert
    W, and the work it takes on the criterion-02 box and in the disk
    searches whose branch values meet at the branch point or lie on the
    cut."""

    def test_count_matches_branch_proof(self):
        # the closed-form count takes no contour walk: an independent oracle
        rng = random.Random(1501)
        decided = 0
        for _ in range(200):
            k = rng.randint(1, 10)
            a = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
            x0, y0 = rng.uniform(-30, 15), rng.uniform(-300, 240)
            box = qz.Rectangle(complex(x0, y0),
                               complex(x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 60)))
            qp = qz.QuasiPolynomial(k, a)
            count = _lambert_count(qp, box)
            if count is not None:
                decided += 1
                assert qz.winding_count(qp, box).count == count, (k, a, box)
        assert decided == 200

    def test_criterion_02_box_work(self, qp11):
        box = qz.Rectangle(complex(-12, -2 * math.pi * 20.6), complex(12, 2 * math.pi * 20.6))
        report = qz.winding_count(qp11, box)
        assert report.count == 41 and report.segments_used <= 100

    @pytest.mark.parametrize("a, radius, bound", [(complex(-math.e, 0), 1.5, 64),
                                                  (-3 + 0j, 40.0, 48)],
                             ids=["branch-point", "cut"])
    def test_fallback_search_work(self, a, radius, bound, monkeypatch):
        # the square's count and the certificates' circle counts together
        # take at most `bound` tracking steps
        qp = qz.QuasiPolynomial(1, a)
        inner = certify_mod.winding_count
        steps = []

        def counted(*args):
            report = inner(*args)
            steps.append(report.segments_used)
            return report

        monkeypatch.setattr(certify_mod, "winding_count", counted)
        recs = qz.find_zeros_in_disk(qp, radius)
        assert recs and all(r.certified for r in recs)
        assert steps and sum(steps) <= bound


class TestTracking:
    """A winding count walks the contour in proven steps: exact, with no
    tolerance, and long steps away from the zeros."""

    def test_large_square_counts_in_few_steps(self, qp11):
        # the cost follows the strip crossings, not the perimeter
        box = qz.Rectangle(complex(-1e6, -1e6), complex(1e6, 1e6))
        report = qz.winding_count(qp11, box)
        assert report.count == 318311 and report.segments_used <= 200

    def test_edge_through_ladder_zero_refused(self, qp11):
        z = qz.zeros_in_index_range(qp11, 7, 7, 1e-12)[0].value
        for box in (qz.Rectangle(complex(-10, 0.5), complex(10, z.imag)),
                    qz.Rectangle(complex(z.real, 0.5), complex(10, 60))):
            with pytest.raises(ZeroOnContourError, match="rounding floor"):
                qz.winding_count(qp11, box)

    @pytest.mark.parametrize("k, a", [(1, 1 + 0j), (3, 2 + 1j), (2, -40 + 0j), (1, 1e3 + 0j),
                                      (3, 1e6 + 0j)])
    def test_contours_at_the_origin(self, k, a):
        # f(0) = 1: a circle centred at 0, one through 0 and rectangles with
        # an edge through 0 are tracked there by the direct bound
        qp = qz.QuasiPolynomial(k, a)
        zeros = [v for v, _ in _lambert_oracle(qp, 3.0)]
        for contour in (qz.Circle(0j, 0.1), qz.Circle(0.4 + 0j, 0.4),
                        qz.Rectangle(complex(0, -1), complex(2, 1)),
                        qz.Rectangle(complex(-1, -0.5), complex(0, 0.5))):
            assert qz.winding_count(qp, contour).count == sum(
                contour.contains(v) for v in zeros), contour

    @pytest.mark.parametrize("k, a", [(1, 0.1 + 0j), (2, -40 + 0j), (3, 2 + 1j)])
    def test_corner_at_the_origin(self, k, a):
        # a side that ends at 0 from where e^l dominates could be proven on
        # its path in one step, but w has no value at 0: it ends by the
        # direct bound instead; a real zero on a side is refused
        qp = qz.QuasiPolynomial(k, a)
        zeros = [v for v, _ in _lambert_oracle(qp, 10.0)]
        for x, y in ((5, 5), (-5, 5), (-5, -5), (5, -5)):
            box = qz.Rectangle(complex(min(x, 0), min(y, 0)), complex(max(x, 0), max(y, 0)))
            if any(abs(v.imag) < 1e-9 and 0 <= v.real / x <= 1 for v in zeros):
                with pytest.raises(ZeroOnContourError):
                    qz.winding_count(qp, box)
            else:
                assert qz.winding_count(qp, box).count == sum(
                    box.contains(v) for v in zeros), box


#: sha256 (first 16 hex digits) of the winding-count reports of
#: TestPinnedWindings._cases, one line per contour: (count,
#: min_scaled_modulus.hex(), segments_used), or the error type's name
PINNED_WINDINGS = "c2746da9618e5796"


class TestPinnedWindings:
    """Every field of every winding-count report, bit for bit: seeded
    contours at k from 1 to 25 and |A| from 1e-300 to 1e308 (1 + i), some
    under a lowered step budget."""

    KS = (1, 2, 3, 5, 10, 25)
    COEFFICIENTS = (1e-300 + 0j, cmath.rect(1e-6, 2.0), 1 + 0j, -3 + 0j, 2 + 1j, 1e6j,
                    -1e300 + 0j, complex(1e308, 1e308))

    @staticmethod
    def _contours(qp, rng):
        """Rectangles across the zero strip up to |Im l| of about 2,000,
        squares about the origin that cross |l| = 0.5 (where the tracker
        leaves its direct bound), circles on the strip and about the origin,
        and a rectangle with a corner on a ladder zero."""
        k, lna = qp.k, qp.log_a.real
        out = []
        for _ in range(3):
            y0 = rng.uniform(-2000.0, 2000.0)
            height = 10 ** rng.uniform(0.0, 2.5)
            x = lna + k * math.log(max(abs(y0), abs(y0 + height), 1.0))
            out.append(qz.Rectangle(complex(x - rng.uniform(1.0, 40.0), y0),
                                    complex(x + rng.uniform(1.0, 40.0), y0 + height)))
        for _ in range(2):
            c = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            s = 10 ** rng.uniform(-0.5, 0.7)
            out.append(qz.Rectangle(c - complex(s, s), c + complex(s, s)))
        y = rng.uniform(-300.0, 300.0)
        x = lna + k * math.log(max(abs(y), 1.0)) + rng.uniform(-5.0, 5.0)
        out.append(qz.Circle(complex(x, y), 10 ** rng.uniform(-0.5, 1.3)))
        out.append(qz.Circle(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                             10 ** rng.uniform(-0.5, 1.0)))
        try:
            z = qz.zeros_in_index_range(qp, 2, 2, 1e-12, certify=False)[0].value
        except NumericalError:
            return out
        w, h = rng.uniform(0.5, 20.0), rng.uniform(0.5, 60.0)
        out.append(qz.Rectangle(complex(z.real - w, z.imag - h), z + h * 1j))
        return out

    def _cases(self):
        """(qp, contour, step budget); one contour in ten gets 1 to 6 steps."""
        rng = random.Random(3100)
        for k in self.KS:
            for a in self.COEFFICIENTS:
                qp = qz.QuasiPolynomial(k, a)
                for contour in self._contours(qp, rng):
                    budget = (rng.randint(1, 6) if rng.random() < 0.1
                              else zeros_mod.STEP_BUDGET)
                    yield qp, contour, budget

    def test_reports(self, monkeypatch):
        lines = []
        for qp, contour, budget in self._cases():
            monkeypatch.setattr(certify_mod, "STEP_BUDGET", budget)
            try:
                r = qz.winding_count(qp, contour)
            except (ZeroOnContourError, QuadratureStalledError) as exc:
                lines.append(type(exc).__name__)
            else:
                lines.append(repr((r.count, r.min_scaled_modulus.hex(), r.segments_used)))
        assert len(lines) == 384
        assert (lines.count("ZeroOnContourError"), lines.count("QuadratureStalledError")) \
            == (39, 51)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == PINNED_WINDINGS

    @pytest.mark.parametrize("box, report", [
        ((-1e6 - 1e6j, 1e6 + 1e6j), (318311, 0.9367582668017868, 6)),
        ((10 + 1e3j, 11 + 1e5j), (6024, 0.7907129412979003, 8)),
        ((complex(-12, -129.43), complex(12, 129.43)), (41, 0.798656525824964, 5)),
    ], ids=["square-1e6", "strip-side-1e5", "criterion-12-box"])
    def test_tall_boxes(self, qp11, box, report):
        assert qz.winding_count(qp11, qz.Rectangle(*box)) == report


def _scaled_modulus(qp, lam):
    """|f| / max(|e^l|, |A l^k|) by direct complex arithmetic."""
    e, p = cmath.exp(lam), qp.a * lam ** qp.k
    return abs(e + p) / max(abs(e), abs(p))


def _four_sides(qp, box):
    """The box's count from its four sides' turns, summed here."""
    sw, ne = box
    corners = (sw, complex(ne.real, sw.imag), ne, complex(sw.real, ne.imag), sw)
    total = sum(kp.line_segment_logderiv(qp.k, qp.log_a, z0, z1, zeros_mod.STEP_BUDGET)[0]
                for z0, z1 in zip(corners, corners[1:]))
    return round(total / (2.0 * math.pi))


class TestHalfContour:
    """For a real A, a box symmetric about the real axis is counted over
    its upper half, the turn doubled: the count its four sides give, on
    seeded boxes at k from 1 to 25 and real A of both signs with |A| from
    1e-300 to 1e308.  A complex A's box keeps its four sides."""

    KS = (1, 2, 3, 5, 10, 25)

    @staticmethod
    def _coefficients(k, rng):
        return ([1e-300 + 0j, -1e-300 + 0j, 1 + 0j, -3 + 0j, 1e308 + 0j, -1e308 + 0j,
                 complex(-math.exp(k) / k ** k, 0.0)]
                + [complex(sign * 10 ** rng.uniform(-300.0, 308.0), 0.0) for sign in (1, -1)]
                + [2 + 1j, cmath.rect(10 ** rng.uniform(-300.0, 300.0), rng.uniform(-3.0, 3.0))])

    @staticmethod
    def _boxes(qp, rng):
        """Squares about the origin with half-side below 0.5, boxes across
        the zero strip up to |Im l| of about 2,000, and a tall box up to
        |Im l| of about 1e5 whose sides run near the strip, all symmetric
        about the real axis."""
        k, lna = qp.k, qp.log_a.real
        out = [qz.Rectangle(complex(-s, -s), complex(s, s))
               for s in (10 ** rng.uniform(-3.0, -0.31) for _ in range(2))]
        for y, pad in ((10 ** rng.uniform(0.0, 3.3), 40.0), (10 ** rng.uniform(3.0, 5.0), 5.0)):
            x = lna + k * math.log(max(y, abs(lna), 1.0))
            out.append(qz.Rectangle(complex(x - rng.uniform(1.0, pad), -y),
                                    complex(x + rng.uniform(1.0, pad), y)))
        return out

    def test_counts_match_four_sides(self):
        rng = random.Random(3400)
        counted = 0
        for k in self.KS:
            for a in self._coefficients(k, rng):
                qp = qz.QuasiPolynomial(k, a)
                for box in self._boxes(qp, rng):
                    try:
                        want = _four_sides(qp, box)
                    except ZeroOnContourError:
                        with pytest.raises(ZeroOnContourError):
                            qz.winding_count(qp, box)
                        continue
                    assert qz.winding_count(qp, box).count == want, (k, a, box)
                    counted += want != 0
        assert counted >= 150

    @pytest.mark.parametrize("k, a, bracket", [(1, 1.0, (-1.0, 0.0)), (1, -3.0, (0.5, 1.0)),
                                               (1, -3.0, (1.0, 2.0)), (3, 1.0, (-1.0, -0.5))])
    def test_zero_on_contour_refused(self, k, a, bracket):
        # a box whose left or right side runs through a real zero, or whose
        # top runs through a zero off the axis, is refused by both counts
        qp = qz.QuasiPolynomial(k, complex(a, 0.0))
        x = bisect_real_root(lambda x: math.exp(x) + a * x ** k, *bracket)
        z = qz.zeros_in_index_range(qp, 2, 2, 1e-12)[0].value
        for box in (qz.Rectangle(complex(x, -3.0), complex(x + 2.0, 3.0)),
                    qz.Rectangle(complex(x - 2.0, -3.0), complex(x, 3.0)),
                    qz.Rectangle(complex(z.real - 5.0, -abs(z.imag)),
                                 complex(z.real + 5.0, abs(z.imag)))):
            with pytest.raises(ZeroOnContourError):
                _four_sides(qp, box)
            with pytest.raises(ZeroOnContourError):
                qz.winding_count(qp, box)

    @pytest.mark.parametrize("a, box", [
        (1 + 0j, (complex(-12, -129.43), complex(12, 129.43))),
        (-3 + 0j, (-40 - 100j, 40 + 100j)),
        (2 + 1j, (-40 - 100j, 40 + 100j)),
        (1 + 0j, (complex(-12, -129.43), complex(12, 130.0))),
    ], ids=["real-A", "negative-A", "complex-A", "asymmetric"])
    def test_pieces(self, monkeypatch, a, box):
        # the count is handed the upper half's three pieces, from the real
        # axis and back to it, only for a real A and a symmetric box, and
        # reports their steps and smallest scaled |f|
        qp = qz.QuasiPolynomial(1, a)
        sw, ne = box
        if a.imag == 0 and sw.imag == -ne.imag:
            path = (complex(ne.real, 0.0), ne, complex(sw.real, ne.imag), complex(sw.real, 0.0))
        else:
            path = (sw, complex(ne.real, sw.imag), ne, complex(sw.real, ne.imag), sw)
        tracked = [kp.line_segment_logderiv(1, qp.log_a, z0, z1, zeros_mod.STEP_BUDGET)
                   for z0, z1 in zip(path, path[1:])]
        handed = _counting(monkeypatch, kp, "line_segment_logderiv")
        report = qz.winding_count(qp, qz.Rectangle(*box))
        assert [args[2:4] for args in handed] == list(zip(path, path[1:]))
        assert report.segments_used == sum(used for _turn, used, _mod in tracked)
        assert report.min_scaled_modulus == min(mod for _turn, _used, mod in tracked)
        assert report.count == _four_sides(qp, qz.Rectangle(*box))

class TestPathSteps:
    """Steps proven on their path change no count: seeded rectangles that
    pass 1e-3, 1e-6 or 1e-9 from a zero, or whose sides run along the zero
    strip that close to one, count what scipy's Lambert W lists inside."""

    @staticmethod
    def _coefficients(k, rng):
        return ([cmath.rect(10 ** rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi)),
                 complex(-10 ** rng.uniform(-2, 2), 0.0)]
                + [complex(-math.exp(k) / k ** k * (1 + eps), 0.0)
                   for eps in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3)])

    @staticmethod
    def _near_box(rng, z0, off, along):
        """A rectangle with one edge `off` from z0: a vertical side along
        the strip, 40 to 400 tall, or any side of a box up to 30 x 100."""
        sgn = rng.choice((-1.0, 1.0))
        if along:
            x, w = z0.real + sgn * off, rng.uniform(0.5, 5.0)
            lo, hi = z0.imag - rng.uniform(20, 200), z0.imag + rng.uniform(20, 200)
            return (qz.Rectangle(complex(x - w, lo), complex(x, hi)) if sgn > 0
                    else qz.Rectangle(complex(x, lo), complex(x + w, hi)))
        w, h = 10 ** rng.uniform(-1, 1.5), 10 ** rng.uniform(-1, 2)
        x0, y0 = z0.real - rng.uniform(0, w), z0.imag - rng.uniform(0, h)
        side = rng.randrange(4)
        if side == 0:
            x0 = z0.real + sgn * off
        elif side == 1:
            x0 = z0.real - w + sgn * off
        elif side == 2:
            y0 = z0.imag + sgn * off
        else:
            y0 = z0.imag - h + sgn * off
        return qz.Rectangle(complex(x0, y0), complex(x0 + w, y0 + h))

    @pytest.mark.parametrize("k", [1, 2, 3, 25])
    def test_near_zero_counts_match_the_oracle(self, k):
        # a count is refused only where the edge's nearest point to the zero
        # has scaled |f| below 1e-9, a double or near-double zero passed
        # within the rounding floor; every other count equals the oracle's
        rng = random.Random(2400 + k)
        refused = 0
        for a in self._coefficients(k, rng):
            qp = qz.QuasiPolynomial(k, a)
            zeros = _lambert_oracle(qp, 400.0)
            for trial in range(8):
                z0, _mult = rng.choice(zeros)
                off = rng.choice((1e-3, 1e-6, 1e-9))
                box = self._near_box(rng, z0, off, trial % 2)
                lo, hi = box
                nearest = complex(min(max(z0.real, lo.real), hi.real),
                                  min(max(z0.imag, lo.imag), hi.imag))
                if box.contains(z0):  # the nearest point of the edge
                    gaps = [z0.real - lo.real, hi.real - z0.real,
                            z0.imag - lo.imag, hi.imag - z0.imag]
                    gap = min(gaps)
                    nearest = z0 + (-gap, gap, -gap * 1j, gap * 1j)[gaps.index(gap)]
                far = max(abs(complex(x, y)) for x in (lo.real, hi.real)
                          for y in (lo.imag, hi.imag))
                want = sum(m for v, m in _lambert_oracle(qp, far) if box.contains(v))
                try:
                    got = qz.winding_count(qp, box).count
                except ZeroOnContourError:
                    assert _scaled_modulus(qp, nearest) < 1e-9, (k, a, box)
                    refused += 1
                    continue
                assert got == want, (k, a, box, off)
        assert refused <= 4

    @pytest.mark.parametrize("k", [1, 2, 3, 25])
    def test_edge_through_a_zero_refused(self, k):
        # an edge through a listed zero, horizontal or vertical, still
        # raises: no step, path or disk, can pass it
        rng = random.Random(2410 + k)
        for a in self._coefficients(k, rng):
            qp = qz.QuasiPolynomial(k, a)
            z0, _mult = rng.choice(_lambert_oracle(qp, 400.0))
            w, h = rng.uniform(0.5, 20), rng.uniform(0.5, 60)
            for box in (qz.Rectangle(complex(z0.real - w, z0.imag - h), z0 + h * 1j),
                        qz.Rectangle(z0 - w, complex(z0.real + w, z0.imag + h))):
                with pytest.raises(ZeroOnContourError):
                    qz.winding_count(qp, box)


class TestEnumeration:
    """The disk search lists the zeros by Lambert-W branch and checks the
    list against the outer square's one count; a list that fails the count
    identity raises SubdivisionStalledError."""

    def test_one_count_and_no_subdivision(self, qp11, monkeypatch):
        # one rectangle count, no circle count: every record certifies by
        # Rouche
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        recs = qz.find_zeros_in_disk(qp11, 40.0)
        assert len(recs) == 13 and all(r.certified for r in recs)
        assert [type(args[1]) for args in counts] == [qz.Rectangle]

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
        radii = zeros_mod.isolation_radii([v for v, _ in oracle])
        for (want, mult), radius_want in zip(oracle, radii):
            rec = min(recs, key=lambda r: abs(r.value - want))
            assert abs(rec.value - want) <= 1e-12 * max(1.0, abs(want))
            assert rec.certified and rec.multiplicity == mult
            assert rec.isolation_radius == pytest.approx(radius_want, abs=1e-9)

    def test_labels_name_the_ladder_zero(self):
        # a disk zero labelled nu is the zero the index range search gives
        # nu, and an unlabelled one is -k W_0(z_j) or -W_-1(z_0) (scipy)
        for k, a, radius in _label_sweep():
            qp = qz.QuasiPolynomial(k, a)
            unnamed = [-k * complex(lambertw(zeros_mod._lambert_root(qp, j)[0], m))
                       for j, m in [(j, 0) for j in range(k)] + [(0, -1)]]
            for rec in qz.find_zeros_in_disk(qp, radius):
                tol = 1e-8 * max(1.0, abs(rec.value))
                if rec.nu is None:
                    assert min(abs(rec.value - v) for v in unnamed) <= tol, (k, a, radius, rec)
                else:
                    want = qz.zeros_in_index_range(qp, rec.nu, rec.nu)[0].value
                    assert abs(rec.value - want) <= tol, (k, a, radius, rec)

    def test_simple_zeros_evaluated_once(self, qp11, monkeypatch):
        # each simple zero costs its polish's evaluations, one _cofactor per
        # iterate, and no more: the certificate takes the polish's last one,
        # not certify_record's, and no residual is formed again
        records = _counting(monkeypatch, certify_mod, "certify_record")
        residuals = _counting(monkeypatch, kp, "residual_cofactor")
        polish, cofactor = kp.newton_polish_list, kp._cofactor
        iterations = []
        evaluations = []
        polishing = []

        def counted(*args):
            polishing.append(True)
            try:
                columns = polish(*args)
            finally:
                polishing.pop()
            iterations.extend(columns[2])
            return columns

        def counted_cofactor(*args):
            if polishing:
                evaluations.append(args)
            return cofactor(*args)

        monkeypatch.setattr(kp, "newton_polish_list", counted)
        monkeypatch.setattr(kp, "_cofactor", counted_cofactor)
        recs = qz.find_zeros_in_disk(qp11, 100.0)
        assert len(recs) == 33 and all(r.certified for r in recs)
        assert records == [] and residuals == []
        assert len(evaluations) == sum(it + 1 for it in iterations)

    @pytest.mark.parametrize("tamper", ["drop", "duplicate"])
    def test_broken_list_falls_back(self, qp11, tamper, monkeypatch):
        # a list that fails the count identity stops the search, naming the
        # count and the listed sum; the walk of the padded square is broken
        # at a zero inside the square
        branch_zeros = certify_mod._branch_zeros

        def broken(*args):
            found = branch_zeros(*args)
            i = next(i for i, value in enumerate(found[1]) if abs(value) < 10.0)
            return [col[:i] + col[i + 1:] if tamper == "drop" else col + col[i:i + 1]
                    for col in found]

        monkeypatch.setattr(certify_mod, "_branch_zeros", broken)
        listed = 2 if tamper == "drop" else 4
        with pytest.raises(SubdivisionStalledError,
                           match=f"^the square's count is 3, the listed multiplicities "
                                 f"add up to {listed}, and the uncertified records are "):
            qz.find_zeros_in_disk(qp11, 10.0)

    @pytest.mark.parametrize("radius, label, error, message", [
        (0.5, r"\(j, m\) = \(0, 0\)", MaxIterationsError, "Newton refinement did not converge"),
        (10.0, "nu = 1", MaxIterationsError, "Newton refinement did not converge"),
        (0.5, r"\(j, m\) = \(0, 0\)", EscapedBasinError, "Newton left the basin"),
        (10.0, "nu = 1", EscapedBasinError, "Newton left the basin"),
    ], ids=["unnamed", "indexed", "unnamed-escape", "indexed-escape"])
    def test_polish_failure_names_its_zero(self, qp11, radius, label, error, message,
                                           monkeypatch):
        # a polish that fails inside the walk, by leaving its basin or
        # otherwise, raises its own error type naming the zero as the ladder
        # does: by index, or by (j, m) for -W_0(1) = -0.567, which no index
        # names; the one polish call is not run again without the seed
        calls = []

        def failing(qp, seeds, tolerance, max_iterations=zeros_mod.NEWTON_ITERATIONS):
            calls.append(seeds)
            return [], [], [], [], error(message)

        monkeypatch.setattr(zeros_mod, "_newton_polish", failing)
        with pytest.raises(error, match=f"^refinement failed for {label}: {message}$"):
            qz.find_zeros_in_disk(qp11, radius)
        assert len(calls) == 1


def _label_sweep():
    """210 seeded disks, k = 1..25: complex A, real A < 0, and
    A = -e^k/k^k (1 + eps), which puts z_(k-1) at or beside the Lambert-W
    branch point -1/e."""
    rng = random.Random(2021)
    disks = []
    for i in range(210):
        k = rng.randint(1, 25)
        if i % 3 == 0:
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        elif i % 3 == 1:
            a = complex(-10 ** rng.uniform(-3, 3), 0.0)
        else:
            eps = (0.0, 1e-9, -1e-9, 1e-3, -1e-3)[i // 3 % 5]
            a = complex(-math.e ** k / k ** k * (1 + eps), 0.0)
        disks.append((k, a, rng.uniform(2, 40)))
    return disks


_Row = namedtuple("_Row", "nu value residual seed iterations cofactor multiplicity")


def _rows(columns):
    """The zeros of a branch walk's columns, one _Row each."""
    return list(map(_Row._make, zip(*columns)))


def _rect_cell(rect):
    lo, hi = rect.corner_min, rect.corner_max
    return lo.real, hi.real, lo.imag, hi.imag


class TestBranchProof:
    """The Lambert-W branch listing of the disk search: its multiplicities
    add up to the winding count, the branch point and the cut are listed
    like any other z_j, and a completeness check counts by tracking."""

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
        for k, a, box in boxes:
            qp = qz.QuasiPolynomial(k, a)
            found = certify_mod._branch_zeros(qp, _rect_cell(box))
            assert all(box.contains(value) for value in found[1])
            assert len({len(col) for col in found}) == 1, (k, a, box)
            assert sum(found[6]) == qz.winding_count(qp, box).count, (k, a, box)

    @pytest.mark.parametrize("a, radius", [(complex(-math.e, 0), 1.5), (-3 + 0j, 6.0)],
                             ids=["branch-point", "cut"])
    def test_fallback_takes_one_count(self, a, radius, monkeypatch):
        # A = -e puts z_0 at the branch point; A = -3 puts it on the cut:
        # listed like any other, with the one rectangle count
        qp = qz.QuasiPolynomial(1, a)
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        recs = qz.find_zeros_in_disk(qp, radius)
        assert recs and all(r.certified for r in recs)
        assert sum(isinstance(args[1], qz.Rectangle) for args in counts) == 1
        box = qz.Rectangle(complex(-radius, -radius), complex(radius, radius))
        ok, detail = qz.certify_completeness(qp, box, recs)
        assert ok and detail["contour_count"] == sum(r.multiplicity for r in recs)

    def test_completeness_reports_branch_proof(self, qp11, monkeypatch):
        # one tracking count, and a report of the counts and the failures
        # only: no proof kind, no quadrature figures
        recs = qz.zeros_in_index_range(qp11, 1, 10, 1e-12)
        box = qz.Rectangle(complex(-10, 5.0), complex(10, recs[-1].value.imag + math.pi))
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        ok, detail = qz.certify_completeness(qp11, box, recs)
        assert ok and detail == {"contour_count": 10, "expected_count": 10,
                                 "record_failures": []}
        assert len(counts) == 1
        ok, detail = qz.certify_completeness(qp11, box, recs[:-1])
        assert not ok and detail["contour_count"] == 10 and detail["expected_count"] == 9

    def test_branch_rule_matches_scipy(self):
        # the listing walks |m| <= Y / (2 pi k) + 1 only: lambert_w(z, m) is
        # scipy's branch m, and |Im W_m| > 2 (|m| - 1) pi for |m| >= 2
        rng = random.Random(1302)
        for _ in range(2000):
            z = cmath.rect(math.exp(rng.uniform(-12, 12)), rng.uniform(-math.pi, math.pi))
            for m in range(-6, 7):
                w = complex(lambertw(z, m))
                assert abs(kp.lambert_w(z, m) - w) <= 1e-12 * abs(w), (z, m)
                if abs(m) >= 2:
                    assert abs(w.imag) > 2 * (abs(m) - 1) * math.pi, (z, m)

    def test_refused_on_the_cut(self):
        # A = -3 puts z_0 = -1/3 on the cut, where W_0 and W_-1 give the two
        # real zeros: an edge through either is refused, and an edge clear
        # of it by 1e-6, on either side, places it
        qp = qz.QuasiPolynomial(1, -3 + 0j)
        recs = qz.find_zeros_in_disk(qp, 6.0)
        assert len(recs) == 2
        for rec in recs:
            x = rec.value.real
            for box in (qz.Rectangle(complex(x, -1), complex(x + 0.5, 1)),
                        qz.Rectangle(complex(x - 0.5, -1), complex(x, 1))):
                with pytest.raises(ZeroOnContourError, match="rounding floor"):
                    qz.winding_count(qp, box)
            for dx, want in ((-1e-6, 1), (1e-6, 0)):
                box = qz.Rectangle(complex(x + dx, -1), complex(x + 0.5, 1))
                assert qz.winding_count(qp, box).count == want


class TestConjugateWalk:
    """For real A > 0 the disk search walks one branch of each conjugate
    pair (j, m), (k - 1 - j, -m) and lists the other as its conjugate."""

    @staticmethod
    def _disks():
        rng = random.Random(2603)
        disks = [(1, 1.0, 40.0), (2, 3.0, 8.0), (3, 1.0, 5.0), (3, 1e300, 1.0),
                 (25, 1e150, 1.0), (4, 1e-300, 3.0)]
        for k in (1, 2, 3, 4, 5, 7, 10, 25):
            disks += [(k, 10 ** rng.uniform(-3, 3), rng.uniform(1, 25)) for _ in range(3)]
        return disks

    def test_disk_lists_exact_conjugates(self, monkeypatch):
        seeds = []
        polish = kp.newton_polish_list

        def counted(k, log_a, values, *args):
            seeds.extend(values)
            return polish(k, log_a, values, *args)

        monkeypatch.setattr(kp, "newton_polish_list", counted)
        walks = []
        branch_zeros = certify_mod._branch_zeros

        def walked(*args):
            found = branch_zeros(*args)
            walks.append(_rows(found))
            return found

        monkeypatch.setattr(certify_mod, "_branch_zeros", walked)
        for k, a, radius in self._disks():
            qp = qz.QuasiPolynomial(k, complex(a, 0.0))
            seeds.clear()
            walks.clear()
            (_values, multiplicities), _records, count = certify_mod._outer_cell(qp, radius,
                                                                                 1e-12)
            # the count identity over the mirrored list
            assert count == sum(multiplicities), (k, a, radius)
            # over the whole walk of the padded square, the real zeros, W_0 of
            # the self-paired root, are polished alone
            walk, = walks
            real = [rec for rec in walk if zeros_mod._on_real_axis(rec.value)]
            assert all(rec.nu is None for rec in real) and len(real) <= k % 2
            values = {(rec.value.real, rec.value.imag) for rec in walk if rec not in real}
            assert len(values) == len(walk) - len(real)
            assert values == {(x, -y) for x, y in values}, (k, a, radius)
            assert len(seeds) == len(values) // 2 + len(real), (k, a, radius)
            recs = qz.find_zeros_in_disk(qp, radius)
            assert all(rec.certified for rec in recs)
            listed = {(rec.value.real, rec.value.imag) for rec in recs
                      if not zeros_mod._on_real_axis(rec.value)}
            assert listed == {(x, -y) for x, y in listed}

    def test_mirror_is_the_walk(self):
        # a cell just off symmetric walks every root; inside the symmetric
        # cell it lists the mirrored walk's zeros, bit for bit, labels,
        # seeds and cofactors included
        for k, a, radius in self._disks()[:14]:
            qp = qz.QuasiPolynomial(k, complex(a, 0.0))
            cell = certify_mod._square(radius, 0)
            mirrored = _rows(certify_mod._branch_zeros(qp, cell))
            xmin, xmax, ymin, ymax = cell
            walked = _rows(certify_mod._branch_zeros(
                qp, (xmin, xmax, ymin, math.nextafter(ymax, 0))))
            key = lambda p: (p.value.imag, p.value.real)  # noqa: E731
            assert sorted(map(repr, sorted(mirrored, key=key))) == sorted(
                map(repr, sorted(walked, key=key))), (k, a, radius)

    def test_origin_lists_the_zeros_of_the_ladder_document(self, capsys):
        # k = 3, A = 1e300: three zeros at |l| = 1e-100, closer together than
        # the absolute 1e-6 that once read them as duplicates
        from quasizeros.cli import main

        docs = []
        for argv in (["origin", "--radius", "1"], ["zeros", "--nu", "1..2", "--with-disk", "1"]):
            assert main([*argv, "--k", "3", "--a", "1e300+0i"]) == 0
            docs.append(json.loads(capsys.readouterr().out)["results"])
        origin, zeros = docs
        assert len(origin) == 3 and all(rec["certified"] for rec in origin)
        assert [rec for rec in zeros if rec["nu"] == "origin"] == origin
        assert all(abs(complex(rec["re"], rec["im"])) == pytest.approx(1e-100) for rec in origin)
        # in (Im, Re) order: a zero at this scale is not read as real
        # (zeros.im_order), and the real one's Im is exactly 0
        assert [rec["im"] for rec in origin] == [-origin[2]["im"], 0.0, origin[2]["im"]]
        assert origin[2]["im"] > 0 and origin[1]["re"] == pytest.approx(-1e-100)


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
        box, recs = self._window_records(qp11, 1, 10)
        moved = recs[3]._replace(value=recs[3].value + 0.5)
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


class TestWindingFallback:
    """The winding-count path of a certificate halves its disk when the
    circle runs through a zero."""

    def test_circle_through_a_zero_is_halved(self, qp11, monkeypatch):
        # a radius of exactly the distance to the next zero puts that zero
        # on the circle: the first count refuses it, and the record
        # certifies at half the distance
        rec, nxt = qz.zeros_in_index_range(qp11, 1, 2, 1e-12)
        distance = abs(nxt.value - rec.value)
        with pytest.raises(ZeroOnContourError, match="rounding floor"):
            qz.winding_count(qp11, qz.Circle(rec.value, distance))
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        got = qz.certify_record(qp11, rec, distance)
        assert got == rec._replace(certified=True, isolation_radius=0.5 * distance)
        assert [c.radius for _qp, c in counts] == [distance, 0.5 * distance]


class TestStoredRecords:
    """Stored records are certified in one pass (certify._certify_records):
    one residual gate per record whose radius leaves room, one Rouche list
    over the simple zeros that pass it, a winding count only where that
    list does not prove the disk, and each record's stored residual kept."""

    def _mixed(self, qp):
        recs = qz.zeros_in_index_range(qp, -4, 4, 1e-12)
        stale = recs[1]._replace(value=recs[1].value + 1e-3)
        mislabelled = recs[2]._replace(multiplicity=2)
        records = [recs[0], stale, mislabelled, recs[3], recs[4], recs[5], recs[6]]
        radii = [recs[0].isolation_radius, 0.1, 0.5, 0.0, None, 800.0, 0.2]
        return records, radii

    def test_each_record_as_alone(self, qp11):
        records, radii = self._mixed(qp11)
        got = certify_mod._certify_records(qp11, records, radii)
        assert got == [certify_mod.certify_record(qp11, rec, r) for rec, r in zip(records, radii)]
        # the stale value fails the gate; the mislabelled multiplicity and
        # the radius beyond the Rouche range go to winding counts, whose
        # disks, halved four times, never hold the multiplicity claimed
        assert [rec.certified for rec in got] == [True, False, False, False, True, False, True]
        assert [rec.isolation_radius for rec in got] == [radii[0], 0.1, 0.03125, 0.0, 1.0,
                                                         50.0, 0.2]
        assert [rec.residual for rec in got] == [rec.residual for rec in records]

    def test_one_pass(self, qp11, monkeypatch):
        records, radii = self._mixed(qp11)
        gates = _counting(monkeypatch, kp, "residual_cofactor")
        lists = _counting(monkeypatch, kp, "rouche_holds_list")
        counts = _counting(monkeypatch, certify_mod, "winding_count")
        certify_mod._certify_records(qp11, records, radii)
        assert len(gates) == 6 and len(lists) == 1
        assert lists[0][3] == [radii[0], 0.0, 0.0, 0.0, 1.0, 800.0, 0.2]
        # the mislabelled record's disk, halved until three counts refuse it,
        # and the radius beyond the Rouche range
        assert [c.radius for _qp, c in counts] == [0.5, 0.25, 0.125, 0.0625, 800.0, 400.0,
                                                   200.0, 100.0]

    def test_completeness_certifies_in_one_pass(self, qp11, monkeypatch):
        recs = qz.zeros_in_index_range(qp11, 1, 10, 1e-12)
        box = qz.Rectangle(complex(-10, 5.0), complex(10, recs[-1].value.imag + math.pi))
        lists = _counting(monkeypatch, kp, "rouche_holds_list")
        ok, detail = qz.certify_completeness(qp11, box, recs)
        assert ok and detail["contour_count"] == 10
        assert len(lists) == 1 and len(lists[0][1]) == 10


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
        radii = zeros_mod.isolation_radii([rec.value for rec in records])
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
        stale = rec._replace(value=rec.value + 0.01)
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
