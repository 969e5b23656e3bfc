"""Sampled verification of the lower-bound estimates.

Exterior bounds: with offset = Re l - k ln|l| (branch S=1),
    offset < -h, h > ln(2/|A|)  =>  |f| >= (1/2) |A| |l|^k
    offset >  h, h > ln(2|A|)   =>  |f| >= (1/2) |e^l|.
Both follow from |subdominant/dominant| < 1/2: on offset < -h,
|e^l|/|A l^k| = e^offset/|A| < e^(-h)/|A| < 1/2, and on offset > h the ratio
|A l^k|/|e^l| < |A| e^(-h) < 1/2.  Since |f| >= dominant * (1 - |ratio|),
the margins against the claimed bounds are proven in closed form:
    T1:  |f| / ((1/2)|A||l|^k) >= 2 (1 - e^(-h)/|A|)
    T2:  |f| / ((1/2)|e^l|)    >= 2 (1 - |A| e^(-h))
and both exceed 1 above the thresholds.  Reports carry this proven margin
beside the sampled minimum.
Note the second estimate lives on the S=1 offset's right side: its proof
needs Re l - k ln|l| > h, and the S=2 right side provably contains zeros of
f (where no lower bound can hold) -- that variant stays available through
s_branch=2 for demonstration.

Strip bound: away from delta-disks around the zeros, |f| >= C_delta |l|^k
with C_delta > 0 estimated empirically as the sampled infimum of |f|/|l|^k.

All sampling is seeded and deterministic: a fixed number of substream seeds
is derived from the seed by splitmix64 (derive_substream), each substream
draws its uniforms through _sampling.uniform_pairs (the Mersenne Twister
of random.Random(substream seed)), and the results are merged in a fixed
order, so reports are bit-for-bit reproducible.

The samplers live in _sampling, which loads no other module of the
package.  Only the C_delta functions call certify, zeros and the kernels
(Lambert W); they import them, so the exterior and sector checks load none
of these.
"""

import math
import sys
from collections import namedtuple

from . import _sampling
from .errors import (
    DeltaTooLargeError,
    DomainError,
    EmptyRegionSampleError,
    IncompleteZeroListError,
    PreconditionHError,
)

M64 = 0xFFFFFFFFFFFFFFFF
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)
LN_FLOAT_MAX = math.log(sys.float_info.max)
FLOAT_MIN = sys.float_info.min

#: fixed substream count; part of the sample stream, so changing it changes
#: every seeded report
SUBSTREAMS = 16

#: outer radius of the sampled shell for the radially unbounded regions
#: (the exteriors, and the strip in the sector cover)
DEFAULT_R_MAX = 1e3

#: clamp for threshold formulas that come out nonpositive (the region
#: definitions require h > 0)
H_CLAMP = 1e-3


class BoundReport(namedtuple("BoundReport", "region samples min_margin proven_margin "
                                           "worst_point threshold_h_used passed")):
    """Outcome of one sampled lower-bound verification.

    proven_margin is the closed-form lower bound on the margin over the whole
    region (see the module docstring), or None where no proof exists (T2 on
    the S=2 branch); passed still reads the sampled min_margin >= 1.
    """

    __slots__ = ()


class SectorCoverReport(namedtuple("SectorCoverReport", "r_used samples min_margin "
                                                       "worst_point violations passed")):
    """Outcome of a sampled sector-containment check for the strip."""

    __slots__ = ()


class CDeltaEstimate(namedtuple("CDeltaEstimate", "c_hat argmin delta_used h_used r_used "
                                                 "sample_count")):
    """Empirical infimum of |f(l)|/|l|^k over the punctured strip."""

    __slots__ = ()


def derive_substream(seed, index):
    """Deterministic 64-bit seed of substream `index` derived from `seed`."""
    state = (seed + (index + 1) * 0x9E3779B97F4A7C15) & M64
    state, _ = _sampling.sm64(state)
    state, z = _sampling.sm64(state)
    return z


def _chunk_sizes(n):
    chunks = min(SUBSTREAMS, n)
    base, extra = divmod(n, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def _check_log_polar(h, r_cut, r_max, sample_count, s_branch):
    """Inputs of the log-polar samplers (exterior and strip sector): they
    draw from the shell R <= |l| <= r_max, on one side of offset level h."""
    if not 0 < h < math.inf:
        raise DomainError("h must be a positive finite number")
    if not r_cut > 0:
        raise DomainError("R must be a positive number")
    if not r_cut < r_max < math.inf:
        raise DomainError(f"r_max = {r_max:g} must be finite and exceed R = {r_cut:g}")
    if sample_count < 1:
        raise DomainError("sample count must be at least 1")
    if s_branch not in (1, 2):
        raise DomainError("s_branch must be 1 or 2")


def _check_strip(h, r_cut, delta, im_cap, sample_count):
    """Inputs of the punctured-strip sampler: the strip |offset| <= h cut
    to R <= |l| and |Im l| <= im_cap, less the delta-disks."""
    if not 0 < h < math.inf:
        raise DomainError("h must be a positive finite number")
    if not 0 < r_cut < math.inf:
        raise DomainError("R must be a positive finite number")
    if not 0 < delta < math.inf:
        raise DomainError("delta must be a positive finite number")
    if not 0 < im_cap < math.inf:
        raise DomainError(f"im_cap = {im_cap:g} must be positive and finite")
    if sample_count < 1:
        raise DomainError("sample count must be at least 1")


def _run_chunks(sampler, args, n, seed, region):
    """Run sampler(*args, size, substream seed) over the fixed chunk layout,
    one substream per chunk, and return the results in chunk order.

    The sample stream depends on both the layout and that order.  A result's
    last field is the sampler's ok flag; the first stalled chunk raises
    EmptyRegionSampleError, so an empty region costs one rejection budget.
    """
    results = []
    for i, size in enumerate(_chunk_sizes(n)):
        result = sampler(*args, size, derive_substream(seed, i))
        if not result[-1]:
            raise EmptyRegionSampleError(
                f"rejection sampling of {region} stalled (region empty?)")
        results.append(result)
    return results


def h_threshold(qp, which):
    """Admissible half-width threshold: T1 -> ln(2/|A|), T2 -> ln(2|A|).

    Clamped below at 1e-3 because the region definitions require h > 0.
    Where 2/|A| or 2|A| leaves the float range the threshold is formed from
    ln|A|, as ln 2 - ln|A| or ln 2 + ln|A|.
    """
    if which == "T1":
        two_b = 2.0 * qp.b_magnitude
        value = math.log(two_b) if two_b < math.inf else LN2 - qp.log_abs_a
    elif which == "T2":
        two_a = 2.0 * qp.a_magnitude
        value = math.log(two_a) if two_a < math.inf else LN2 + qp.log_abs_a
    else:
        raise DomainError("which must be 'T1' or 'T2'")
    return max(value, H_CLAMP)


def _exterior_report(qp, region_name, s_branch, side, h, r_cut, sample_count,
                     seed, r_max, bound_kind, threshold, proven_margin):
    _check_log_polar(h, r_cut, r_max, sample_count, s_branch)
    results = _run_chunks(
        _sampling.sample_exterior_margin,
        (qp.k, qp.log_a, s_branch, side, h, r_cut, r_max, bound_kind),
        sample_count, seed, region_name)
    min_log, wre, wim, _ = min(results, key=lambda r: r[0])
    margin = math.exp(min_log)
    return BoundReport(
        region=f"{region_name}(h={h:g}, R={r_cut:g}, r_max={r_max:g})",
        samples=sample_count,
        min_margin=margin,
        proven_margin=proven_margin,
        worst_point=complex(wre, wim),
        threshold_h_used=threshold,
        passed=margin >= 1.0,
    )


def verify_T1_bound(qp, h, r_cut, sample_count, seed, r_max=DEFAULT_R_MAX):
    """Check |f| >= (1/2)|A||l|^k over sampled points of the left exterior
    (offset < -h for branch S=1, R <= |l| <= r_max)."""
    threshold = h_threshold(qp, "T1")
    if h <= threshold:
        raise PreconditionHError(
            f"h = {h:g} must exceed the T1 threshold {threshold:g}")
    # e^-h / |A|, formed as e^(-h - ln|A|) where e^-h is subnormal or 0
    e_h = math.exp(-h)
    ratio = e_h / qp.a_magnitude if e_h >= FLOAT_MIN else math.exp(-h - qp.log_abs_a)
    proven = 2.0 * (1.0 - ratio)
    return _exterior_report(qp, "T1 exterior: offset(S=1) < -h", 1, -1, h,
                            r_cut, sample_count, seed, r_max, 1, threshold,
                            proven)


def verify_T2_bound(qp, h, r_cut, sample_count, seed, r_max=DEFAULT_R_MAX,
                    s_branch=1):
    """Check |f| >= (1/2)|e^l| over sampled points of the right exterior.

    The default region is offset(S=1) > h, the side on which the estimate
    actually holds (the dominant term is e^l there).  s_branch=2 samples the
    S=2 right side instead; that region contains zeros of f, so the check is
    expected to fail there -- it exists to demonstrate the distinction,
    and its report has no proven margin.
    """
    threshold = h_threshold(qp, "T2")
    if h <= threshold:
        raise PreconditionHError(
            f"h = {h:g} must exceed the T2 threshold {threshold:g}")
    a_mag = qp.a_magnitude
    a_exp = a_mag * math.exp(-h) if a_mag < math.inf else math.exp(qp.log_abs_a - h)
    proven = 2.0 * (1.0 - a_exp) if s_branch == 1 else None
    name = f"T2 exterior: offset(S={s_branch}) > h"
    return _exterior_report(qp, name, s_branch, +1, h, r_cut, sample_count,
                            seed, r_max, 2, threshold, proven)


def verify_sector_cover(qp, h, delta, r_cut, sample_count, seed,
                        r_max=DEFAULT_R_MAX, s_branch=None):
    """Sample strip points with |l| >= R and check sector containment.

    With s_branch None both branches are sampled (half the budget each;
    branch 1 draws first and takes the odd sample).  Passes when every
    sampled point lies within delta of +-pi/2 in argument.  The strip is
    sampled only out to r_max, so R must lie below it.
    """
    if not 0 < delta < 0.5 * math.pi:
        raise DomainError("delta must lie in (0, pi/2)")
    branches = (1, 2) if s_branch is None else (s_branch,)
    per_branch, extra = divmod(sample_count, len(branches))
    results = []
    for i, branch in enumerate(branches):
        _check_log_polar(h, r_cut, r_max, sample_count, branch)
        count = per_branch + (extra if i == 0 else 0)
        if count:
            results += _run_chunks(
                _sampling.sample_strip_sector,
                (qp.k, branch, h, r_cut, r_max, delta),
                count, seed + branch, f"the S={branch} strip")
    min_margin, wre, wim, _, _ = min(results, key=lambda r: r[0])
    violations = sum(r[3] for r in results)
    return SectorCoverReport(
        r_used=r_cut,
        samples=sample_count,
        min_margin=min_margin,
        worst_point=complex(wre, wim),
        violations=violations,
        passed=violations == 0,
    )


def _window_boxes(qp, h, r_cut, im_cap, delta):
    """The boxes of the sampled strip window, which hold its samples with
    delta + 1 to spare: the two half-windows' boxes, upper then lower, where
    the padded halves stay at least 1 from the real axis, and otherwise one
    box around the whole window, so that no sample lies within delta + 1 of
    the stretch between them.  Empty when the padded window has no height;
    refused past its walk's budget (window_zeros)."""
    from . import certify as certify_mod
    from ._backend import kernels

    k = qp.k
    # smallest |Im| reachable by a strip sample: |l| >= R with |Re| bounded
    re_at_r = min(r_cut, h + k * math.log(r_cut))
    y_min = math.sqrt(max(r_cut * r_cut - re_at_r * re_at_r, 0.0))
    pad = delta + 1.0
    y_hi = im_cap + pad
    if not y_hi + certify_mod.WALK_PAD < certify_mod._walk_height(k):
        limit = certify_mod._walk_height(k) - certify_mod.WALK_PAD - pad
        raise DomainError(f"im_cap = {im_cap:g} exceeds the limit {limit:g} of the "
                          f"window's branch walk")
    # no strip point lies left of x* < 0, the root of x = k ln(-x) - h: each
    # has Re l >= k ln|l| - h >= k ln|Re l| - h, and x - k ln(-x) + h
    # increases on x < 0; x* = -k W_0(e^(h/k) / k)
    log_z = h / k - math.log(k)
    z = math.exp(log_z) if log_z < 709.0 else math.inf
    x_star = -k * kernels.lambert_w(z, 0, complex(log_z)).real
    x_lo = max(k * math.log(r_cut) - h, x_star) - pad
    # nor right of the largest root of x = h + k ln(x + im_cap), which the
    # map decreases to from above; x - h - k ln(x + im_cap) is convex
    x_hi = h + k + 1.0
    while x_hi < h + k * math.log(x_hi + im_cap):
        x_hi *= 2.0
    for _ in range(50):
        x_hi = h + k * math.log(x_hi + im_cap)
    y_lo = y_min - pad
    if y_lo >= y_hi:
        return []
    if y_lo < 1.0:
        return [certify_mod.Rectangle(complex(x_lo, -y_hi), complex(x_hi + pad, y_hi))]
    return [certify_mod.Rectangle(complex(x_lo, y_lo), complex(x_hi + pad, y_hi)),
            certify_mod.Rectangle(complex(x_lo, -y_hi), complex(x_hi + pad, -y_lo))]


def window_zeros(qp, h, r_cut, im_cap, delta, tolerance=1e-12):
    """The certified zeros of the box around the window's boxes
    (_window_boxes), by one branch walk (certify._box_zeros):
    estimate_C_delta's list."""
    from . import certify as certify_mod

    boxes = _window_boxes(qp, h, r_cut, im_cap, delta)
    return certify_mod._box_zeros(qp, certify_mod.Rectangle(
        boxes[-1].corner_min, boxes[0].corner_max), tolerance)[1] if boxes else []


def _completeness_window(qp, boxes, strip_zeros):
    """Verify the zero list covers the sampled strip window:
    certify_completeness over each of its boxes (see _window_boxes)."""
    from . import certify as certify_mod

    parts = ("half 1", "half -1") if len(boxes) == 2 else ("the whole window",)
    for part, box in zip(parts, boxes):
        inside = [rec for rec in strip_zeros if box.contains(rec.value)]
        ok, detail = certify_mod.certify_completeness(qp, box, inside)
        if not ok:
            raise IncompleteZeroListError(
                f"zero list covers {detail['expected_count']} zeros in "
                f"the sampled window ({part}) but the winding count is "
                f"{detail['contour_count']}")


def estimate_C_delta(qp, h, r_cut, delta, sample_count, seed, strip_zeros,
                     im_cap=TWO_PI * 60.0, verify_completeness=True):
    """Sampled infimum of |f(l)|/|l|^k over the punctured strip.

    Samples the S=1 strip with |Im l| <= im_cap and |l| >= R, rejecting
    points within delta of any listed zero.  delta must stay below the
    separation radius of the listed zeros inside the sampled window's boxes
    (_window_boxes); zeros outside them lie more than delta + 1 from every
    sample and constrain nothing, and with fewer than two inside there is no
    constraint.  The list must be certified and cover the sampled window
    (checked by certify_completeness over each of the window's boxes, by its
    winding count, unless verify_completeness is disabled, which refuses []).
    """
    from . import zeros as zeros_mod

    _check_strip(h, r_cut, delta, im_cap, sample_count)
    if not strip_zeros and not verify_completeness:
        raise IncompleteZeroListError("an empty zero list cannot cover the strip")
    if any(not rec.certified for rec in strip_zeros):
        raise IncompleteZeroListError("strip zeros must be certified")
    boxes = _window_boxes(qp, h, r_cut, im_cap, delta)
    windowed = [rec for rec in strip_zeros
                if any(box.contains(rec.value) for box in boxes)]
    if len(windowed) >= 2:
        sep = zeros_mod.separation_radius(windowed)
        if delta >= sep:
            raise DeltaTooLargeError(
                f"delta = {delta:g} is not below the separation radius {sep:g} "
                f"of the zeros in the sampled window")
    if verify_completeness:
        _completeness_window(qp, boxes, strip_zeros)
    ordered = sorted(strip_zeros, key=lambda rec: rec.value.imag)
    zre = [rec.value.real for rec in ordered]
    zim = [rec.value.imag for rec in ordered]
    results = _run_chunks(
        _sampling.sample_strip_ratio,
        (qp.k, qp.log_a, h, r_cut, im_cap, delta, zre, zim),
        sample_count, seed, "the punctured strip")
    min_log, wre, wim, _ = min(results, key=lambda r: r[0])
    if min_log > LN_FLOAT_MAX:
        raise DomainError(f"C_delta = e^{min_log:.6g} is beyond the float range "
                          f"(|A| = e^{qp.log_abs_a:.6g})")
    return CDeltaEstimate(
        c_hat=math.exp(min_log),
        argmin=complex(wre, wim),
        delta_used=delta,
        h_used=h,
        r_used=r_cut,
        sample_count=sample_count,
    )
