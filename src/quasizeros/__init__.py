"""quasizeros: zeros of f(l) = e^l + A*l^k, certified.

Computation and refinement of the indexed zero family, winding-number
certification via the argument principle (arg f tracked around a contour
in proven steps), region decomposition of the complex plane, and seeded
sampling verification of the lower-bound estimates.  The hot kernels
(scaled evaluation, argument tracking, seeded samplers) are plain Python
in quasizeros._kernels_py.
"""

from ._backend import backend_name
from .bounds import (
    BoundReport,
    CDeltaEstimate,
    SectorCoverReport,
    estimate_C_delta,
    h_threshold,
    verify_T1_bound,
    verify_T2_bound,
    verify_sector_cover,
)
from .certify import (
    Circle,
    ContourReport,
    Rectangle,
    certify_completeness,
    certify_record,
    find_zeros_in_disk,
    winding_count,
)
from .core import (
    EvalScale,
    QuasiPolynomial,
    derivative,
    evaluate,
    evaluate_scaled,
    newton_ratio,
    relative_residual,
)
from .regions import (
    Quadrangle,
    RegionLabel,
    RegionParams,
    RegionTag,
    classify,
    sector_contains,
    sector_cover_radius,
    signed_offset,
    strip_quadrangle,
)
from .zeros import (
    GapStats,
    IterationTrace,
    ZeroRecord,
    asymptotic_zero,
    branch_index,
    fixed_point_refine,
    gap_statistics,
    newton_refine,
    separation_radius,
    zeros_in_index_range,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CDeltaEstimate",
    "Circle",
    "ContourReport",
    "EvalScale",
    "GapStats",
    "IterationTrace",
    "Quadrangle",
    "QuasiPolynomial",
    "Rectangle",
    "RegionLabel",
    "RegionParams",
    "RegionTag",
    "SectorCoverReport",
    "ZeroRecord",
    "asymptotic_zero",
    "backend_name",
    "branch_index",
    "certify_completeness",
    "certify_record",
    "classify",
    "derivative",
    "estimate_C_delta",
    "evaluate",
    "evaluate_scaled",
    "find_zeros_in_disk",
    "fixed_point_refine",
    "gap_statistics",
    "h_threshold",
    "newton_ratio",
    "newton_refine",
    "relative_residual",
    "sector_contains",
    "sector_cover_radius",
    "separation_radius",
    "signed_offset",
    "strip_quadrangle",
    "verify_T1_bound",
    "verify_T2_bound",
    "verify_sector_cover",
    "winding_count",
    "zeros_in_index_range",
]
