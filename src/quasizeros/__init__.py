"""quasizeros: zeros of f(l) = e^l + A*l^k, certified.

Computation and refinement of the indexed zero family, winding-number
certification via the argument principle (arg f tracked around a contour
in proven steps), region decomposition of the complex plane, and seeded
sampling verification of the lower-bound estimates.  The hot kernels
(scaled evaluation, argument tracking) are plain Python in
quasizeros._kernels_py, and the seeded samplers in quasizeros._sampling.

``import quasizeros`` loads no submodule: a public name, or a submodule
such as ``quasizeros.certify``, is imported on first use (PEP 562), so a
command line run loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

#: public names of each submodule.  __getattr__ looks a name up in its
#: module on every access and never stores it here, so a rebinding of the
#: module attribute (a tracer's wrapper, say) shows through the package and
#: is gone once it is restored.
_PUBLIC = {
    "_backend": ("backend_name",),
    "bounds": ("BoundReport", "CDeltaEstimate", "SectorCoverReport", "estimate_C_delta",
               "h_threshold", "verify_T1_bound", "verify_T2_bound", "verify_sector_cover"),
    "certify": ("Circle", "ContourReport", "Rectangle", "certify_completeness",
                "certify_record", "find_zeros_in_disk", "winding_count"),
    "core": ("EvalScale", "QuasiPolynomial", "derivative", "evaluate", "evaluate_scaled",
             "newton_ratio", "relative_residual"),
    "regions": ("Quadrangle", "RegionLabel", "RegionParams", "RegionTag", "classify",
                "sector_contains", "sector_cover_radius", "signed_offset",
                "strip_quadrangle"),
    "zeros": ("GapStats", "IterationTrace", "ZeroRecord", "asymptotic_zero", "branch_index",
              "fixed_point_refine", "gap_statistics", "newton_refine", "separation_radius",
              "zeros_in_index_range"),
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

_SUBMODULES = frozenset({"_backend", "_kernels_py", "_sampling", "_serialize", "bounds",
                         "certify", "cli", "core", "errors", "regions", "zeros"})

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        # importing a submodule also binds it here, as any import does
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
