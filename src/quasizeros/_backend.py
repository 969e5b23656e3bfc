"""Kernel import seam: every module reaches the kernels of ``_kernels_py``
as ``_backend.kernels``; bounds imports the samplers from ``_sampling``.

The kernels live in ``_kernels_py`` rather than ``_kernels`` so that a stale
compiled ``_kernels*.so`` left in a checkout can never shadow them (the
import system tries extension modules before ``.py`` files).
"""

from . import _kernels_py as kernels


def backend_name():
    """Name of the kernel implementation: always 'python'."""
    return "python"
