"""The host's numeric profile, for tests that pin recorded float bits.

The trace digests and engine fingerprints hold bits that NumPy's SIMD
dispatch (``np.log``/``np.exp``) and OpenBLAS's per-CPU kernels decide,
so a failure on another host may be that host, not a change.  Each of
those tests appends :func:`numeric_profile` to its failure message.
"""

from __future__ import annotations

import os
import platform

import numpy as np

#: Environment variables that change which kernels NumPy and OpenBLAS run.
KERNEL_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _blas() -> str:
    try:
        entry = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # a build without the dict: say so, not fail
        return f"unknown ({type(exc).__name__}: {exc})"
    return ", ".join(
        f"{key}={value}" for key, value in entry.items()
        if not key.endswith("directory")
    )


def _cpu_features() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(name for name, on in __cpu_features__.items() if on)


def numeric_profile() -> str:
    """NumPy's version, BLAS, enabled CPU features, the C library and the
    kernel-selecting variables that are set, one per line."""
    libc = " ".join(part for part in platform.libc_ver() if part) or "unknown"
    lines = [
        "host numeric profile:",
        f"  numpy {np.__version__}",
        f"  blas: {_blas()}",
        f"  libc: {libc}",
        f"  numpy cpu features: {_cpu_features()}",
    ]
    lines += [
        f"  {name}={os.environ[name]}"
        for name in KERNEL_VARIABLES if name in os.environ
    ]
    return "\n".join(lines)
