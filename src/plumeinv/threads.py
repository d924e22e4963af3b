"""BLAS thread control, with or without threadpoolctl.

``PLUME_THREADS`` caps the BLAS threads of a run. With threadpoolctl
installed the cap is applied to the loaded libraries. Without it, the cap
goes through ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS``, which the libraries read only when they load, so
``limit`` must run before numpy is first imported: ``cli.main`` calls it
before it imports any module that loads numpy. This module imports no
numpy itself.
"""

from __future__ import annotations

import ctypes
import logging
import os
import sys
from typing import Optional

from .errors import ValidationError

__all__ = ["ENV_THREADS", "limit", "effective"]

logger = logging.getLogger(__name__)

ENV_THREADS = "PLUME_THREADS"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Thread-count getters of OpenBLAS builds, plain and with the symbol
# prefix and suffix of the builds bundled with numpy and scipy wheels.
_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def limit():
    """Apply ``PLUME_THREADS``; returns the threadpoolctl limiter to keep alive, if any."""
    raw = os.environ.get(ENV_THREADS)
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if n < 1:
        raise ValidationError(f"{ENV_THREADS} must be >= 1, got {n}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        if "numpy" in sys.modules:
            logger.warning(
                "threadpoolctl not installed and numpy already loaded; %s ignored", ENV_THREADS
            )
        else:
            os.environ.update({name: str(n) for name in _BLAS_ENV})
        return None
    return threadpool_limits(limits=n)


def effective() -> Optional[int]:
    """Largest thread count among the loaded BLAS libraries; None if none can be read.

    Asks threadpoolctl when it is installed. Otherwise finds the loaded
    OpenBLAS libraries in ``/proc/self/maps`` (Linux) and calls their own
    thread-count getter.
    """
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        counts = [lib["num_threads"] for lib in threadpool_info() if lib["user_api"] == "blas"]
        return max(counts) if counts else None
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        return None
    counts = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(int(getter()))
                break
    return max(counts) if counts else None
