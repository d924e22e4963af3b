"""BLAS thread control through the loaded OpenBLAS libraries.

``PLUME_THREADS`` caps the BLAS threads of a run. ``limit`` finds each
OpenBLAS library the process has loaded in ``/proc/self/maps`` (Linux)
and calls that library's own thread-count setter, the call threadpoolctl
makes, so the cap holds whether or not numpy was loaded first.
``pipeline.run_stage`` applies it, so the command line and library
callers get the same cap. ``single`` holds every loaded OpenBLAS at one
thread for the length of a block and then restores each library's own
count: the pCN chain runs under it, its BLAS on the main thread and its
random draws on one thread of its own (see ``sampling``), so the chain
uses two cores whatever ``PLUME_THREADS`` says. Other BLAS builds (MKL,
Accelerate) are not found: ``limit`` then logs that the cap is ignored,
``single`` does nothing, and ``effective`` returns None.
"""

from __future__ import annotations

import ctypes
import logging
import os
from contextlib import contextmanager
from typing import Iterator, Optional

from .errors import ValidationError

__all__ = ["ENV_THREADS", "limit", "single", "effective"]

logger = logging.getLogger(__name__)

ENV_THREADS = "PLUME_THREADS"
# (getter, setter) symbol names of OpenBLAS builds, plain and with the
# prefix and suffix of the builds bundled with numpy and scipy wheels.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
)


def _openblas() -> list:
    """(getter, setter) of each loaded OpenBLAS library; empty if none is found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((getter, setter))
                break
    return found


def limit() -> None:
    """Cap every loaded OpenBLAS library at ``PLUME_THREADS`` threads, if it is set.

    A library that already runs that many threads is left alone, so a
    process whose environment set the same count makes no BLAS call.
    """
    raw = os.environ.get(ENV_THREADS)
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if n < 1:
        raise ValidationError(f"{ENV_THREADS} must be >= 1, got {n}")
    libraries = _openblas()
    if not libraries:
        logger.warning("no loaded OpenBLAS library found; %s ignored", ENV_THREADS)
    for getter, setter in libraries:
        if getter() != n:
            setter(n)


@contextmanager
def single() -> Iterator[None]:
    """Every loaded OpenBLAS library on one thread inside the block.

    Each library's count from before is set back on every exit, a raise
    included.
    """
    libraries = _openblas()
    before = [getter() for getter, _ in libraries]
    for _, setter in libraries:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(libraries, before):
            setter(count)


def effective() -> Optional[int]:
    """Largest thread count among the loaded OpenBLAS libraries; None if none is found."""
    counts = [getter() for getter, _ in _openblas()]
    return max(counts) if counts else None
