"""BLAS thread control through the loaded OpenBLAS libraries.

``single`` holds every OpenBLAS library the process has loaded at one
thread for the length of a block and then restores each library's own
count. It finds the libraries in ``/proc/self/maps`` (Linux) and calls
each one's own thread-count setter, the call threadpoolctl makes, so it
holds whether or not numpy was loaded first and whatever
``OPENBLAS_NUM_THREADS`` says. ``pipeline.run_stage`` runs every stage
under it: at this problem size a second BLAS thread saves no time, its
spinning threads slow a run down when another process shares the cores,
and a fixed count makes a stage's rounding, and so its artifacts, the
same on every machine. The pCN chain then has BLAS on the main thread
and its random draws on one thread of its own (see ``sampling``). Other
BLAS builds (MKL, Accelerate) are not found, and ``single`` leaves them
at their own default.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Iterator

__all__ = ["single"]

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
