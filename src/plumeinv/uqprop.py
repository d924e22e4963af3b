"""Propagation of emission estimates onto ground deposition maps.

The forward-on-grid operator H maps the stacked emission vector to
time-integrated ground-level deposition (kg m^-2 over the period) at every
grid point, using the same left-endpoint quadrature as the observation
map. It is one ``kernel_profile`` call over the whole wind series, scaled
by w_dep dt; a calm step deposits nothing. Posterior covariance is pushed
through H via its leading eigenpairs: per-cell variance needs only one
forward application per retained mode. The patch and the number of
modes kept are the config's ``grid`` section, ``GridSpec``.

The eigenpairs come from a block subspace iteration (Halko, Martinsson &
Tropp 2011, SIAM Review) with a fixed-seed Gaussian start, one product
with the covariance and one Rayleigh-Ritz step per iteration. It stops
once every kept pair is certified by its residual, ||C v - lambda v|| <=
``CERT_TOL`` lambda_1, and forms no n x n array. A covariance that does
not certify within ``SUBSPACE_MAX_ITER`` iterations falls back, with a
warning, to a dense subset ``eigh``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr, dsyevd

from .errors import NumericalError, ValidationError
from .observation import TimeGrid
from .plume import (
    CALM_SPEED_DEFAULT,
    X_CUTOFF_DEFAULT,
    ParticleProperties,
    SourceSite,
    StabilityClass,
    kernel_profile,
)

__all__ = [
    "GridSpec",
    "LowRankFactors",
    "DepositionGrid",
    "assemble_H",
    "lowrank_truncate",
    "deposition_stats",
    "annualize",
]

logger = logging.getLogger(__name__)

SECONDS_PER_YEAR = 31_536_000.0
SYM_TOL = 1e-8  # largest asymmetry lowrank_truncate accepts, relative to the largest entry
_TILE = 256  # tile edge of the asymmetry check in lowrank_truncate
SUBSPACE_OVERSAMPLE = 60  # block columns beyond the kept modes
SUBSPACE_MAX_ITER = 25  # iterations before the dense fallback
CERT_TOL = 1e-10  # residual norm, relative to lambda_1, that certifies a kept pair


@dataclass(frozen=True)
class GridSpec:
    """Rectangular ground patch sampled on an n_x by n_y point lattice.

    ``n_modes`` caps the eigenpairs of the posterior covariance that are
    pushed onto the patch.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_x: int = 40
    n_y: int = 40
    n_modes: int = 100

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValidationError("grid: grid bounds must have positive extent")
        if self.n_x < 2 or self.n_y < 2:
            raise ValidationError("grid: need at least 2 points per axis")
        if self.n_modes < 1:
            raise ValidationError(f"grid.n_modes must be at least 1, got {self.n_modes}")

    @property
    def n_cells(self) -> int:
        return self.n_x * self.n_y

    def points(self) -> np.ndarray:
        """(n_cells, 2) ground coordinates, row-major by y then x."""
        xs = np.linspace(self.x_min, self.x_max, self.n_x)
        ys = np.linspace(self.y_min, self.y_max, self.n_y)
        gx, gy = np.meshgrid(xs, ys)  # gx[iy, ix]
        return np.column_stack([gx.ravel(), gy.ravel()])


def assemble_H(
    grid: GridSpec,
    sites: Sequence[SourceSite],
    wind,
    timegrid: TimeGrid,
    particle: ParticleProperties,
    sc: StabilityClass,
    x_cutoff: float = X_CUTOFF_DEFAULT,
    calm_speed: float = CALM_SPEED_DEFAULT,
) -> np.ndarray:
    """Deposition operator, shape (n_cells, n_sources * n_steps).

    Row p holds w_dep * dt * kernel(cell p, source i, step j) in
    source-major column order; H q is then the per-cell deposition
    accumulated over the period at ground level (z = 0). A calm step's
    columns are zero.
    """
    pts = grid.points()
    points3 = np.column_stack([pts, np.zeros(len(pts))])
    u_x = np.asarray(wind.u_x, dtype=float)
    if len(u_x) != timegrid.n_steps:
        raise ValueError("wind series length does not match the time grid")
    kernels = kernel_profile(points3, sites, (u_x, wind.u_y), particle, sc, x_cutoff, calm_speed)
    # kernel_profile stores the series time-last, so this reshape is a view
    h = kernels.transpose(1, 2, 0).reshape(grid.n_cells, len(sites) * timegrid.n_steps)
    h *= particle.w_dep * timegrid.dt
    return h


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Leading eigenpairs of a covariance, eigenvalues nonincreasing."""

    eigenvalues: np.ndarray  # (n_e,)
    vectors: np.ndarray  # (n, n_e), orthonormal columns
    method: str = ""  # "subspace" or "dense_fallback" when lowrank_truncate built it
    iterations: int = 0  # subspace iterations run
    max_relative_residual: float = 0.0  # max ||C v - lambda v|| / lambda_1 over the pairs

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative (clamp before constructing)")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def lowrank_truncate(cov: np.ndarray, n_modes: int) -> LowRankFactors:
    """Leading ``n_modes`` eigenpairs of a symmetric covariance.

    Certified block subspace iteration on the symmetric part of ``cov``,
    with a dense subset ``eigh`` as the fallback (see the module
    docstring); the result records which of the two ran. Negative
    trailing eigenvalues (roundoff) are clamped to zero with a log
    message; asymmetry beyond ``SYM_TOL`` (relative to the largest entry)
    is an error.

    The iteration runs in a workspace allocated once: the block and its
    product with the covariance (n x block each, Fortran-ordered) and the
    residual (n x n_modes). BLAS writes every product into it and LAPACK
    orthonormalizes the block in place (Householder QR, ``dgeqrf`` then
    ``dorgqr``), so no iteration allocates an n-row array. Every product
    and factorization goes through SciPy's BLAS and LAPACK: alternating
    with NumPy's copy would leave each library's threads spinning while
    the other works.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if cov.shape != (n, n):
        raise ValueError("covariance must be square")
    if not 1 <= n_modes <= n:
        raise ValueError(f"n_modes must be in [1, {n}], got {n_modes}")
    # max |cov| and max |cov - cov.T| without full-size temporaries: the
    # asymmetry compares each tile on or above the diagonal with its mirror.
    scale = max(1.0, float(cov.max()), -float(cov.min()))
    b = _TILE
    asym = max(
        float(np.abs(cov[i : i + b, j : j + b] - cov[j : j + b, i : i + b].T).max())
        for i in range(0, n, b)
        for j in range(i, n, b)
    )
    if asym > SYM_TOL * scale:
        raise ValueError(f"covariance asymmetric beyond tolerance ({asym:.3e})")

    def sym_times(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # cov.T is cov read Fortran-ordered, so BLAS takes it without a copy;
        # on an exactly symmetric array cov.T @ x already is the symmetric part.
        out = dgemm(1.0, cov.T, x, c=out, overwrite_c=1)
        if asym != 0.0:
            out = dgemm(0.5, cov.T, x, beta=0.5, c=out, trans_a=1, overwrite_c=1)
        return out

    # With block == n the first Rayleigh-Ritz step is a full eigensolve.
    block = min(n_modes + SUBSPACE_OVERSAMPLE, n)
    lwork = int(dgeqrf_lwork(n, block)[0])
    q = _orthonormalize(
        np.asfortranarray(np.random.default_rng(0).standard_normal((n, block))), lwork
    )
    cq = np.empty((n, block), order="F")
    resid = np.empty((n, n_modes), order="F")
    for iteration in range(1, SUBSPACE_MAX_ITER + 1):
        cq = sym_times(q, cq)
        t = dgemm(1.0, q, cq, trans_a=1)
        theta, u, info = dsyevd(0.5 * (t + t.T), lower=1, overwrite_a=1)  # ascending
        if info != 0:
            raise NumericalError(f"Rayleigh-Ritz eigensolve failed (LAPACK info {info})")
        lam, u = theta[::-1][:n_modes], np.asfortranarray(u[:, ::-1][:, :n_modes])
        # C v - lambda v for v = q u is (C q) u - q (u lambda)
        resid = dgemm(1.0, cq, u, c=resid, overwrite_c=1)
        resid = dgemm(-1.0, q, u * lam, beta=1.0, c=resid, overwrite_c=1)
        residual = _relative_residual(resid, lam)
        if residual <= CERT_TOL:
            vectors = dgemm(1.0, q, u)
            method = "subspace"
            break
        q, cq = _orthonormalize(cq, lwork), q
    else:
        logger.warning(
            "subspace iteration left a residual of %.1e lambda_1 after %d iterations; "
            "falling back to a dense eigensolve",
            residual, iteration,
        )
        del q, cq, resid
        # The symmetrized matrix equals its transpose exactly, and the
        # transpose is Fortran-ordered, so LAPACK works on it without a
        # copy. The leading modes come back ascending.
        sym = cov + cov.T
        sym *= 0.5
        lam, vectors = eigh(sym.T, subset_by_index=[n - n_modes, n - 1], overwrite_a=True)
        del sym
        lam, vectors = lam[::-1], vectors[:, ::-1]
        resid = sym_times(vectors, np.empty((n, n_modes), order="F"))
        resid -= vectors * lam
        residual = _relative_residual(resid, lam)
        method = "dense_fallback"
    negative = lam < 0
    if negative.any():
        logger.info(
            "clamping %d negative eigenvalues (most negative %.3e) to zero",
            int(negative.sum()), float(lam.min()),
        )
        lam = np.maximum(lam, 0.0)
    return LowRankFactors(
        eigenvalues=lam,
        vectors=vectors,
        method=method,
        iterations=iteration,
        max_relative_residual=residual,
    )


def _orthonormalize(a: np.ndarray, lwork: int) -> np.ndarray:
    """Q of the Householder QR of the Fortran-ordered ``a``, written over ``a``."""
    qr, tau, _, info = dgeqrf(a, lwork=lwork, overwrite_a=1)
    if info == 0:
        qr, _, info = dorgqr(qr, tau, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"QR of the subspace block failed (LAPACK info {info})")
    return qr


def _relative_residual(resid: np.ndarray, lam: np.ndarray) -> float:
    """max_e ||C v_e - lambda_e v_e|| / lambda_1, given the columns C v_e - lambda_e v_e."""
    norms = np.sqrt(np.einsum("ij,ij->j", resid, resid))
    return float(norms.max() / (np.abs(lam).max() or 1.0))


@dataclass(frozen=True, eq=False)
class DepositionGrid:
    """Per-cell deposition mean and standard deviation, SI units (kg m^-2)."""

    mean: np.ndarray
    std: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.mean.shape != (self.grid.n_cells,) or self.std.shape != (self.grid.n_cells,):
            raise ValueError("field lengths must match the grid")
        if np.any(self.std < 0):
            raise ValueError("std must be nonnegative")


def deposition_stats(
    h_matrix: np.ndarray,
    q: np.ndarray,
    factors: LowRankFactors,
    grid: GridSpec,
) -> DepositionGrid:
    """Deposition mean H q and per-cell std from low-rank covariance factors.

    std_p = sqrt( sum_e lambda_e (H l_e)_p^2 ), one forward application of
    H per retained mode.
    """
    mean = h_matrix @ np.asarray(q, dtype=float)
    propagated = h_matrix @ factors.vectors  # (n_cells, n_e)
    var = (propagated**2) @ factors.eigenvalues
    return DepositionGrid(mean=mean, std=np.sqrt(np.maximum(var, 0.0)), grid=grid)


def annualize(q: np.ndarray, timegrid: TimeGrid) -> float:
    """Extrapolated annual total, tonne per year.

    The time-and-source mean rate (kg s^-1) summed over sources, scaled to
    a calendar year and converted to tonnes.
    """
    q = np.asarray(q, dtype=float)
    if q.size % timegrid.n_steps:
        raise ValueError("vector length is not a multiple of the grid step count")
    n_sources = q.size // timegrid.n_steps
    per_source = q.reshape(n_sources, timegrid.n_steps).mean(axis=1)
    return float(per_source.sum() * SECONDS_PER_YEAR / 1000.0)
