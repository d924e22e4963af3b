"""Propagation of emission estimates onto ground deposition maps.

The forward-on-grid operator H maps the stacked emission vector to
time-integrated ground-level deposition (kg m^-2 over the period) at every
grid point, using the same left-endpoint quadrature as the observation
map. Like F it takes the plume model and a wind series whose grid is the
time grid, and a calm step deposits nothing. H is only ever applied:
``assemble_H`` returns H x for the vectors x it is given, from one
``kernel_profile`` call over the whole series that sums the kernels into
the product a block of steps at a time, scaled by w_dep dt. H itself,
n_cells x n (65 MB on the bundled case), is never formed. Posterior
covariance is pushed through H via its leading eigenpairs: per-cell
variance needs only the product with each retained mode, so one call on
[q | U] gives the mean and every mode. The patch and the number of
modes kept are the config's ``grid`` section, ``GridSpec``.

The covariance arrives as a factor E with C ~ E E^T: the chain's
single-pass Nystrom factor, n x ``SKETCH_SIZE`` (see ``sampling``). The
eigenpairs of E E^T come from E = Q R and the SVD R = U_R S V_R^T of the
small R: they are (S^2, Q U_R) (Halko, Martinsson & Tropp 2011, "Finding
structure with randomness", SIAM Review 53(2), Stage B). The QR is taken
in place over E, and Q is applied to the kept columns of U_R only, so
neither anything n x n nor the n x ``SKETCH_SIZE`` U is formed. A
non-finite factor, or an SVD that does not converge, raises
NumericalError naming the eigensolve. The Nystrom approximation is
accurate for the leading modes only with oversampling, so ``GridSpec``
keeps at most half the sketch's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.linalg import LinAlgError, lapack, svd

from .errors import NumericalError, ValidationError
from .observation import TimeGrid
from .plume import PlumeModel, kernel_profile
from .sampling import SKETCH_SIZE

__all__ = [
    "GridSpec",
    "LowRankFactors",
    "DepositionGrid",
    "assemble_H",
    "lowrank_truncate",
    "deposition_stats",
    "annualize",
]

SECONDS_PER_YEAR = 31_536_000.0
MAX_MODES = SKETCH_SIZE // 2  # the most modes a grid keeps: the sketch oversamples them twofold


@dataclass(frozen=True)
class GridSpec:
    """Rectangular ground patch sampled on an n_x by n_y point lattice.

    ``n_modes`` caps the eigenpairs of the posterior covariance that are
    pushed onto the patch, at most ``MAX_MODES``.
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
        if not 1 <= self.n_modes <= MAX_MODES:
            raise ValidationError(
                f"grid.n_modes must be in [1, {MAX_MODES}], got {self.n_modes}"
            )

    @property
    def n_cells(self) -> int:
        return self.n_x * self.n_y

    def points(self) -> np.ndarray:
        """(n_cells, 2) ground coordinates, row-major by y then x."""
        xs = np.linspace(self.x_min, self.x_max, self.n_x)
        ys = np.linspace(self.y_min, self.y_max, self.n_y)
        gx, gy = np.meshgrid(xs, ys)  # gx[iy, ix]
        return np.column_stack([gx.ravel(), gy.ravel()])


def assemble_H(grid: GridSpec, model: PlumeModel, wind, x: np.ndarray) -> np.ndarray:
    """Deposition H x for an (n_sources * n_steps,) or (n_sources * n_steps, k) x.

    Row p of H is w_dep * dt * kernel(cell p, source i, step j) in
    source-major column order; H q is then the per-cell deposition
    accumulated over the period at ground level (z = 0). ``wind`` is a
    WindSeries, on whose grid the steps are. A calm step's columns are zero.
    Returns (n_cells,) or (n_cells, k); H is never formed.
    """
    pts = grid.points()
    points3 = np.column_stack([pts, np.zeros(len(pts))])
    x = np.asarray(x, dtype=float)
    hx = kernel_profile(points3, model, (wind.u_x, wind.u_y), weights=x.reshape(len(x), -1))
    hx *= model.particle.w_dep * wind.grid.dt
    return hx.reshape((grid.n_cells,) + x.shape[1:])


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Leading eigenpairs of a covariance, eigenvalues nonincreasing."""

    eigenvalues: np.ndarray  # (n_e,)
    vectors: np.ndarray  # (n, n_e), orthonormal columns

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonnegative")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def lowrank_truncate(factor: np.ndarray, n_modes: int) -> LowRankFactors:
    """Leading ``n_modes`` eigenpairs of C = E E^T, given the n x k factor E.

    With E = Q R and the thin SVD R = U_R S V_R^T of the r x k R, r =
    min(n, k), they are (S^2, Q U_R[:, :n_modes]), nonincreasing and
    nonnegative by construction. The work is O(n k^2) and, beyond E, holds
    the n x ``n_modes`` vectors and a few k x k arrays; ``n_modes`` cannot
    exceed r, the rank E can have. The QR consumes E: a Fortran-ordered
    float64 ``factor`` (as ``np.load`` returns the chain's) is overwritten
    in place, without a copy, so read anything else off it first. A
    non-finite factor or R, or an SVD that does not converge, raises
    NumericalError.
    """
    factor = np.asarray(factor, dtype=float)
    if factor.ndim != 2:
        raise ValueError(f"factor must be a 2-D array, got {factor.ndim} dimensions")
    n, k = factor.shape
    r = min(n, k)
    if not 1 <= n_modes <= r:
        raise ValueError(f"n_modes must be in [1, {r}], got {n_modes}")
    # LAPACK does not check E: one pass over it, with no n x k temporary;
    # a NaN or an infinity makes the sum non-finite
    if not np.isfinite(factor.sum()):
        raise NumericalError(f"eigensolve: the {n} x {k} covariance factor is not finite")
    qr, tau = _lapack(lapack.dgeqrf, factor, overwrite_a=1)
    r_factor = qr[:r].copy(order="F")
    r_factor[np.tri(r, k, -1, dtype=bool)] = 0.0
    try:
        u_r, s, _ = svd(r_factor, full_matrices=False, overwrite_a=True)
    except (LinAlgError, ValueError) as exc:  # ValueError: R is not finite
        raise NumericalError(f"eigensolve: the SVD of the {n} x {k} covariance factor failed ({exc})") from exc
    vectors = np.zeros((n, n_modes), order="F")
    vectors[:r] = u_r[:, :n_modes]
    (vectors,) = _lapack(lapack.dormqr, "L", "N", qr[:, :r], tau, vectors, overwrite_c=1)
    return LowRankFactors(eigenvalues=s[:n_modes] ** 2, vectors=vectors)


def _lapack(routine, *args, **kwargs) -> list:
    """The outputs of a LAPACK wrapper run with its optimal workspace, less
    the workspace and ``info``. ``kwargs`` go to the workspace query too, so
    an ``overwrite_*`` flag spares the query a copy of the array."""
    work = routine(*args, lwork=-1, **kwargs)[-2]
    *outputs, _, info = routine(*args, lwork=int(work[0]), **kwargs)
    if info < 0:
        raise ValueError(f"{routine.__name__}: illegal value in argument {-info}")
    return outputs


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
    products: np.ndarray, factors: LowRankFactors, grid: GridSpec
) -> DepositionGrid:
    """Deposition mean and per-cell std from H [q | U], shape (n_cells, 1 + n_e).

    Column 0 is the mean H q; the others are H applied to the retained
    eigenvectors l_e, so std_p = sqrt( sum_e lambda_e (H l_e)_p^2 ).
    """
    var = (products[:, 1:] ** 2) @ factors.eigenvalues
    return DepositionGrid(mean=products[:, 0], std=np.sqrt(np.maximum(var, 0.0)), grid=grid)


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
