"""Three-stage estimation of the stacked emission-rate vector.

Stage 1 (constant): per-source constant rates by nonnegative least
squares on the whitened data misfit, solved in the package by Lawson and
Hanson's active-set method (one unknown per source, so a few iterations).
Stage 2 (smooth): closed-form Gaussian posterior under a second-order
smoothness prior centered at the constant fit. It makes no
(n_meas, n) array: the innovation matrix S comes from a few rows of F C
at a time, and the mean and std from one source's columns of F C at a
time, each formed again once S is factored.
Stage 3 (positive): clipped-Gaussian push-forward sampled by pCN, centered
at the clipped smooth mean; its result is the chain's ``ChainSummary``.

The prior covariance is C = I_{n_sources} kron L^-2 with L a scaled
tridiagonal operator. ``SmoothnessPrior(config, grid, n_sources)`` builds
it from the config's ``prior`` section (``PriorConfig``: alpha, gamma) on
a time grid. L is factored once as L = U D U^T (LAPACK ``dpttrf``), so
prior draws and covariance applications reduce to tridiagonal solves
(``dpttrs``) over every column at once; nothing is ever explicitly
inverted.

Every stage takes the forward operator F as a CSR array, as
``observation.assemble_F`` returns it (about 3% of its entries are
nonzero); a dense F is converted at entry, so both run the same
arithmetic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpttrf, dpttrs
from scipy.sparse import csr_array

from .errors import NumericalError, ValidationError
from .observation import TimeGrid
from .sampling import ChainSummary, RowSplit, SamplerConfig, pcn_chain

__all__ = [
    "PriorConfig",
    "SmoothnessPrior",
    "ConstantFit",
    "GaussianPosterior",
    "mle_constant",
    "gaussian_posterior",
    "clip_positive",
    "whiten",
    "make_potential",
    "positive_posterior",
]

logger = logging.getLogger(__name__)

KKT_TOL = 1e-10  # relative KKT residual bound for the constant stage
_NNLS_ITER_PER_UNKNOWN = 3  # the constant stage's outer-loop cap, 3n as in SciPy's nnls
_ROWS = 32  # rows per block where a stage works a few rows of an array at a time


@dataclass(frozen=True)
class PriorConfig:
    """Smoothness-prior parameters: the scale alpha and the smoothing weight gamma."""

    alpha: float = 1.0
    gamma: float = 5e-3

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValidationError(
                f"prior.alpha and prior.gamma must be positive, got {self.alpha} and {self.gamma}"
            )


class SmoothnessPrior:
    """Zero-mean Gaussian N(0, I kron L^-2) over source-major rate vectors.

    L = alpha * sqrt(dt/T) * (I - gamma * D) with D the Neumann
    second-difference stencil scaled by (T/dt)^2; the sqrt(dt/T) factor
    makes pointwise prior variances independent of the grid resolution.
    """

    def __init__(self, config: PriorConfig, grid: TimeGrid, n_sources: int):
        if n_sources < 1:
            raise ValueError("need at least one source")
        self.grid, self.n_sources = grid, n_sources
        n_t = grid.n_steps
        ratio = (grid.span / grid.dt) ** 2
        scale = config.alpha * np.sqrt(grid.dt / grid.span)
        diag_d = np.full(n_t, -2.0)
        diag_d[0] = diag_d[-1] = -1.0
        self._diag = scale * (1.0 - config.gamma * ratio * diag_d)
        self._off = np.full(n_t - 1, scale * (-config.gamma * ratio))
        # L = U D U^T with U unit upper bidiagonal; dpttrs solves with it.
        self._factor_d, self._factor_e, info = dpttrf(self._diag, self._off)
        if info != 0:
            raise NumericalError(f"prior operator L is not positive definite (dpttrf info {info})")

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def n(self) -> int:
        return self.n_sources * self.grid.n_steps

    @property
    def l_matrix(self) -> np.ndarray:
        """Dense L (n_steps x n_steps), for small-instance checks."""
        return np.diag(self._diag) + np.diag(self._off, 1) + np.diag(self._off, -1)

    def _solve_rows(self, a: np.ndarray) -> np.ndarray:
        """Each length-n_steps row r of ``a`` replaced by L^-1 r, in place when ``a`` is C-ordered.

        The rows of a C-ordered array are the columns of a Fortran-ordered
        one, which ``dpttrs`` solves one at a time in its own memory.
        """
        x, _ = dpttrs(self._factor_d, self._factor_e, a.reshape(-1, self.n_steps).T, overwrite_b=1)
        return x.T.reshape(a.shape)

    @property
    def normal_shape(self) -> tuple:
        """Shape of the standard normals behind one draw: time-major, (n_steps, n_sources)."""
        return (self.n_steps, self.n_sources)

    def fill_normals(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` (b, n_steps, n_sources) with standard normals from one call."""
        rng.standard_normal(out=out)

    def place_normals(self, normals: np.ndarray, out: np.ndarray) -> None:
        """Copy the (b, n_steps, n_sources) ``normals`` into the C-ordered
        (b, n) buffer ``out``, source-major."""
        b = len(normals)
        np.copyto(out.reshape(b, self.n_sources, self.n_steps), normals.transpose(0, 2, 1))

    def solve(self, out: np.ndarray) -> None:
        """Each source block xi of each row of the C-ordered ``out`` replaced by L^-1 xi, in place."""
        self._solve_rows(out)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        """Draws w ~ N(0, C) via w_block = L^-1 xi (L is symmetric).

        One draw as an (n,) vector, or ``size`` draws as a (size, n) array.
        The normals come from one ``fill_normals`` call, so ``rng`` ends
        where ``size`` single draws leave it, and each block of each draw is
        solved on its own: draw k is the same, bit for bit, whatever
        ``size`` is, and the same as the chain's from the same stream.
        """
        b = 1 if size is None else size
        normals = np.empty((b, *self.normal_shape))
        self.fill_normals(rng, normals)
        out = np.empty((b, self.n))
        self.place_normals(normals, out)
        self.solve(out)
        return out[0] if size is None else out

    def apply_cov_to_rows(self, a: np.ndarray) -> np.ndarray:
        """Each length-n row r of the float array ``a`` replaced by C r, or
        each length-n_steps row by L^-2 r.

        Two tridiagonal solves per block, in place when ``a`` is C-ordered.
        With ``a`` = F this is F C, since C is symmetric; with ``a`` the
        columns of one source's block of F, it is that block of F C.
        """
        if a.shape[-1] not in (self.n, self.n_steps):
            raise ValueError(
                f"expected rows of length {self.n} or {self.n_steps}, got {a.shape[-1]}"
            )
        return self._solve_rows(self._solve_rows(a))

    def cov_block(self) -> np.ndarray:
        """Dense L^-2, the covariance of one source block."""
        # Rows of L^-1 M are columns of M L^-1; L and L^-1 are symmetric.
        return self._solve_rows(self._solve_rows(np.eye(self.n_steps)))

    def dense_cov(self) -> np.ndarray:
        """Dense C = I kron L^-2. Only sensible at small-to-moderate n."""
        block = self.cov_block()
        n_t = self.n_steps
        out = np.zeros((self.n, self.n))
        for s in range(self.n_sources):
            out[s * n_t : (s + 1) * n_t, s * n_t : (s + 1) * n_t] = block
        return out

    def marginal_var(self) -> np.ndarray:
        """Pointwise prior variances of one source block, diag(L^-2).

        Formed from ``_ROWS`` rows of L^-2 at a time, so no n_steps^2 array
        is built; each row is solved on its own, as in ``cov_block``.
        """
        n_t = self.n_steps
        out = np.empty(n_t)
        for start in range(0, n_t, _ROWS):
            stop = min(start + _ROWS, n_t)
            rows = self._solve_rows(self._solve_rows(np.eye(stop - start, n_t, k=start)))
            out[start:stop] = np.diagonal(rows, offset=start)
        return out


@dataclass(frozen=True, eq=False)
class ConstantFit:
    """Constant-rate stage result: one nonnegative rate per source."""

    rates: np.ndarray  # per-source constants, kg s^-1
    q: np.ndarray  # rates replicated over the grid, source-major
    kkt_residual: float
    unique: bool


def _nnls(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """argmin || a x - b || over x >= 0 by Lawson and Hanson's active-set method.

    (*Solving Least Squares Problems*, 1974, ch. 23.) From x = 0, the
    column with the largest gradient a^T (b - a x) above ``tol`` joins the
    passive set, and least squares is solved on the passive columns. While
    a passive coefficient of that solve is not positive, x steps towards it
    as far as the bound allows and the columns that reach zero leave the
    set. Each outer pass adds one column; after 3n of them the solve raises
    ``NumericalError``.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)

    def passive_solve() -> np.ndarray:
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    for _ in range(_NNLS_ITER_PER_UNKNOWN * n):
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        entering = int(np.argmax(grad))
        if grad[entering] <= tol:
            return x
        passive[entering] = True
        z = passive_solve()
        if z[entering] <= 0:  # its gradient was roundoff: it cannot leave zero
            return x
        while (blocked := passive & (z <= 0)).any():
            ratio = x[blocked] / (x[blocked] - z[blocked])
            x += ratio.min() * (z - x)
            x[np.flatnonzero(blocked)[np.argmin(ratio)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            z = passive_solve()
        x = z
    raise NumericalError(
        f"the constant stage's NNLS did not converge in {_NNLS_ITER_PER_UNKNOWN * n} iterations"
    )


def mle_constant(
    f_matrix,
    d: np.ndarray,
    noise_var: np.ndarray,
    n_sources: int,
) -> ConstantFit:
    """Constant-per-source maximum likelihood via nonnegative least squares.

    Minimizes || Sigma^-1/2 (F A p - d) ||^2 over p >= 0 where A replicates
    each source's scalar across its time slots, by the package's own
    Lawson-Hanson solve (``_nnls``). Its gradient test is relative to
    max(1, |(Sigma^-1/2 F A)^T Sigma^-1/2 d|), the scale the KKT residual of
    the returned point is then verified against, at a 1e-10 relative bound.
    """
    f = csr_array(f_matrix, dtype=float)
    d = np.asarray(d, dtype=float)
    noise_var = np.asarray(noise_var, dtype=float)
    n_cols = f.shape[1]
    if n_cols % n_sources:
        raise ValueError("F column count is not a multiple of n_sources")
    n_t = n_cols // n_sources
    inv_std = 1.0 / np.sqrt(noise_var)
    fa = f @ np.repeat(np.eye(n_sources), n_t, axis=0)  # F A, (n_meas, n_sources)
    design = fa * inv_std[:, None]
    target = d * inv_std
    scale = max(1.0, float(np.abs(design.T @ target).max()))
    tol = 10 * max(design.shape) * np.finfo(float).eps * scale  # a gradient's roundoff
    rates = _nnls(design, target, tol)

    grad = design.T @ (target - design @ rates)  # ascent direction of the fit
    active = rates > 0
    kkt = 0.0
    if active.any():
        kkt = float(np.abs(grad[active]).max())
    if (~active).any():
        kkt = max(kkt, float(np.maximum(grad[~active], 0.0).max()))
    kkt /= scale
    if kkt > KKT_TOL:
        raise NumericalError(f"NNLS did not converge: relative KKT residual {kkt:.3e}")

    # The minimizer is unique iff every column that can carry weight at the
    # optimum (active, or inactive with a zero gradient) is independent of
    # the others; a zero-gradient column alone does not break uniqueness.
    candidates = active | (np.abs(grad) <= 1e-12 * scale)
    unique = True
    if candidates.any():
        sv = np.linalg.svd(design[:, candidates], compute_uv=False)
        unique = sv[-1] > 1e-10 * sv[0]
    if not unique:
        logger.warning("constant-stage minimizer is not unique (tied active sets)")

    return ConstantFit(
        rates=rates,
        q=np.repeat(rates, n_t),
        kkt_residual=kkt,
        unique=unique,
    )


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """Closed-form smooth-stage posterior N(mean, C - W^T W).

    W is L_S^-1 F C, with L_S the lower Cholesky factor of the innovation
    matrix S = Sigma + F C F^T, so W^T W is the variance the data remove
    from the prior C. ``gaussian_posterior`` forms W one source's columns
    at a time, for ``std``, and the posterior keeps the noise variances
    instead of L_S: it holds no (n_meas, n) or (n_meas, n_meas) array.
    ``cov`` factors S again and rebuilds W whole.
    """

    mean: np.ndarray
    std: np.ndarray
    prior: SmoothnessPrior
    f_matrix: csr_array  # (n_meas, n)
    noise_var: np.ndarray  # (n_meas,), the diagonal of Sigma

    @staticmethod
    def pointwise_std(prior: SmoothnessPrior, removed: np.ndarray) -> np.ndarray:
        """sqrt(diag(C) - removed), roundoff negatives clipped to zero.

        ``removed`` is diag(W^T W), the squared column norms of W.
        """
        var = np.tile(prior.marginal_var(), prior.n_sources)
        var -= removed
        return np.sqrt(np.maximum(var, 0.0))

    @property
    def cov(self) -> np.ndarray:
        """Dense n x n posterior covariance, for small-instance checks."""
        factor = _innovation_factor(self.f_matrix, self.noise_var, self.prior)
        w = _whitened_gain(self.prior.apply_cov_to_rows(self.f_matrix.toarray()), factor)
        cov = self.prior.dense_cov()
        cov -= w.T @ w
        return cov


def _whitened_gain(fc: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """W = L_S^-1 (F C) formed in the C-ordered buffer ``fc``, or a block
    of F C's columns, with L_S the lower triangle of ``factor``.

    The buffer read as Fortran-ordered is (F C)^T, and W^T L_S^T = (F C)^T
    is one triangular solve from the right (BLAS ``dtrsm``) in that memory.
    """
    w_t = dtrsm(1.0, factor, fc.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    return w_t.T


def _innovation_factor(f: csr_array, noise_var: np.ndarray, prior: SmoothnessPrior) -> np.ndarray:
    """L_S, the lower Cholesky factor of S = Sigma + F C F^T, made in S's memory.

    S is formed ``_ROWS`` of its columns at a time, from the same rows of
    F C: S[:, rows] = F (F_rows C)^T, so no (n_meas, n) array is made. It
    is symmetrised in place, a band of rows and its mirror at a time, and
    LAPACK ``dpotrf`` factors it where it lies. The result is
    Fortran-ordered: L_S in its lower triangle, S above it.

    Raises:
        NumericalError: S does not factor; the message gives the condition
            number of S, rebuilt from the triangle the factorization leaves
            and a copy of the diagonal.
    """
    n_meas = f.shape[0]
    s = np.empty((n_meas, n_meas))
    for start in range(0, n_meas, _ROWS):
        fc_rows = prior.apply_cov_to_rows(f[start : start + _ROWS].toarray())
        s[:, start : start + _ROWS] = f @ fc_rows.T
    s[np.diag_indices_from(s)] += noise_var
    # (S + S^T) / 2 entry by entry; a + b == b + a, so mirrored entries agree
    for start in range(0, n_meas, _ROWS):
        band = slice(start, start + _ROWS)
        half_sum = 0.5 * (s[band, start:] + s[start:, band].T)
        s[band, start:] = half_sum
        s[start:, band] = half_sum.T
    diagonal = np.diagonal(s).copy()
    # S is symmetric, so its transpose is S in Fortran order
    factor, info = dpotrf(s.T, lower=1, clean=0, overwrite_a=1)
    if info != 0 or not np.isfinite(np.diagonal(factor)).all():
        intact = np.triu(factor, 1)
        intact += intact.T + np.diag(diagonal)
        cond = float(np.linalg.cond(intact)) if np.isfinite(intact).all() else np.nan
        raise NumericalError(
            f"innovation matrix factorization failed (condition number {cond:.3e})"
        )
    return factor


def gaussian_posterior(
    f_matrix,
    d: np.ndarray,
    noise_var: np.ndarray,
    prior: SmoothnessPrior,
    prior_mean: np.ndarray,
) -> GaussianPosterior:
    """Gaussian update of the smoothness prior with the linear data model.

        mean = m + C F^T (Sigma + F C F^T)^-1 (d - F m)
        cov  = C - C F^T (Sigma + F C F^T)^-1 F C = C - W^T W

    solved through a Cholesky factorization L_S L_S^T of the
    (n_meas x n_meas) innovation matrix, with W = L_S^-1 F C. No
    (n_meas, n) array is made. C is block diagonal, so source s's columns
    of F C are F_s L^-2, with F_s its columns of F: each such
    (n_meas, n_steps) block is formed after the factorization, gives its
    part of the mean, becomes its block of W in its own memory, gives W's
    column norms there and is freed before the next.
    """
    f = csr_array(f_matrix, dtype=float)
    d = np.asarray(d, dtype=float)
    noise_var = np.asarray(noise_var, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    factor = _innovation_factor(f, noise_var, prior)
    gain = cho_solve((factor, True), d - f @ prior_mean)  # S^-1 (d - F m)
    mean = np.empty(prior.n)
    removed = np.empty(prior.n)  # diag(W^T W)
    n_t = prior.n_steps
    for source in range(prior.n_sources):
        cols = slice(source * n_t, (source + 1) * n_t)
        fc = prior.apply_cov_to_rows(f[:, cols].toarray())
        mean[cols] = prior_mean[cols] + gain @ fc
        w = _whitened_gain(fc, factor)
        removed[cols] = np.einsum("ij,ij->j", w, w)
        del fc, w
    return GaussianPosterior(
        mean=mean,
        std=GaussianPosterior.pointwise_std(prior, removed),
        prior=prior,
        f_matrix=f,
        noise_var=noise_var,
    )


def clip_positive(v: np.ndarray) -> np.ndarray:
    """Entrywise max(0, v)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def _inv_std(noise_var: np.ndarray) -> np.ndarray:
    """Sigma^-1/2 as a vector: the factor each row of F and d is whitened by."""
    return 1.0 / np.sqrt(np.asarray(noise_var, dtype=float))


def whiten(f_matrix, d: np.ndarray, noise_var: np.ndarray):
    """(Sigma^-1/2 F as a CSR array, Sigma^-1/2 d).

    Most entries of F are zero (a sampler row covers only the time slots of
    its window), so F is whitened in sparse form, row by row, into a copy.
    The positive stage does not make this copy: it whitens F straight into
    the chain's ``RowSplit``.
    """
    inv_std = _inv_std(noise_var)
    f_white = csr_array(f_matrix, dtype=float, copy=True)
    f_white.data *= np.repeat(inv_std, np.diff(f_white.indptr))
    return f_white, np.asarray(d, dtype=float) * inv_std


def make_potential(
    f_matrix,
    d: np.ndarray,
    noise_var: np.ndarray,
    link: Callable[[np.ndarray], np.ndarray] = clip_positive,
) -> Callable[[np.ndarray], float]:
    """Whitened data misfit phi(v) = 1/2 || Sigma^-1/2 (F link(v) - d) ||^2.

    Each call costs one sparse product and one dot product. The chain
    evaluates phi in its own accept loop; this is the independent oracle
    that loop is checked against.
    """
    f_white, d_white = whiten(f_matrix, d, noise_var)

    def potential(v: np.ndarray) -> float:
        residual = f_white @ link(v) - d_white
        return 0.5 * float(residual @ residual)

    return potential


def positive_posterior(
    f_matrix,
    d: np.ndarray,
    noise_var: np.ndarray,
    prior: SmoothnessPrior,
    q_s: np.ndarray,
    cfg: SamplerConfig,
    link: Callable[[np.ndarray], np.ndarray] = clip_positive,
) -> ChainSummary:
    """Positivity stage: pCN on the latent v with data model F h(v).

    The chain targets exp(-phi(v)) N(v; h(q_s), C) with
    phi(v) = 1/2 || Sigma^-1/2 (F h(v) - d) ||^2 and h = ``link``
    (entrywise clipping by default; tests may pass the identity to recover
    the linear-Gaussian stage). The link must be the identity on
    nonnegative entries, as clipping, abs and the identity are: the chain
    skips it on proposals it can show to be nonnegative. F and d are
    whitened once here, F straight into the chain's ``RowSplit``, so no
    whitened copy of F is made beside it; the chain evaluates phi in its
    data space. The result is the chain's
    ``ChainSummary``: ``mean`` is the latent posterior mean, ``point`` is
    q_sp = h(mean), the stage's estimate, and ``cov`` sketches C_sp, the
    chain's second moment of h(v) about q_sp (not about the chain mean of
    h(v)), as its exact diagonal and Y = C_sp Omega. A caller that keeps
    the covariance calls ``cov.nystrom_factor()``, which writes the factor
    over Y.
    """
    prior_mean = link(np.asarray(q_s, dtype=float))
    inv_std = _inv_std(noise_var)
    f_white = RowSplit(f_matrix, row_scale=inv_std)
    d_white = np.asarray(d, dtype=float) * inv_std
    summary = pcn_chain(f_white, d_white, prior_mean, prior, cfg, link=link)
    if not (0.1 <= summary.acceptance_rate <= 0.6):
        logger.warning(
            "acceptance rate %.3f outside [0.1, 0.6] at beta %g; choose another "
            "sampler.beta or --beta", summary.acceptance_rate, cfg.beta,
        )
    return summary
