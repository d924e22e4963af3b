"""Preconditioned Crank-Nicolson sampler for whitened linear data models.

Targets densities proportional to exp(-phi(v)) * N(v; m, C) with

    phi(v) = 1/2 || F h(v) - d ||^2,

F and d already whitened by the noise std and h an entrywise link (the
identity when omitted; clipping in the positive stage). Proposals use the
non-centered shift

    v~ = m + sqrt(1 - beta^2) (v - m) + beta w,    w ~ N(0, C),

accepted with probability min{1, exp(phi(v) - phi(v~))}, which leaves the
prior invariant when phi is constant and is robust to the dimension of v.
The step size beta is a setting (``SamplerConfig.beta``), never searched.

Randomness comes from a counter-based Philox generator with two spawned
streams: stream 0 drives prior draws, stream 1 drives acceptance
variables. One draw is consumed from each stream per step regardless of
the outcome, so a block's randomness is known before the block runs. The
chain therefore works a block of ``BLOCK_SIZE`` steps at a time, with
the randomness drawn up to two blocks ahead. The chain draws the
standard normals behind each w ~ N(0, C) itself, in the state's order,
and the caller's solve (``Solve``) turns a block of them into draws in
place. One draw thread does only the stream work, a block at a time,
and calls nothing but the two generators: block i's normals from stream
0 and its acceptance exponentials from stream 1 go into slot i mod 3 of
a preallocated ring of three block slots (drawing b at once leaves a
stream where b single draws leave it). The main thread solves, scales
and reads each block where it lands, in its slot, and hands the slot
back for block i + 3 only once the block's last step is done, so no
slot is written while it is read. A block that holds a flush takes
about twice as long as one that does not; with two blocks queued, the
draw thread keeps filling through such a block instead of waiting for
the main thread. The main thread does the rest: the solve, the scaling
by beta, one product forming F w for the whole block and one more
forming F v at its start, the accept loop and the moment updates; a
flush of kept states writes h(v) over them in the chain's own buffer, so
no second copy of the block is made. Each stream is read by one thread in
block order, so the draws do not depend on how the two threads are
scheduled. The Philox fills, NumPy's matmul and SciPy's sparse products
release the GIL; SciPy's BLAS and LAPACK wrappers (``dgemm``, the
``dpttrs`` solve) hold it. A Python loop on another thread took 0.071 s
beside 200 of the chain's sketch products (Omega^T A^T) against 0.068 s
alone, and 0.135 s beside its ``dgemm`` updates, whose time it then
shares (2 vCPUs). ``pipeline`` runs every stage with BLAS on one thread
(``threads.single``), so the draw thread has a core of its own. On a
10k-step invert of the bundled case (2 vCPUs) the main thread waits
0.01-0.08 s in all for the draws, the first block's included; the draw
thread fills for 0.91-1.37 s, about 90-140 us a step, which is now the
chain's floor.
The accept loop runs in the data space, where

    F v~ = F m + sqrt(1 - beta^2) (F v - F m) + beta F w,

and F (h(v~) - v~) is added on the columns where the link moves v~ (for
clipping, the negative entries), so phi is exact without a product by F
per step. The state part of that sum, base = m + sqrt(1 - beta^2)(v - m),
its image under F and min(base) are formed once per state change (an
acceptance, or a block start, where F v is formed afresh), and each
step adds only F (beta w_k) and forms the residual. The link is the
identity on nonnegative entries (``pcn_chain``), and rounding is
monotone, so when fl(min(base) + min(beta w_k)) >= 0 no entry of the
proposal is negative and the link is not applied; a NaN or -inf bound
takes the exact path. The proposal base + beta w_k itself is formed
only where that bound fails or the step is accepted, so a rejected step
forms no vector of the state's size. The products by F take its rows
apart by density (``RowSplit``):
the few rows with more than n/8 nonzeros (dustfall jars, each spanning
the whole period) go through one BLAS GEMM, the rest stay sparse. Every
column of the draw and of the product is computed on its own, and the
GEMM always runs at the full block width, so chains of different lengths
share their common prefix of states and potentials bit for bit.

Running moments use a blocked, numerically stable one-pass (Welford/Chan)
update so chains of 1e5+ states in thousands of dimensions never need to
be stored. The kept chain is a sequence of distinct states with dwell
counts (Douc & Robert 2011, Ann. Statist.); each distinct state reaches
``OnlineMoments.update_block`` once, with its count. The n x n scatter is
never formed: each block adds its exact diagonal and its product with a
fixed n x ``SKETCH_SIZE`` test matrix Omega, a sparse product and one GEMM
instead of a rank-64 ``syrk``, and ``second_moment`` turns them into the
diagonal and the sketch Y = C Omega of the second moment C about a given
point. Omega is a sparse sign matrix: ``SKETCH_NONZEROS`` entries of +-1 in
distinct columns of each row (Tropp, Yurtsever, Udell & Cevher 2019,
"Streaming low-rank matrix approximation with an application to
scientific simulation", SIAM J. Sci. Comput.).
``pcn_chain`` returns one ``ChainSummary``: the chain mean, h of it, the
sketch about that point, the potential trace and the diagnostics. Where
the factor is kept, ``CovarianceSketch.nystrom_factor`` then gives the
stable single-pass Nystrom factor E, with E E^T <= C, from which the
leading eigenpairs follow (Tropp, Yurtsever, Udell & Cevher 2017,
"Fixed-rank approximation of a positive-semidefinite matrix from
streaming data", NeurIPS; Halko, Martinsson & Tropp 2011, SIAM Review,
sec. 5.5). Up to ``SKETCH_SIZE`` dimensions Omega is the identity, so Y
is C itself and small problems stay exact. Omega comes from a generator
of its own and draws nothing from the chain's streams.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dgemm, dger, dtrsm
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csr_array
from scipy.special import ndtri

from .errors import NumericalError, ValidationError

__all__ = [
    "SamplerConfig",
    "ChainSummary",
    "OnlineMoments",
    "CovarianceSketch",
    "RowSplit",
    "sketch_test_matrix",
    "pcn_chain",
    "effective_sample_size",
    "split_r_hat",
]

logger = logging.getLogger(__name__)

BLOCK_SIZE = 64  # chain steps drawn per block, and distinct kept states per moment update
R_HAT_SPLITS = 4  # parts the kept potential trace is split into for split-R-hat
SKETCH_SIZE = 400  # columns of the test matrix the chain's covariance is sketched with
SKETCH_SEED = 0  # seed of the test matrix's own generator
SKETCH_NONZEROS = 8  # +-1 entries in each row of the sparse sign test matrix
_CENTRE_COLUMNS = 256  # columns of a block centred at a time in a moment update
_RING = 3  # block slots the draw thread fills ahead of the main thread

Link = Callable[[np.ndarray], np.ndarray]  # entrywise, the identity on nonnegative entries
Solve = Callable[[np.ndarray], None]  # standard normals to draws of the prior, in place


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters: step size beta in (0, 1], length, burn-in, seed.

    This is also the ``sampler`` section of a run config, so out-of-range
    values raise ``ValidationError`` before any stage runs.
    """

    beta: float = 0.6
    n_steps: int = 100_000
    burn_in_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 1.0):
            raise ValidationError(f"sampler.beta must be in (0, 1], got {self.beta}")
        if self.n_steps < 1:
            raise ValidationError(f"sampler.n_steps must be at least 1, got {self.n_steps}")
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ValidationError(
                f"sampler.burn_in_fraction must be in [0, 1), got {self.burn_in_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"sampler.seed must be nonnegative, got {self.seed}")
        if self.n_burn >= self.n_steps:
            raise ValidationError(
                f"sampler.burn_in_fraction={self.burn_in_fraction} discards all "
                f"{self.n_steps} steps"
            )

    @property
    def n_burn(self) -> int:
        """Steps discarded as burn-in."""
        return int(round(self.burn_in_fraction * self.n_steps))


def _merged_mean(mean: np.ndarray, count: int, rows: np.ndarray, counts: np.ndarray):
    """(block mean, running mean after the block) for rows weighted by counts."""
    b = counts.sum()
    block_mean = counts @ rows / b
    return block_mean, mean + (block_mean - mean) * (b / (count + b))


def _sketch_matrix(dim: int) -> csr_array:
    """The test matrix Omega, as CSR: the identity up to ``SKETCH_SIZE``
    dimensions, and above it a fixed-seed dim x ``SKETCH_SIZE`` sparse sign
    matrix whose rows each hold ``SKETCH_NONZEROS`` entries of +-1 in
    distinct columns."""
    if dim <= SKETCH_SIZE:
        return csr_array((np.ones(dim), np.arange(dim), np.arange(dim + 1)), shape=(dim, dim))
    rng = np.random.default_rng(SKETCH_SEED)
    cols = rng.integers(0, SKETCH_SIZE, (dim, SKETCH_NONZEROS))
    while True:  # redraw the rows that repeat a column, about 7% a round
        cols.sort(axis=1)
        repeats = np.flatnonzero((np.diff(cols, axis=1) == 0).any(axis=1))
        if not repeats.size:
            break
        cols[repeats] = rng.integers(0, SKETCH_SIZE, (repeats.size, SKETCH_NONZEROS))
    signs = rng.integers(0, 2, cols.shape) * 2.0 - 1.0
    indptr = np.arange(0, cols.size + 1, SKETCH_NONZEROS)
    return csr_array((signs.ravel(), cols.ravel(), indptr), shape=(dim, SKETCH_SIZE))


def sketch_test_matrix(dim: int) -> dict:
    """The test matrix of a dim-dimensional sketch, as run metadata."""
    if dim <= SKETCH_SIZE:
        return {"test_matrix": "identity", "nonzeros_per_row": 1}
    return {"test_matrix": "sparse_sign", "nonzeros_per_row": SKETCH_NONZEROS}


@dataclass(eq=False)
class CovarianceSketch:
    """A covariance C held as its exact diagonal and the sketch Y = C Omega.

    With Omega the identity (``omega.shape[1] == dim``) Y is C itself.
    """

    diag: np.ndarray  # (dim,)
    omega: csr_array  # (dim, width)
    y: Optional[np.ndarray]  # (dim, width), Fortran-ordered; None once factored

    def nystrom_factor(self) -> np.ndarray:
        """E, dim x width, with E E^T the shifted Nystrom approximation of C.

        The shift nu = sqrt(dim) eps(||Y||_F) makes the core
        Omega^T Y_nu = Omega^T (Y + nu Omega) positive definite; its upper
        Cholesky factor R gives E = Y R^-1, so E E^T = Y (Omega^T Y_nu)^-1 Y^T.
        That is the stable single-pass Nystrom approximation of Tropp et al.
        2017 (Alg. 3), with Y in place of Y_nu outside the core so that
        E E^T <= C holds without a correction by nu: 1 - ||E||_F^2 / tr C
        bounds the sketch's error in the trace norm. E is written over Y,
        which the sketch then no longer holds. Raises ``NumericalError``
        when the core does not factor.
        """
        nu = math.sqrt(self.y.shape[0]) * float(np.spacing(np.linalg.norm(self.y)))
        omega_t = self.omega.T
        core = nu * (omega_t @ self.omega).toarray()
        # Omega^T Y a tile of columns at a time: the sparse product copies
        # its operand to C order, and a copy of the whole Y would set
        # invert's memory high water
        for j in range(0, core.shape[1], BLOCK_SIZE):
            core[:, j : j + BLOCK_SIZE] += omega_t @ self.y[:, j : j + BLOCK_SIZE]
        r, info = dpotrf(0.5 * (core + core.T), lower=0, clean=1, overwrite_a=1)
        if info != 0:
            raise NumericalError(
                f"Cholesky factorization of the Nystrom sketch core failed (LAPACK info {info})"
            )
        factor, self.y = dtrsm(1.0, r, self.y, side=1, lower=0, overwrite_b=1), None
        return factor


class OnlineMoments:
    """Blocked one-pass mean and covariance-sketch accumulator.

    Merges per-block moments into the running mean and the scatter's
    diagonal and sketch via the parallel-variance (Chan) update. Each block
    stacks its rows centered on the block mean and scaled by the square
    root of their counts, and the scaled mean shift, as a (b + 1) x dim
    array A; the scatter grows by A^T A, so its diagonal grows by the
    column sums of A * A and its sketch Y (dim x width, Fortran-ordered,
    updated in place) by A^T (A Omega): a sparse product and one GEMM.
    Accuracy does not degrade with chain length, and nothing dim x dim is
    built once dim exceeds ``SKETCH_SIZE``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.diag = np.zeros(dim)
        self.omega = _sketch_matrix(dim)
        self.y = np.zeros(self.omega.shape, order="F")

    def update_block(self, rows: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        """Add ``rows``, row i counted ``counts[i]`` times (once each by default)."""
        rows = np.asarray(rows)
        b = rows.shape[0]
        if b == 0:
            return
        counts = np.ones(b) if counts is None else np.asarray(counts, dtype=float)
        block_mean, mean = _merged_mean(self.mean, self.count, rows, counts)
        n_block = int(counts.sum())
        n_new = self.count + n_block
        # Rows 0..b-1: sqrt(count_i) (row_i - block mean); row b:
        # sqrt(count*n_block/n_new) * delta, whose outer product is the
        # between-means term of the merge.
        # Rows are centred and scaled in C order, a chunk of columns at a
        # time, and copied into the Fortran-ordered A: a whole centred copy
        # would add its size to the chain's peak, and writing A directly
        # strides through memory.
        stacked = np.empty((b + 1, self.dim), order="F")
        scale = np.sqrt(counts)[:, None]
        for j in range(0, self.dim, _CENTRE_COLUMNS):
            cols = slice(j, j + _CENTRE_COLUMNS)
            chunk = rows[:, cols] - block_mean[cols]
            chunk *= scale
            stacked[:b, cols] = chunk
        np.multiply(
            block_mean - self.mean, math.sqrt(self.count * n_block / n_new), out=stacked[b]
        )
        self.diag += np.einsum("ij,ij->j", stacked, stacked)
        # A Omega, formed as (Omega^T A^T)^T: A^T is C-ordered, so the
        # sparse product reads it in place
        z = (self.omega.T @ stacked.T).T
        self.y = dgemm(1.0, stacked, z, beta=1.0, c=self.y, trans_a=1, overwrite_c=1)
        self.mean = mean
        self.count = n_new

    def second_moment(self, point: np.ndarray) -> CovarianceSketch:
        """Sketch of the second moment about ``point``, formed in the sketch's own memory.

        The second moment is sum_k (x_k - point)(x_k - point)^T / count,
        which is scatter / count + (mean - point)(mean - point)^T; the
        rank-1 term enters the diagonal and, as a rank-1 update, Y. The
        array Y is handed over: the accumulator keeps none afterwards.
        """
        if self.count == 0:
            raise ValueError("no samples accumulated")
        y, self.y = self.y, None
        offset = self.mean - np.asarray(point, dtype=float)
        y /= self.count
        y = dger(1.0, offset, offset @ self.omega, a=y, overwrite_a=1)
        return CovarianceSketch(diag=self.diag / self.count + offset**2, omega=self.omega, y=y)


@dataclass(eq=False)
class ChainSummary:
    """One chain's moments and diagnostics over its kept (post-burn-in) steps.

    ``mean`` is the chain mean of v and ``point`` is h(mean), with h the
    chain's link (the identity without one). ``cov`` sketches the chain's
    second moment of h(v) about ``point``; without a link it is the
    covariance of v. ``phi_trace`` is the potential after each kept step,
    and ``ess`` and ``r_hat`` are read off it, except for a chain that kept
    one state: it never moved, so its ESS is 1 and its R-hat is undefined
    (NaN). A constant trace alone does not say that: under a flat
    potential every step is accepted.
    """

    mean: np.ndarray
    point: np.ndarray
    cov: CovarianceSketch
    phi_trace: np.ndarray
    acceptance_rate: float
    ess: float
    r_hat: float
    n_steps: int
    n_kept: int
    beta: float
    n_nonfinite: int


def effective_sample_size(trace: np.ndarray) -> float:
    """ESS of a scalar trace via the initial-positive-sequence estimator."""
    trace = np.asarray(trace, dtype=float)
    n = trace.size
    if n < 4:
        return float(n)
    centered = trace - trace.mean()
    var = float(centered @ centered) / n
    if var == 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[:n].real / n
    rho = acov / acov[0]
    # Sum autocorrelations while consecutive pairs stay positive (Geyer).
    tau = 1.0
    for k in range(1, n // 2):
        pair = rho[2 * k - 1] + rho[2 * k]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / tau)


def _r_hat(parts: np.ndarray) -> float:
    """Gelman-Rubin R-hat of equal-length parts (rows), on normal scores of ranks."""
    n = parts.shape[1]
    # Average ranks (ties share the mean of their ranks), then Blom's normal scores.
    _, inverse, ties = np.unique(parts, return_inverse=True, return_counts=True)
    last = np.cumsum(ties)
    ranks = (0.5 * (last - ties + 1 + last))[inverse].reshape(parts.shape)
    z = ndtri((ranks - 0.375) / (parts.size + 0.25))
    within = float(z.var(axis=1, ddof=1).mean())
    between = n * float(z.mean(axis=1).var(ddof=1))
    if within == 0.0:
        return 1.0 if between == 0.0 else math.inf
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def split_r_hat(trace: np.ndarray) -> float:
    """Rank-normalized split-R-hat of one scalar trace (Vehtari et al. 2021).

    The trace is cut into ``R_HAT_SPLITS`` equal parts (the first few values are
    dropped when the length does not divide), and the result is the larger
    of the rank-normalized R-hat of the parts (bulk) and that of their
    absolute deviations from the median (tails). Near 1 when the parts
    agree; values above about 1.01 flag a chain that has not mixed. A
    trace shorter than two values per part gives NaN.
    """
    trace = np.asarray(trace, dtype=float)
    n = trace.size // R_HAT_SPLITS
    if n < 2:
        return math.nan
    parts = trace[trace.size - n * R_HAT_SPLITS :].reshape(R_HAT_SPLITS, n)
    folded = np.abs(parts - np.median(parts))
    return max(_r_hat(parts), _r_hat(folded))


def _streams(seed: int):
    """The proposal and acceptance Philox generators of a chain."""
    seq_prop, seq_acc = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.Philox(seq_prop)),
            np.random.Generator(np.random.Philox(seq_acc)))


class RowSplit:
    """F with its rows apart by density, for the chain's products.

    Rows with more than n/8 nonzeros (n the number of columns) are one
    C-ordered dense array, multiplied by BLAS; the rest stay CSC. Products
    come back with the dense rows first: row i of a product is row
    ``order[i]`` of F. With ``row_scale``, row i of F is multiplied by
    ``row_scale[i]`` in the split's own copies, as ``inversion.whiten``
    whitens a copy of F, and to the same bits.
    """

    def __init__(self, f, row_scale: Optional[np.ndarray] = None):
        f = csr_array(f, dtype=float)
        dense = np.diff(f.indptr) > f.shape[1] / 8
        self.order = np.concatenate([np.flatnonzero(dense), np.flatnonzero(~dense)])
        self.n_dense = int(dense.sum())
        self.dense = f[self.order[: self.n_dense]].toarray()
        sparse = f[self.order[self.n_dense :]]
        if row_scale is not None:
            scale = np.asarray(row_scale, dtype=float)[self.order]
            self.dense *= scale[: self.n_dense, None]
            sparse.data *= np.repeat(scale[self.n_dense :], np.diff(sparse.indptr))
        self.sparse = sparse.tocsc()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """F x for a vector x."""
        return np.concatenate([self.dense @ x, self.sparse @ x])

    def columns(self, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F[:, cols] x."""
        return np.concatenate([self.dense[:, cols] @ x, self.sparse[:, cols] @ x])

    def block(self, w: np.ndarray, out: np.ndarray) -> None:
        """Column k of ``out`` becomes F w_k, w_k row k of the C-ordered ``w``.

        Callers pass the same width every time: the GEMM's rounding can
        depend on how many columns it is given.
        """
        np.matmul(self.dense, w.T, out=out[: self.n_dense])
        out[self.n_dense :] = self.sparse @ w.T


def pcn_chain(
    f_white,
    d_white: np.ndarray,
    prior_mean: np.ndarray,
    solve: Solve,
    cfg: SamplerConfig,
    link: Optional[Link] = None,
) -> ChainSummary:
    """Run one pCN chain on phi(v) = 1/2 ||F h(v) - d||^2 and return its moments.

    The chain runs ``cfg.n_steps`` steps a block at a time (see the module
    docstring). Its draw thread is joined before this returns or raises.

    Args:
        f_white: whitened forward matrix F (n_meas x dim; dense, sparse
            with column indexing, or a ``RowSplit`` of it). Zero rows give a
            flat potential. The chain holds F only as a ``RowSplit``, and
            works in that split's row order; a caller that passes the split
            need not keep F itself.
        d_white: whitened data d.
        prior_mean: m, the Gaussian prior mean.
        solve: the prior N(0, C) the proposals are drawn from, as the map
            that turns a C-ordered (b, dim) block of standard normals, one
            draw a row, into draws w ~ N(0, C) in place. It runs on the
            calling thread, and row k of its result must not depend on
            the other rows.
        cfg: chain parameters.
        link: the entrywise map h, the identity when omitted. It must be
            the identity on nonnegative entries (clipping, abs and the
            identity are): the chain skips it on proposals that a lower
            bound shows to be nonnegative. Non-finite potentials
            auto-reject the proposal.

    Returns:
        ChainSummary over the post-burn-in states.
    """
    m = np.asarray(prior_mean, dtype=float)
    f = f_white if isinstance(f_white, RowSplit) else RowSplit(f_white)
    d_white = np.asarray(d_white, dtype=float)[f.order]
    rng_prop, rng_acc = _streams(cfg.seed)
    shrink = math.sqrt(max(0.0, 1.0 - cfg.beta**2))

    def moves(low: float) -> bool:
        """Whether the link may move a vector whose entries are all >= low.

        Rounding is monotone, so a sum of two vectors has no entry below the
        rounded sum of their minima; a NaN or -inf bound gives True.
        """
        return link is not None and not low >= 0.0

    def phi(fv: np.ndarray, v: Optional[np.ndarray] = None) -> float:
        """phi given the linear part F v; v is passed where the link may move it."""
        if v is not None:
            moved = link(v) - v
            cols = np.flatnonzero(moved)
            if cols.size:
                fv = fv + f.columns(cols, moved[cols])
        residual = fv - d_white
        return 0.5 * float(residual @ residual)

    def rebase(v: np.ndarray, fv: np.ndarray):
        """(m + sqrt(1 - beta^2) (v - m), its image under F, its least entry):
        the part of each proposal from v that does not depend on the draw."""
        base = v - m
        base *= shrink
        base += m
        return base, fm + shrink * (fv - fm), float(base.min())

    burn = cfg.n_burn
    n_kept = cfg.n_steps - burn
    phi_trace = np.empty(n_kept)
    acc = OnlineMoments(m.size)
    mean_v = np.zeros(m.size)
    # Distinct kept states and their dwell counts, flushed BLOCK_SIZE at a time.
    rows = np.empty((min(BLOCK_SIZE, n_kept), m.size))
    counts = np.zeros(BLOCK_SIZE)
    fill = 0
    n_distinct = 0  # distinct states kept; 1 when the chain never moved after burn-in
    accepted = 0
    n_nonfinite = 0
    # The draw thread fills block i's normals and exponentials into ring
    # slot i % len(normals); the main thread solves and reads the block in
    # its slot and hands the slot back for the block a ring ahead once the
    # block's last step is done. Each slot and the block product ``fw_t``
    # keep BLOCK_SIZE rows for a shorter last block too, so the GEMM width
    # never changes; the slots start zeroed, so those rows stay finite.
    n_blocks = -(-cfg.n_steps // BLOCK_SIZE)
    normals = np.zeros((min(_RING, n_blocks), BLOCK_SIZE, m.size))
    exponentials = np.empty(normals.shape[:2])
    fw_t = np.empty((len(d_white), BLOCK_SIZE))

    def draw(i: int) -> None:
        """On the draw thread: block i's normals and exponentials, into its slot."""
        slot, b = i % len(normals), min(BLOCK_SIZE, cfg.n_steps - i * BLOCK_SIZE)
        rng_prop.standard_normal(out=normals[slot, :b])
        rng_acc.standard_exponential(out=exponentials[slot, :b])

    def flush() -> None:
        nonlocal mean_v
        kept, weights = rows[:fill], counts[:fill]
        _, mean_v = _merged_mean(mean_v, acc.count, kept, weights)
        if link is not None:
            # h(v) over v in the buffer itself, a row at a time: h is
            # entrywise, and a whole h(kept) would be a second copy of it
            for row in kept:
                row[:] = link(row)
        acc.update_block(kept, weights)

    v = m.copy()
    fm = f @ m
    with ThreadPoolExecutor(1, "pcn-draw") as drawer, np.errstate(
        over="ignore", invalid="ignore"  # a non-finite phi rejects
    ):
        phi_v = phi(fm, v if moves(float(m.min())) else None)
        if not math.isfinite(phi_v):
            raise NumericalError(f"potential at the prior mean is non-finite ({phi_v})")
        pending = [drawer.submit(draw, i) for i in range(len(normals))]
        for i, start in enumerate(range(0, cfg.n_steps, BLOCK_SIZE)):
            b = min(BLOCK_SIZE, cfg.n_steps - start)
            slot = i % len(normals)
            pending[slot].result()
            block = normals[slot, :b]
            solve(block)
            block *= cfg.beta
            low = block.min(axis=1).tolist()
            # log U = -Exp(1) exactly, one per step whatever the outcome.
            log_u = -exponentials[slot, :b]
            # F v is carried from step to step inside a block; forming it
            # afresh at each block start keeps its rounding error from
            # building up over many steps when beta is small.
            fv = f @ v
            f.block(normals[slot], fw_t)
            fw = fw_t.T  # row k is F (beta w_k)
            base, base_f, base_low = rebase(v, fv)
            for k in range(b):
                # The proposal is base + beta w_k; it is formed only
                # where the link may move it or where it is accepted.
                f_prop = base_f + fw[k]
                proposal = base + block[k] if moves(base_low + low[k]) else None
                phi_p = phi(f_prop, proposal)
                finite = math.isfinite(phi_p)
                accept = finite and log_u[k] <= phi_v - phi_p
                if accept:
                    v = base + block[k] if proposal is None else proposal
                    fv, phi_v = f_prop, phi_p
                    base, base_f, base_low = rebase(v, fv)
                accepted += accept
                n_nonfinite += not finite
                step = start + k
                if step < burn:
                    continue
                phi_trace[step - burn] = phi_v
                if accept or step == burn:
                    if fill == len(rows):
                        flush()
                        fill = 0
                    rows[fill] = v
                    counts[fill] = 0.0
                    fill += 1
                    n_distinct += 1
                counts[fill - 1] += 1.0
            if i + len(normals) < n_blocks:
                pending[slot] = drawer.submit(draw, i + len(normals))
        flush()
    if n_nonfinite:
        logger.warning("%d proposals rejected for non-finite potential", n_nonfinite)
    point = mean_v if link is None else link(mean_v)
    return ChainSummary(
        mean=mean_v,
        point=point,
        cov=acc.second_moment(point),
        phi_trace=phi_trace,
        acceptance_rate=accepted / cfg.n_steps,
        ess=1.0 if n_distinct == 1 else effective_sample_size(phi_trace),
        r_hat=math.nan if n_distinct == 1 else split_r_hat(phi_trace),
        n_steps=cfg.n_steps,
        n_kept=n_kept,
        beta=cfg.beta,
        n_nonfinite=n_nonfinite,
    )
