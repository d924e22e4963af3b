"""Preconditioned Crank-Nicolson sampler for Gaussian-prior posteriors.

Targets densities proportional to exp(-phi(v)) * N(v; m, C). Proposals use
the non-centered shift

    v~ = m + sqrt(1 - beta^2) (v - m) + beta w,    w ~ N(0, C),

accepted with probability min{1, exp(phi(v) - phi(v~))}, which leaves the
prior invariant when phi is constant and is robust to the dimension of v.

Randomness comes from a counter-based Philox generator with two spawned
streams: stream 0 drives prior draws, stream 1 drives acceptance
variables. One draw is consumed from each stream per step regardless of
the outcome, so chains of different lengths share their common prefix.

Running moments use a blocked, numerically stable one-pass (Welford/Chan)
update so chains of 1e5+ states in thousands of dimensions never need to
be stored. The scatter matrix is symmetric, so only its upper triangle is
accumulated, by one BLAS ``syrk`` per block; ``second_moment`` turns it
into the second moment about a given point and mirrors it, in place.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dsyrk

from .errors import ValidationError

__all__ = [
    "SamplerConfig",
    "ChainSummary",
    "OnlineMoments",
    "TuneResult",
    "pcn_chain",
    "tune_beta",
    "effective_sample_size",
]

logger = logging.getLogger(__name__)

BLOCK_SIZE = 256  # kept states buffered per moment update
TUNE_MAX_ITER = 12  # bisections tune_beta tries before settling for the closest beta
_TILE = 256  # tile edge of the in-place finish in OnlineMoments.second_moment


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


class OnlineMoments:
    """Blocked one-pass mean and scatter accumulator.

    Merges per-block moments into the running (mean, scatter) pair via the
    parallel-variance (Chan) update. The scatter is Fortran-ordered and only
    its upper triangle is kept: each block adds the centered block and the
    scaled mean shift, stacked as a (b + 1) x dim array A, through one
    in-place rank-(b + 1) update ``scatter += A^T A`` (BLAS ``dsyrk``), so
    accuracy does not degrade with chain length and no dense temporary is
    built. The lower triangle stays zero until ``second_moment`` fills it.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.scatter = np.zeros((dim, dim), order="F")

    def update_block(self, block: np.ndarray) -> None:
        block = np.asarray(block)
        b = block.shape[0]
        if b == 0:
            return
        block_mean = block.mean(axis=0)
        delta = block_mean - self.mean
        n_new = self.count + b
        # Rows 0..b-1: the centered block; row b: sqrt(count*b/n_new) * delta,
        # whose outer product is the between-means term of the merge.
        stacked = np.empty((b + 1, self.dim), order="F")
        np.subtract(block, block_mean, out=stacked[:b])
        np.multiply(delta, math.sqrt(self.count * b / n_new), out=stacked[b])
        self.scatter = dsyrk(
            1.0, stacked, beta=1.0, c=self.scatter, trans=1, lower=0, overwrite_c=1
        )
        self.mean = self.mean + delta * (b / n_new)
        self.count = n_new

    def second_moment(self, point: np.ndarray) -> np.ndarray:
        """Second moment about ``point``, formed in the scatter's own memory.

        Returns sum_k (x_k - point)(x_k - point)^T / count, which is
        scatter / count + (mean - point)(mean - point)^T, exactly symmetric.
        Each tile on or above the diagonal is divided by the count, gets
        its block of the rank-1 term and is then mirrored below the
        diagonal, so no second dim x dim array is built. The array is
        handed over: the accumulator keeps no scatter afterwards.
        """
        if self.count == 0:
            raise ValueError("no samples accumulated")
        out, self.scatter = self.scatter, None
        offset = self.mean - np.asarray(point, dtype=float)
        for i in range(0, self.dim, _TILE):
            rows = slice(i, i + _TILE)
            for j in range(i, self.dim, _TILE):
                cols = slice(j, j + _TILE)
                tile = out[rows, cols]
                tile /= self.count
                tile += np.outer(offset[rows], offset[cols])
                if j > i:
                    out[cols, rows] = tile.T
            # The diagonal tile's lower triangle holds only the rank-1 term.
            diag = out[rows, rows]
            lower = np.tril_indices(diag.shape[0], -1)
            diag[lower] = diag.T[lower]
        return out.T  # C-ordered, and equal to ``out`` by symmetry


@dataclass(eq=False)
class ChainSummary:
    """First two chain moments plus diagnostics, burn-in already discarded.

    ``mean`` is the chain mean of v. ``cov`` is the chain second moment of
    g(v) about g(mean), with g the chain's transform; without one, g is the
    identity and ``cov`` is the covariance of v.
    """

    mean: np.ndarray
    cov: np.ndarray
    acceptance_rate: float
    ess: float
    n_steps: int
    n_kept: int
    beta: float
    n_nonfinite: int = 0


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


def _pcn_steps(
    potential: Callable[[np.ndarray], float],
    prior_mean: np.ndarray,
    prior_sample: Callable[[np.random.Generator], np.ndarray],
    cfg: SamplerConfig,
):
    """Run ``cfg.n_steps`` pCN steps, yielding (v, phi(v), accepted, finite) after each.

    ``finite`` is False when the proposal's potential was non-finite; such
    a proposal is rejected.
    """
    prior_mean = np.asarray(prior_mean, dtype=float)
    root = np.random.SeedSequence(cfg.seed)
    seq_prop, seq_acc = root.spawn(2)
    rng_prop = np.random.Generator(np.random.Philox(seq_prop))
    rng_acc = np.random.Generator(np.random.Philox(seq_acc))

    v = prior_mean.copy()
    phi_v = float(potential(v))
    if not math.isfinite(phi_v):
        raise ValueError("potential is non-finite at the prior mean")
    shrink = math.sqrt(max(0.0, 1.0 - cfg.beta**2))
    for _ in range(cfg.n_steps):
        w = prior_sample(rng_prop)
        proposal = prior_mean + shrink * (v - prior_mean) + cfg.beta * w
        phi_p = float(potential(proposal))
        # log U = -Exp(1) exactly; one acceptance draw per step keeps the
        # stream position a function of the step index alone.
        log_u = -rng_acc.exponential()
        finite = math.isfinite(phi_p)
        accept = finite and log_u <= phi_v - phi_p
        if accept:
            v = proposal
            phi_v = phi_p
        yield v, phi_v, accept, finite


def pcn_chain(
    potential: Callable[[np.ndarray], float],
    prior_mean: np.ndarray,
    prior_sample: Callable[[np.random.Generator], np.ndarray],
    cfg: SamplerConfig,
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ChainSummary:
    """Run one pCN chain and return its accumulated moments.

    Args:
        potential: phi(v); non-finite values auto-reject the proposal.
        prior_mean: m, the Gaussian prior mean.
        prior_sample: draws w ~ N(0, C) given a numpy Generator.
        cfg: chain parameters.
        transform: optional map g, the identity when omitted; second
            moments are accumulated for g(v), about g of the chain mean of v.

    Returns:
        ChainSummary over the post-burn-in states.
    """
    burn = cfg.n_burn
    n_kept = cfg.n_steps - burn
    dim = np.size(prior_mean)
    moments = OnlineMoments(dim)
    buf_v = np.empty((min(BLOCK_SIZE, n_kept), dim))
    buf_g = buf_v if transform is None else np.empty_like(buf_v)
    mean_v = np.zeros(dim)
    fill = 0
    accepted = 0
    n_nonfinite = 0
    phi_trace = np.empty(n_kept)

    steps = _pcn_steps(potential, prior_mean, prior_sample, cfg)
    for step, (v, phi_v, accept, finite) in enumerate(steps):
        accepted += accept
        n_nonfinite += not finite
        if step < burn:
            continue
        phi_trace[step - burn] = phi_v
        buf_v[fill] = v
        if transform is not None:
            buf_g[fill] = transform(v)
        fill += 1
        if fill == buf_v.shape[0] or step == cfg.n_steps - 1:
            # The mean update of OnlineMoments.update_block, so without a
            # transform mean_v equals moments.mean bit for bit.
            block_mean = buf_v[:fill].mean(axis=0)
            mean_v = mean_v + (block_mean - mean_v) * (fill / (moments.count + fill))
            moments.update_block(buf_g[:fill])
            fill = 0

    if n_nonfinite:
        logger.warning("%d proposals rejected for non-finite potential", n_nonfinite)
    point = mean_v if transform is None else transform(mean_v)
    return ChainSummary(
        mean=mean_v,
        cov=moments.second_moment(point),
        acceptance_rate=accepted / cfg.n_steps,
        ess=effective_sample_size(phi_trace),
        n_steps=cfg.n_steps,
        n_kept=n_kept,
        beta=cfg.beta,
        n_nonfinite=n_nonfinite,
    )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of the step-size search."""

    beta: float
    acceptance_rate: float
    in_band: bool


def tune_beta(
    potential: Callable[[np.ndarray], float],
    prior_mean: np.ndarray,
    prior_sample: Callable[[np.random.Generator], np.ndarray],
    target=(0.25, 0.35),
    pilot_steps: int = 2000,
    seed: int = 0,
) -> TuneResult:
    """Bisect beta until the pilot acceptance rate lands in ``target``.

    Acceptance is non-increasing in beta for pCN, so plain bisection on
    (0, 1] applies: start from beta = 1 and halve toward 0 while the rate
    is below the band. If the band is unreachable (e.g. a flat potential
    accepts everything even at beta = 1) or not hit within ``TUNE_MAX_ITER``
    bisections, the closest evaluated beta is returned with a warning.
    """
    if pilot_steps < 1000:
        raise ValueError("pilot_steps must be at least 1000")
    lo_band, hi_band = target
    if not (0.0 < lo_band < hi_band < 1.0):
        raise ValueError(f"invalid target band {target}")

    def rate(beta: float) -> float:
        cfg = SamplerConfig(beta=beta, n_steps=pilot_steps, burn_in_fraction=0.0, seed=seed)
        steps = _pcn_steps(potential, prior_mean, prior_sample, cfg)
        return sum(accept for _, _, accept, _ in steps) / pilot_steps

    evaluations = []
    r_top = rate(1.0)
    evaluations.append((1.0, r_top))
    if lo_band <= r_top <= hi_band:
        return TuneResult(1.0, r_top, True)
    if r_top > hi_band:
        logger.warning(
            "acceptance %.3f at beta=1 already above the band %s; band unreachable", r_top, target
        )
        return TuneResult(1.0, r_top, False)

    lo, hi = 0.0, 1.0  # acceptance at lo -> 1, at hi below the band
    for _ in range(TUNE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r_mid = rate(mid)
        evaluations.append((mid, r_mid))
        if lo_band <= r_mid <= hi_band:
            return TuneResult(mid, r_mid, True)
        if r_mid > hi_band:
            lo = mid
        else:
            hi = mid
    center = 0.5 * (lo_band + hi_band)
    beta_best, rate_best = min(evaluations, key=lambda br: abs(br[1] - center))
    logger.warning(
        "step-size search did not reach %s in %d bisections; returning beta=%.4g (rate %.3f)",
        target, TUNE_MAX_ITER, beta_best, rate_best,
    )
    return TuneResult(beta_best, rate_best, False)
