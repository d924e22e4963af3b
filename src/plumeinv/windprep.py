"""Gaussian-process regularization of raw wind records onto a time grid.

Raw anemometer records (speed + meteorological "blowing from" direction)
are converted to Cartesian components and each component is smoothed
independently by zero-mean GP regression with a squared-exponential
kernel. Hyperparameters come from ``CV_FOLDS``-fold cross-validation over
a small logarithmic candidate grid, on at most ``CV_MAX_POINTS`` records in
``CV_RUNS`` contiguous runs spread over the span: it sees the records' own
cadence at every horizon, where an even stride would coarsen with it.

The kernel falls below 2^-60 of its signal variance beyond
sqrt(120 ln 2) = 9.12 length scales. Entries past that cutoff are dropped,
so the Gram matrix is banded: its half-width is the most records any
record has within the cutoff after it, found with ``searchsorted`` on the
sorted times, so gaps in the records are handled exactly. The band is
factored with a banded Cholesky, and each query sums over the records
within its window. Time and memory grow as records x band, not as
records squared.

Cross-validation builds each length scale's kernel shapes once per fold
and each candidate scales them, so it costs one banded Cholesky and solve
per candidate. A Gram matrix that does not factor even with the jitter
raises NumericalError naming the wind component and the length scale.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import NumericalError
from .observation import TimeGrid

__all__ = [
    "RawWindRecord",
    "WindSeries",
    "GPConfig",
    "CVChoice",
    "to_components",
    "gp_posterior_mean",
    "default_candidates",
    "cross_validate",
    "select_hyperparameters",
    "fit_wind",
]

logger = logging.getLogger(__name__)

CV_MAX_POINTS = 400  # records the cross-validation subsamples down to (cost cap)
CV_RUNS = 8  # contiguous runs of records those points come in
CV_FOLDS = 10  # cross-validation folds; fewer points fall back to leave-one-out
CV_MIN_POINTS = 3  # fewer points leave some cross-validation fold under two to train on
# Kernel values below 2^-KERNEL_TOL_LOG2 of the signal variance are dropped:
# exp(-d^2 / (2 l^2)) < 2^-60 beyond d = sqrt(120 ln 2) l, about 9.12 l.
KERNEL_TOL_LOG2 = 60
_CUTOFF_PER_SCALE = math.sqrt(2.0 * KERNEL_TOL_LOG2 * math.log(2.0))
_QUERY_BLOCK_ENTRIES = 1 << 16  # query kernel entries per block: bounds its temporaries
_COMPONENTS = ("u_x", "u_y")


@dataclass(frozen=True)
class RawWindRecord:
    """One anemometer reading: speed and direction the wind blows from."""

    timestamp: float  # epoch s
    speed: float  # m s^-1
    direction_from: float  # degrees clockwise from north, in [0, 360); 360 reads as 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"speed must be finite and nonnegative, got {self.speed}")
        if not (0.0 <= self.direction_from <= 360.0):
            raise ValueError(f"direction must be in [0, 360], got {self.direction_from}")
        if self.direction_from == 360.0:  # north, as station exports write it
            object.__setattr__(self, "direction_from", 0.0)


@dataclass(frozen=True, eq=False)
class WindSeries:
    """Regularized wind components evaluated at the grid times."""

    grid: TimeGrid
    u_x: np.ndarray
    u_y: np.ndarray

    def __post_init__(self) -> None:
        ux = np.asarray(self.u_x, dtype=float)
        uy = np.asarray(self.u_y, dtype=float)
        if ux.shape != (self.grid.n_steps,) or uy.shape != (self.grid.n_steps,):
            raise ValueError("component lengths must equal the grid step count")
        if not (np.all(np.isfinite(ux)) and np.all(np.isfinite(uy))):
            raise ValueError("wind components must be finite")
        object.__setattr__(self, "u_x", ux)
        object.__setattr__(self, "u_y", uy)

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.u_x, self.u_y)


@dataclass(frozen=True)
class GPConfig:
    """Squared-exponential kernel hyperparameters."""

    signal_var: float  # s^2 in k(t,t') = s^2 exp(-(t-t')^2 / (2 l^2))
    length_scale: float  # l, seconds
    noise_var: float  # diagonal noise variance

    def __post_init__(self) -> None:
        if not (self.signal_var > 0 and self.length_scale > 0 and self.noise_var > 0):
            raise ValueError("GP hyperparameters must be positive")


@dataclass(frozen=True)
class CVChoice:
    """A cross-validated kernel and how clearly it won."""

    config: GPConfig
    score: float  # mean held-out squared error
    runner_up_gap: float | None  # (second-best score - score) / score; None when undefined


def to_components(record: RawWindRecord):
    """Cartesian (u_x, u_y) with y north: a wind *from* theta blows along
    (-sin theta, -cos theta)."""
    theta = math.radians(record.direction_from)
    return (-record.speed * math.sin(theta), -record.speed * math.cos(theta))


def _shape(d: np.ndarray, length_scale: float) -> np.ndarray:
    """The kernel over its signal variance, exp(-d^2 / (2 l^2))."""
    return np.exp(-(d**2) / (2.0 * length_scale**2))


class _Support:
    """One length scale's kernel shapes on sorted training times.

    ``band`` holds the Gram matrix's shape in LAPACK upper band storage:
    its half-width is the most records any record has after it within the
    cutoff, so every Gram entry above 2^-KERNEL_TOL_LOG2 of the signal
    variance lies in it. Row ``half_width - k`` of the band holds the k-th
    superdiagonal; the entries left of each superdiagonal's start are never
    read. ``window`` is the most records in any interval of length
    2 * cutoff, so it depends on the training times alone and each query's
    window of records does not depend on the other queries.
    """

    def __init__(self, times: np.ndarray, length_scale: float):
        self.times, self.length_scale = times, length_scale
        self.cutoff = _CUTOFF_PER_SCALE * length_scale
        rank = np.arange(times.size)
        cut = self.cutoff
        half_width = int(np.max(np.searchsorted(times, times + cut, side="right") - rank)) - 1
        self.window = int(np.max(np.searchsorted(times, times + 2.0 * cut, side="right") - rank))
        offset = np.arange(half_width, -1, -1)[:, None]
        self.band = _shape(times - times[np.maximum(rank - offset, 0)], length_scale)

    def weights(self, values: np.ndarray, cfg: GPConfig) -> np.ndarray:
        """(K + noise I)^-1 values for the signal and noise variances of ``cfg``.

        A matrix that is not numerically positive definite gets a jitter of
        1e-10 * signal_var on its diagonal once, logged; NumericalError if
        it still does not factor.
        """
        band = cfg.signal_var * self.band
        band[-1] += cfg.noise_var
        try:
            factor = cholesky_banded(band)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * cfg.signal_var
            logger.warning("kernel matrix not positive definite; adding jitter %.3g", jitter)
            band[-1] += jitter
            try:
                factor = cholesky_banded(band)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"kernel matrix at length scale {self.length_scale:.6g} s is not positive "
                    f"definite after a jitter of {jitter:.3g}"
                ) from exc
        return cho_solve_banded((factor, False), values)

    def near(self, query: np.ndarray):
        """Kernel shapes of each query against its window of records, and their indices."""
        start = np.clip(
            np.searchsorted(self.times, query - self.cutoff), 0, self.times.size - self.window
        )
        near = start[:, None] + np.arange(self.window)
        return _shape(query[:, None] - self.times[near], self.length_scale), near

    @staticmethod
    def mean(shape: np.ndarray, near: np.ndarray, alpha: np.ndarray, cfg: GPConfig) -> np.ndarray:
        """Posterior mean at the queries ``near`` gave ``shape`` and ``near`` for."""
        return np.sum(cfg.signal_var * shape * alpha[near], axis=1)


def gp_posterior_mean(
    times: np.ndarray,
    values: np.ndarray,
    cfg: GPConfig,
    query_times: np.ndarray,
) -> np.ndarray:
    """Zero-mean GP regression mean at the query times.

    Kernel values below 2^-KERNEL_TOL_LOG2 of the signal variance are
    dropped, so the Gram matrix is banded and each query sums over its
    window of nearby records (see _Support). Training points may come in
    any order; they are sorted first.

    Args:
        times: (n,) training epochs.
        values: (n,) training values.
        cfg: kernel hyperparameters.
        query_times: (m,) evaluation epochs.

    Returns:
        (m,) posterior mean. A kernel matrix that is not numerically positive
        definite gets a jitter of 1e-10 * signal_var added once, logged;
        NumericalError if it still does not factor.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two training points")
    order = np.argsort(times, kind="stable")
    support = _Support(times[order], cfg.length_scale)
    alpha = support.weights(np.asarray(values, dtype=float)[order], cfg)
    query = np.asarray(query_times, dtype=float)
    mean = np.empty(query.size)
    rows = max(1, _QUERY_BLOCK_ENTRIES // support.window)
    for lo in range(0, query.size, rows):
        shape, near = support.near(query[lo : lo + rows])
        mean[lo : lo + rows] = support.mean(shape, near, alpha, cfg)
    return mean


def default_candidates(times: np.ndarray, values: np.ndarray) -> list:
    """3 x 5 x 3 logarithmic hyperparameter grid scaled from the data."""
    times = np.asarray(times, dtype=float)
    span = float(times.max() - times.min())
    var = float(np.var(values))
    if var <= 0:
        var = 1.0
    candidates = []
    for sv in (0.5 * var, var, 2.0 * var):
        for ls in (3e-4 * span, 1e-3 * span, 3e-3 * span, 1e-2 * span, 3e-2 * span):
            for nv in (0.01 * var, 0.1 * var, 0.5 * var):
                candidates.append(GPConfig(sv, ls, nv))
    return candidates


def _cv_scores(
    times: np.ndarray,
    values: np.ndarray,
    candidates: Sequence[GPConfig],
    seed: int,
) -> np.ndarray:
    """Mean held-out squared error of each candidate (see cross_validate),
    by gp_posterior_mean's arithmetic with its shapes shared per length scale."""
    n = times.size
    if n < CV_FOLDS:
        logger.info("only %d points; falling back to leave-one-out", n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, min(CV_FOLDS, n))
    by_scale = {}
    for ci, cfg in enumerate(candidates):
        by_scale.setdefault(cfg.length_scale, []).append(ci)
    errs = [[] for _ in candidates]
    for fold in folds:
        train = np.setdiff1d(perm, fold, assume_unique=True)
        if train.size < 2:
            continue
        train = train[np.argsort(times[train], kind="stable")]
        t_train, y_train, t_held, y_held = times[train], values[train], times[fold], values[fold]
        for length_scale, members in by_scale.items():
            support = _Support(t_train, length_scale)
            shape, near = support.near(t_held)
            for ci in members:
                cfg = candidates[ci]
                pred = support.mean(shape, near, support.weights(y_train, cfg), cfg)
                errs[ci].append(float(np.mean((pred - y_held) ** 2)))
    if not errs[0]:
        raise ValueError(f"no cross-validation fold has two training points ({n} points)")
    return np.array([float(np.mean(e)) for e in errs])


def cross_validate(
    times: np.ndarray,
    values: np.ndarray,
    candidates: Sequence[GPConfig],
    seed: int = 0,
) -> CVChoice:
    """Pick the candidate with the lowest mean held-out squared error.

    Folds are ``CV_FOLDS`` contiguous chunks of a seeded shuffle of the
    indices. With fewer than ``CV_FOLDS`` points the split degrades to
    leave-one-out (logged); ValueError when no fold leaves two points to
    train on. Ties break to the smallest length scale, then first listed.
    """
    if not candidates:
        raise ValueError("need at least one candidate configuration")
    scores = _cv_scores(
        np.asarray(times, dtype=float), np.asarray(values, dtype=float), candidates, seed
    )
    ranked = sorted(
        range(len(candidates)),
        key=lambda ci: (scores[ci], candidates[ci].length_scale, ci),
    )
    best = float(scores[ranked[0]])
    gap = None  # one candidate, or a component that is zero throughout (a steady wind along y)
    if len(ranked) > 1 and best > 0.0:
        gap = (float(scores[ranked[1]]) - best) / best
    logger.debug("cross-validation scores: %s; chose %s", scores, candidates[ranked[0]])
    return CVChoice(candidates[ranked[0]], best, gap)


@contextmanager
def _naming(what: str):
    """Prefix a NumericalError raised inside the block with ``what`` it broke in."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{what}: {exc}") from exc


def _cv_subsample(n: int, cap: int) -> np.ndarray:
    """All n records, or CV_RUNS evenly spread runs of cap // CV_RUNS from first to last."""
    if n <= cap:
        return np.arange(n)
    starts = np.round(np.linspace(0, n - cap // CV_RUNS, CV_RUNS)).astype(int)
    return (starts[:, None] + np.arange(cap // CV_RUNS)).ravel()


def _component_arrays(records: Sequence[RawWindRecord]):
    if len(records) < 2:
        raise ValueError("need at least two wind records")
    t = np.array([r.timestamp for r in records])
    if np.any(np.diff(t) <= 0.0):
        # io.load_wind_csv sorts the records and keeps the last of duplicates.
        raise ValueError("wind record timestamps must strictly increase")
    comps = np.array([to_components(r) for r in records])
    return t, comps


def select_hyperparameters(records: Sequence[RawWindRecord], seed: int = 0):
    """Cross-validated kernel choice for each wind component.

    Each component's candidates are ``default_candidates`` on all records;
    selection runs on ``_cv_subsample``'s at most ``CV_MAX_POINTS`` records
    (cost cap). Returns (choice_x, choice_y), each a CVChoice.
    """
    t, comps = _component_arrays(records)
    sub = _cv_subsample(t.size, CV_MAX_POINTS)
    chosen = []
    for k in range(2):
        candidates = default_candidates(t, comps[:, k])
        with _naming(f"cross-validation of wind component {_COMPONENTS[k]}"):
            chosen.append(cross_validate(t[sub], comps[sub, k], candidates, seed=seed))
    return chosen[0], chosen[1]


def fit_wind(
    records: Sequence[RawWindRecord],
    grid: TimeGrid,
    configs: Sequence[GPConfig],
) -> WindSeries:
    """GP posterior mean of both components on all records at the grid times.

    ``configs`` holds the kernel of u_x, then of u_y. Grid times outside
    the record span are still evaluated (GP extrapolation) with a warning.
    """
    t, comps = _component_arrays(records)
    query = grid.times
    if query[0] < t[0] or query[-1] > t[-1]:
        logger.warning(
            "grid [%s, %s] extends beyond the wind records [%s, %s]; extrapolating",
            query[0], query[-1], t[0], t[-1],
        )
    fitted = []
    for k in range(2):
        with _naming(f"fit of wind component {_COMPONENTS[k]}"):
            fitted.append(gp_posterior_mean(t, comps[:, k], configs[k], query))
    return WindSeries(grid, *fitted)
