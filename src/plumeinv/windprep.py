"""Gaussian-process regularization of raw wind records onto a time grid.

Raw anemometer records (speed + meteorological "blowing from" direction)
are converted to Cartesian components and each component is smoothed
independently by zero-mean GP regression with a squared-exponential
kernel. Hyperparameters come from k-fold cross-validation over a small
logarithmic candidate grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .observation import TimeGrid

__all__ = [
    "RawWindRecord",
    "WindSeries",
    "GPConfig",
    "to_components",
    "gp_posterior_mean",
    "default_candidates",
    "cross_validate",
    "select_hyperparameters",
    "fit_wind",
]

logger = logging.getLogger(__name__)

CV_MAX_POINTS_DEFAULT = 400  # cross-validation subsample cap (cost control)
CV_MIN_POINTS = 3  # fewer points leave some cross-validation fold under two to train on


@dataclass(frozen=True)
class RawWindRecord:
    """One anemometer reading: speed and direction the wind blows from."""

    timestamp: float  # epoch s
    speed: float  # m s^-1
    direction_from: float  # degrees clockwise from north

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"speed must be finite and nonnegative, got {self.speed}")
        if not (0.0 <= self.direction_from < 360.0):
            raise ValueError(f"direction must be in [0, 360), got {self.direction_from}")


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


def to_components(record: RawWindRecord):
    """Cartesian (u_x, u_y) with y north: a wind *from* theta blows along
    (-sin theta, -cos theta)."""
    theta = math.radians(record.direction_from)
    return (-record.speed * math.sin(theta), -record.speed * math.cos(theta))


def _se_kernel(t_a: np.ndarray, t_b: np.ndarray, cfg: GPConfig) -> np.ndarray:
    d = t_a[:, None] - t_b[None, :]
    return cfg.signal_var * np.exp(-(d**2) / (2.0 * cfg.length_scale**2))


def _gp_weights(gram: np.ndarray, values: np.ndarray, cfg: GPConfig) -> np.ndarray:
    """(K + noise I)^-1 values for a Gram matrix that already holds the noise.

    An ill-conditioned matrix gets a jitter of 1e-10 * signal_var added to
    its diagonal (in place) once, logged.
    """
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * cfg.signal_var
        logger.warning("kernel matrix not positive definite; adding jitter %.3g", jitter)
        gram[np.diag_indices_from(gram)] += jitter
        factor = cho_factor(gram, lower=True)
    return cho_solve(factor, values)


def _fit_weights(times: np.ndarray, values: np.ndarray, cfg: GPConfig) -> np.ndarray:
    if times.size < 2:
        raise ValueError("need at least two training points")
    gram = _se_kernel(times, times, cfg)
    gram[np.diag_indices_from(gram)] += cfg.noise_var
    return _gp_weights(gram, values, cfg)


def gp_posterior_mean(
    times: np.ndarray,
    values: np.ndarray,
    cfg: GPConfig,
    query_times: np.ndarray,
) -> np.ndarray:
    """Zero-mean GP regression mean at the query times.

    Args:
        times: (n,) training epochs.
        values: (n,) training values.
        cfg: kernel hyperparameters.
        query_times: (m,) evaluation epochs.

    Returns:
        (m,) posterior mean. An ill-conditioned kernel matrix gets a
        jitter of 1e-10 * signal_var added once, logged.
    """
    times = np.asarray(times, dtype=float)
    alpha = _fit_weights(times, np.asarray(values, dtype=float), cfg)
    return _se_kernel(np.asarray(query_times, dtype=float), times, cfg) @ alpha


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
    n_folds: int,
) -> np.ndarray:
    """Mean held-out squared error of each candidate (see cross_validate)."""
    n = times.size
    if n < n_folds:
        logger.info("only %d points; falling back to leave-one-out", n)
        n_folds = n
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)

    # The split and the squared distances are per fold, the unit-variance
    # kernel per (fold, length scale); each candidate scales it, adds its
    # noise and solves. Every step is the elementwise arithmetic of
    # _se_kernel, so the scores equal per-candidate gp_posterior_mean calls.
    scales = {}
    for ci, cfg in enumerate(candidates):
        scales.setdefault(cfg.length_scale, []).append(ci)
    errs = [[] for _ in candidates]
    for fold in folds:
        train = np.setdiff1d(perm, fold, assume_unique=True)
        if train.size < 2:
            continue
        t_train, y_train, y_held = times[train], values[train], values[fold]
        d2_train = (t_train[:, None] - t_train[None, :]) ** 2
        d2_held = (times[fold][:, None] - t_train[None, :]) ** 2
        for length_scale, members in scales.items():
            e_train = np.exp(-d2_train / (2.0 * length_scale**2))
            e_held = np.exp(-d2_held / (2.0 * length_scale**2))
            for ci in members:
                cfg = candidates[ci]
                gram = cfg.signal_var * e_train
                gram[np.diag_indices_from(gram)] += cfg.noise_var
                pred = (cfg.signal_var * e_held) @ _gp_weights(gram, y_train, cfg)
                errs[ci].append(float(np.mean((pred - y_held) ** 2)))
    if not errs[0]:
        raise ValueError(f"no cross-validation fold has two training points ({n} points)")
    return np.array([float(np.mean(e)) for e in errs])


def cross_validate(
    times: np.ndarray,
    values: np.ndarray,
    candidates: Sequence[GPConfig],
    seed: int = 0,
    n_folds: int = 10,
) -> GPConfig:
    """Pick the candidate with the lowest mean held-out squared error.

    Folds are contiguous chunks of a seeded shuffle of the indices. With
    fewer than ``n_folds`` points the split degrades to leave-one-out
    (logged); ValueError when no fold leaves two points to train on. Ties
    break to the smallest length scale, then first listed.
    """
    if not candidates:
        raise ValueError("need at least one candidate configuration")
    scores = _cv_scores(
        np.asarray(times, dtype=float), np.asarray(values, dtype=float), candidates, seed, n_folds
    )
    best = min(
        range(len(candidates)),
        key=lambda ci: (scores[ci], candidates[ci].length_scale, ci),
    )
    logger.debug("cross-validation scores: %s; chose %s", scores, candidates[best])
    return candidates[best]


def _cv_subsample(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, cap)).astype(int))


def _component_arrays(records: Sequence[RawWindRecord]):
    if len(records) < 2:
        raise ValueError("need at least two wind records")
    t = np.array([r.timestamp for r in records])
    if np.any(np.diff(t) <= 0.0):
        # io.load_wind_csv sorts the records and keeps the last of duplicates.
        raise ValueError("wind record timestamps must strictly increase")
    comps = np.array([to_components(r) for r in records])
    return t, comps


def select_hyperparameters(
    records: Sequence[RawWindRecord],
    candidates: Sequence[GPConfig] = None,
    seed: int = 0,
    cv_max_points: int = CV_MAX_POINTS_DEFAULT,
):
    """Cross-validated kernel choice for each wind component.

    Selection runs on an evenly-strided subsample of at most
    ``cv_max_points`` records (cost cap); returns (cfg_x, cfg_y).
    """
    t, comps = _component_arrays(records)
    sub = _cv_subsample(t.size, cv_max_points)
    chosen = []
    for k in range(2):
        cand = candidates if candidates is not None else default_candidates(t, comps[:, k])
        chosen.append(cross_validate(t[sub], comps[sub, k], cand, seed=seed))
    return chosen[0], chosen[1]


def fit_wind(
    records: Sequence[RawWindRecord],
    grids: Sequence[TimeGrid],
    configs,
) -> list:
    """GP posterior mean of both components on all records at each grid's times.

    Each component's Gram matrix is factored once and its weights serve
    every grid; returns one WindSeries per grid, in order. Grid times
    outside the record span are still evaluated (GP extrapolation) with a
    warning.
    """
    t, comps = _component_arrays(records)
    for grid in grids:
        query = grid.times
        if query[0] < t[0] or query[-1] > t[-1]:
            logger.warning(
                "grid [%s, %s] extends beyond the wind records [%s, %s]; extrapolating",
                query[0], query[-1], t[0], t[-1],
            )
    alphas = [_fit_weights(t, comps[:, k], configs[k]) for k in range(2)]
    return [
        WindSeries(grid, *(_se_kernel(grid.times, t, cfg) @ a for cfg, a in zip(configs, alphas)))
        for grid in grids
    ]
