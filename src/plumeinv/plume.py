"""Steady-state Gaussian plume kernel with settling and ground deposition.

Evaluates the concentration per unit emission rate (s m^-3) downwind of a
point source, including gravitational settling of the particles and a
deposition flux boundary condition at the ground.

Conventions:
    * Wind-aligned frame of each source: x downwind, y crosswind, z height
      above ground.
    * The kernel is exactly zero at or upwind of the source (downwind
      distance <= ``x_cutoff``, default 1 m), which also removes the
      sigma -> 0 singularity at the source itself.
    * Dispersion widths follow the Briggs power-law fits per Pasquill
      stability class; the vertical eddy diffusivity is recovered from
      sigma_z by K = U sigma_z^2 / (2 x), consistent with the sigma used
      in the same evaluation.
    * The kernel is evaluated in completed-square form (see ``_ermak``): the
      settling drift shifts the direct Gaussian's height, so one exponent
      that is never positive serves the direct and the image term.
    * A species enters only through its deposition and settling velocities
      (``ParticleProperties``). The settling velocity is an input; for a
      small sphere it is Stokes' rho g d^2 / (18 mu), set by the caller.
    * ``PlumeModel`` is the forward model's whole parameter set: the
      sources, the particle velocities, the stability class, the
      near-field cutoff and the calm speed. ``kernel_profile`` and the
      operators built on it (F in ``observation``, H in ``uqprop``) take it
      as one argument.
    * ``kernel_profile`` is the one entry point to the kernel. It evaluates
      a whole wind series in one call, a bounded block of steps at a time,
      each block whole: a miss (upwind, inside the cutoff or calm) is
      evaluated at 1 m with the hits and zeroed, as evaluating the bundled
      case's misses (15% of F's entries, 30% of H's) costs less than
      gathering the hits. Given ``weights``, it returns the kernels applied
      to them instead, summed block by block, so an operator that is only
      ever multiplied (H) is never held.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.special import erfcx

from .errors import NumericalError

__all__ = [
    "X_CUTOFF_DEFAULT",
    "CALM_SPEED_DEFAULT",
    "ParticleProperties",
    "StabilityClass",
    "SourceSite",
    "PlumeModel",
    "briggs_sigma",
    "kernel_profile",
]

logger = logging.getLogger(__name__)

X_CUTOFF_DEFAULT = 1.0  # m; kernel is zero at or below this downwind distance
CALM_SPEED_DEFAULT = 0.1  # m s^-1; weaker horizontal wind counts as calm
BLOCK_ENTRIES = 1 << 14  # receptor-source-step entries per block of kernel_profile's temporaries
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ParticleProperties:
    """The two velocities of one particulate species that the kernel reads."""

    w_dep: float  # deposition velocity, m s^-1
    w_set: float  # settling velocity, m s^-1

    def __post_init__(self) -> None:
        for name in ("w_dep", "w_set"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.w_dep < 0 or self.w_set < 0:
            raise ValueError("w_dep and w_set must be nonnegative")

    @property
    def w_offset(self) -> float:
        """Effective near-ground velocity W_o = w_dep - w_set/2."""
        return self.w_dep - 0.5 * self.w_set


class StabilityClass(Enum):
    """Pasquill atmospheric stability class, A (unstable) .. F (stable)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"


# Briggs fit coefficients (a, b, c) with sigma = a*x*(1 + b*x)^(-c),
# keyed by (class, axis). b is in m^-1, a and c dimensionless.
BRIGGS_COEFFICIENTS = {
    (StabilityClass.A, "crosswind"): (0.22, 1.0e-4, 0.50),
    (StabilityClass.A, "vertical"): (0.20, 0.0, 0.0),
    (StabilityClass.B, "crosswind"): (1.60, 1.0e-4, 0.50),
    (StabilityClass.B, "vertical"): (1.2, 0.0, 0.0),
    (StabilityClass.C, "crosswind"): (0.11, 1.0e-4, 0.50),
    (StabilityClass.C, "vertical"): (0.08, 2.0e-4, 0.5),
    (StabilityClass.D, "crosswind"): (0.08, 1.0e-4, 0.50),
    (StabilityClass.D, "vertical"): (0.06, 1.5e-3, 0.5),
    (StabilityClass.E, "crosswind"): (0.06, 1.0e-4, 0.50),
    (StabilityClass.E, "vertical"): (0.03, 3.0e-4, 1.0),
    (StabilityClass.F, "crosswind"): (0.04, 1.0e-4, 0.50),
    (StabilityClass.F, "vertical"): (0.016, 3.0e-4, 1.0),
}


def briggs_sigma(sc: StabilityClass, axis: str, x):
    """Dispersion width sigma(x) = a*x*(1 + b*x)^(-c) for one axis.

    Args:
        sc: stability class.
        axis: "crosswind" or "vertical".
        x: downwind distance(s), m; must be >= 0.

    Returns:
        Width in m, scalar or array matching ``x``.
    """
    if (sc, axis) not in BRIGGS_COEFFICIENTS:
        raise ValueError(f"axis must be 'crosswind' or 'vertical', got {axis!r}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("downwind distance must be nonnegative")
    out = _briggs_fit(sc, axis, x_arr)
    return float(out) if np.isscalar(x) else out


def _briggs_fit(sc: StabilityClass, axis: str, x):
    """Briggs width, unchecked: callers pass distances of at least zero."""
    a, b, c = BRIGGS_COEFFICIENTS[(sc, axis)]
    # The table's exponents c are 0, 1/2 and 1, so no np.power is needed.
    if c == 0.0:
        return a * x
    stretch = 1.0 + b * x
    return a * x / (np.sqrt(stretch) if c == 0.5 else stretch)


@dataclass(frozen=True)
class SourceSite:
    """A point source: ground centroid (x, y) and release height."""

    id: str
    x: float
    y: float
    height: float

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError(f"source height must be nonnegative, got {self.height}")


@dataclass(frozen=True)
class PlumeModel:
    """The parameters of the plume solution that F and H evaluate.

    ``x_cutoff`` (m) is the downwind distance at or below which a kernel is
    zero; a horizontal wind weaker than ``calm_speed`` (m s^-1) is calm and
    transports nothing.
    """

    sites: tuple
    particle: ParticleProperties
    stability: StabilityClass
    x_cutoff: float = X_CUTOFF_DEFAULT
    calm_speed: float = CALM_SPEED_DEFAULT

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        if self.x_cutoff < 0:
            raise ValueError("x_cutoff must be nonnegative")
        if not self.calm_speed > 0:
            raise ValueError("calm_speed must be positive")


def _ermak(x, y, z_rel, z_image, lift, speed, miss, particle, sc):
    """Ermak kernel on a (pairs, steps) block, zero where ``miss`` is true.

    ``x`` (positive), ``y`` and ``miss`` are (pairs, steps) arrays. The
    per-pair ``z_rel``, ``z_image`` = (z + z_src) / sqrt(2) and ``lift`` =
    2 z z_src are (pairs, 1) columns, and ``speed`` is a positive (steps,)
    row. Misses are zeroed before the overflow check, so only an overflow at
    a hit raises NumericalError. Roundoff below zero is clamped.
    """
    sy = _briggs_fit(sc, "crosswind", x)
    sz = _briggs_fit(sc, "vertical", x)
    # The settling drift completes the square of the direct Gaussian: with
    # s = w_set x / U the particles have dropped by s, and the direct term is
    # exp(e1), e1 = -y^2 / (2 sy^2) - (z_rel + s)^2 / (2 sz^2) <= 0, so it
    # cannot overflow. The image term is exp(e1 - 2 z z_src / sz^2), which
    # equals the direct term on the ground.
    direct = y / sy
    direct *= direct
    drop = x * (particle.w_set / speed)
    drop += z_rel
    drop /= sz
    drop *= drop
    direct += drop
    direct *= -0.5
    np.exp(direct, out=direct)
    # Deposition correction of the image term through the scaled
    # complementary error function: 1 - 2 sqrt(2 pi) g erfcx(b), with
    # g = W_o x / (U sz) and b = (z + z_src) / (sqrt(2) sz) + sqrt(2) g.
    g = np.multiply(x, particle.w_offset / speed, out=drop)  # drop's buffer is free again
    g /= sz
    b = z_image / sz
    b += _SQRT2 * g
    # Overflow here (W_o < 0 at extreme range) is detected below, once the
    # misses are zeroed; keep the inf/nan quiet until then.
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = erfcx(b, out=b)
        bracket *= g
        bracket *= -2.0 * _SQRT_2PI
        bracket += 1.0
        bracket *= np.exp(-lift / (sz * sz))
        bracket += 1.0
        bracket *= direct
        sy *= (2.0 * np.pi) * speed
        sy *= sz
        bracket /= sy
    np.copyto(bracket, 0.0, where=miss)
    if not np.isfinite(bracket).all():
        raise NumericalError(
            "plume kernel overflow (settling far exceeds deposition at extreme range)"
        )
    # The bracket is nonnegative analytically; clamp roundoff in the
    # strong-deposition limit where it approaches zero by cancellation.
    return np.maximum(bracket, 0.0, out=bracket)


def kernel_profile(
    points: np.ndarray, model: PlumeModel, wind: Sequence, weights: np.ndarray | None = None
) -> np.ndarray:
    """Unit-emission kernels of every source at every receptor, step by step.

    Args:
        points: (P, 3) receptor coordinates.
        model: the S sources and the plume parameters; a step with a wind
            weaker than ``model.calm_speed`` gives zero kernels.
        wind: horizontal wind components (u_x, u_y): two floats, or two
            series of T steps (one float pair is T = 1).
        weights: optional (S*T, k) array, rows in the source-major column
            order of F and H (row s*T + t is source s at step t).

    Returns:
        Without ``weights``: (P, S) kernel values for one wind, (T, P, S) for
        a series, s m^-3. A series is stored time-last: ``transpose(1, 2, 0)``
        of it is a contiguous (P, S, T) array, the source-major column order
        of F and H. With ``weights``: the (P, k) product
        sum over s, t of K[t, p, s] * weights[s*T + t], accumulated a block
        of steps at a time, so the kernels are never held whole.
    """
    sites = model.sites
    points = np.atleast_2d(np.asarray(points, dtype=float))
    u_x, u_y = np.asarray(wind[0], dtype=float), np.asarray(wind[1], dtype=float)
    if u_x.shape != u_y.shape or u_x.ndim > 1:
        raise ValueError("wind must be two floats or two series of equal length")
    series = u_x.ndim == 1
    u_x, u_y = np.atleast_1d(u_x), np.atleast_1d(u_y)
    speed = np.array([math.hypot(a, b) for a, b in zip(u_x.tolist(), u_y.tolist())])
    live = ~(speed < model.calm_speed)
    if not live.all():
        logger.warning(
            "calm wind at %d of %d steps; those steps give zero kernels",
            np.count_nonzero(~live), speed.size,
        )
    # A calm step is a miss. Dividing by 1 there instead of by its speed
    # keeps its arithmetic finite.
    speed = np.where(live, speed, 1.0)
    # receptor-source pairs as (pairs, 1) columns, point-major: row k is (k // S, k % S)
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    heights = np.array([s.height for s in sites], dtype=float)
    dx = (points[:, 0:1] - sx).reshape(-1, 1)
    dy = (points[:, 1:2] - sy).reshape(-1, 1)
    z_rel = (points[:, 2:3] - heights).reshape(-1, 1)
    z_image = ((points[:, 2:3] + heights) / _SQRT2).reshape(-1, 1)
    lift = (2.0 * points[:, 2:3] * heights).reshape(-1, 1)
    if weights is None:
        out = np.zeros((dx.size, speed.size))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or len(weights) != len(sites) * speed.size:
            raise ValueError(
                f"weights must have {len(sites) * speed.size} rows of k columns, "
                f"got shape {weights.shape}"
            )
        # (S, T, k): step t of source s is [s, t]
        by_source = weights.reshape(len(sites), speed.size, weights.shape[1])
        out = np.zeros((len(points), weights.shape[1]))
    # The temporaries of a block are about ten (pairs, steps) arrays, 1.3 MB
    # for a full block: small beside the kernels of the whole series however
    # many receptors there are.
    block_steps = max(1, BLOCK_ENTRIES // max(dx.size, 1))
    for start in range(0, speed.size, block_steps):
        steps = slice(start, start + block_steps)
        ux, uy, u = u_x[steps], u_y[steps], speed[steps]
        x = (dx * ux + dy * uy) / u
        # A miss (upwind, inside the cutoff or calm) is evaluated at 1 m with
        # the hits, and _ermak zeroes it.
        miss = ~((x > model.x_cutoff) & live[steps])
        np.copyto(x, 1.0, where=miss)
        block = _ermak(x, (ux * dy - uy * dx) / u, z_rel, z_image, lift, u, miss,
                       model.particle, model.stability)
        if weights is None:
            out[:, steps] = block
        elif out.size:  # BLAS takes no empty product
            # point-major pairs: row p of this (P, S*b) view holds K[t, p, s]
            # at column s*b + (t - start), the row of the block's weights it
            # meets; out += K W is accumulated in place as out^T += W^T K^T
            n_b = block.shape[1]
            out = dgemm(
                1.0,
                by_source[:, steps].reshape(len(sites) * n_b, out.shape[1]).T,
                block.reshape(len(points), len(sites) * n_b).T,
                beta=1.0,
                c=out.T,
                overwrite_c=True,
            ).T
    if weights is not None:
        return out
    kernels = out.reshape(len(points), len(sites), speed.size).transpose(2, 0, 1)
    return kernels if series else kernels[0]
