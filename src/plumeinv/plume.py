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
    * A species enters only through its deposition and settling velocities
      (``ParticleProperties``). The settling velocity is an input; for a
      small sphere it is Stokes' rho g d^2 / (18 mu), set by the caller.
    * ``PlumeModel`` is the forward model's whole parameter set: the
      sources, the particle velocities, the stability class, the
      near-field cutoff and the calm speed. ``kernel_profile`` and the
      operators built on it (F in ``observation``, H in ``uqprop``) take it
      as one argument.
    * ``kernel_profile`` evaluates a whole wind series in one call, a
      bounded block of steps at a time; a calm step gives zero kernels.
      It is the one entry point to the kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
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
    return a * x * np.power(1.0 + b * x, -c)


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


def _ermak(x, y, z_rel, speed, z_src, particle, sc):
    """Ermak kernel on equal-shape arrays of points downwind of the cutoff.

    ``x`` and ``speed`` must be positive. Raises NumericalError on overflow
    and clamps roundoff below zero.
    """
    sy = _briggs_fit(sc, "crosswind", x)
    sz = _briggs_fit(sc, "vertical", x)
    sz2 = sz * sz
    kz = speed * sz2 / (2.0 * x)
    w_set = particle.w_set
    w_o = particle.w_offset

    # Reflected-image height: z + z_src in the ground frame equals z_rel + 2*z_src.
    zg = z_rel + 2.0 * z_src
    # Shared settling-drift exponent; each bracket term gets its own Gaussian
    # added before exponentiating so the combined exponent cannot overflow.
    e_drift = (
        -(y * y) / (2.0 * (sy * sy))
        - w_set * z_rel / (2.0 * kz)
        - w_set**2 * sz2 / (8.0 * (kz * kz))
    )
    term_direct = np.exp(e_drift - z_rel * z_rel / (2.0 * sz2))
    # Deposition correction folded into the image term via the scaled
    # complementary error function: exp(a)*erfc(b) = exp(a - b^2)*erfcx(b)
    # with a - b^2 = -(z_rel + 2 z_src)^2 / (2 sigma_z^2).
    b_arg = zg / (np.sqrt(2.0) * sz) + w_o * sz / (np.sqrt(2.0) * kz)
    # Overflow here (W_o < 0 at extreme range) is detected below; keep the
    # inf/nan quiet until then.
    with np.errstate(over="ignore", invalid="ignore"):
        correction = 1.0 - np.sqrt(2.0 * np.pi) * (w_o * sz / kz) * erfcx(b_arg)
        term_image = np.exp(e_drift - zg * zg / (2.0 * sz2)) * correction
        vals = (term_direct + term_image) / (2.0 * np.pi * speed * sy * sz)
    if not np.isfinite(vals).all():
        raise NumericalError(
            "plume kernel overflow (settling far exceeds deposition at extreme range)"
        )
    # The bracket is nonnegative analytically; clamp roundoff in the
    # strong-deposition limit where it approaches zero by cancellation.
    return np.maximum(vals, 0.0)


def kernel_profile(points: np.ndarray, model: PlumeModel, wind: Sequence) -> np.ndarray:
    """Unit-emission kernels of every source at every receptor, step by step.

    Args:
        points: (P, 3) receptor coordinates.
        model: the S sources and the plume parameters; a step with a wind
            weaker than ``model.calm_speed`` gives zero kernels.
        wind: horizontal wind components (u_x, u_y): two floats, or two
            series of T steps.

    Returns:
        (P, S) kernel values for one wind, (T, P, S) for a series, s m^-3.
        A series is stored time-last: ``transpose(1, 2, 0)`` of it is a
        contiguous (P, S, T) array, the source-major column order of F and H.
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
    # A calm step's frame is never read: the mask drops it. Dividing by 1
    # there instead of by its speed keeps the arithmetic finite.
    speed = np.where(live, speed, 1.0)
    # receptor-source pairs flattened point-major: entry k is (k // S, k % S)
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    heights = np.array([s.height for s in sites], dtype=float)
    dx = (points[:, 0:1] - sx).ravel()
    dy = (points[:, 1:2] - sy).ravel()
    z_rel = (points[:, 2:3] - heights).ravel()
    z_src = np.tile(heights, len(points))
    out = np.zeros((dx.size, speed.size))
    # The temporaries of a block are a few times its entries: small beside
    # ``out`` however many receptors there are.
    block_steps = max(1, BLOCK_ENTRIES // max(dx.size, 1))
    for start in range(0, speed.size, block_steps):
        steps = slice(start, start + block_steps)
        downwind = (dx[:, None] * u_x[steps] + dy[:, None] * u_y[steps]) / speed[steps]
        hit = np.flatnonzero((downwind > model.x_cutoff) & live[steps])
        pair, t = np.divmod(hit, downwind.shape[1])
        t += start
        ux, uy, u = u_x[t], u_y[t], speed[t]
        block = np.zeros(downwind.size)
        block[hit] = _ermak(
            downwind.ravel()[hit],
            (ux * dy[pair] - uy * dx[pair]) / u,
            z_rel[pair],
            u,
            z_src[pair],
            model.particle,
            model.stability,
        )
        out[:, steps] = block.reshape(downwind.shape)
    kernels = out.reshape(len(points), len(sites), speed.size).transpose(2, 0, 1)
    return kernels if series else kernels[0]
