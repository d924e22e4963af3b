"""Steady-state Gaussian plume kernel with settling and ground deposition.

Evaluates the concentration per unit emission rate (s m^-3) downwind of a
point source, including gravitational settling of the particles and a
deposition flux boundary condition at the ground.

Conventions:
    * Wind-aligned frame: x downwind, y crosswind, z height above ground.
      ``LocalCoords.z_rel`` is the receptor height relative to the source.
    * The kernel is exactly zero at or upwind of the source (downwind
      distance <= ``x_cutoff``, default 1 m), which also removes the
      sigma -> 0 singularity at the source itself.
    * Dispersion widths follow the Briggs power-law fits per Pasquill
      stability class; the vertical eddy diffusivity is recovered from
      sigma_z by K = U sigma_z^2 / (2 x), consistent with the sigma used
      in the same evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import erfcx

from .errors import CalmWindError, NumericalError

__all__ = [
    "MU_AIR",
    "G_ACCEL",
    "X_CUTOFF_DEFAULT",
    "CALM_SPEED_DEFAULT",
    "ParticleProperties",
    "StabilityClass",
    "SourceSite",
    "LocalCoords",
    "settling_velocity",
    "briggs_sigma",
    "rotate_to_wind",
    "plume_kernel",
    "kernel_profile",
]

MU_AIR = 1.8e-5  # dynamic viscosity of air, kg m^-1 s^-1
G_ACCEL = 9.8  # gravitational acceleration, m s^-2

X_CUTOFF_DEFAULT = 1.0  # m; kernel is zero at or below this downwind distance
CALM_SPEED_DEFAULT = 0.1  # m s^-1; weaker horizontal wind counts as calm


def settling_velocity(density: float, diameter: float) -> float:
    """Terminal fall speed of a small sphere: rho g d^2 / (18 mu).

    Args:
        density: particle material density, kg m^-3.
        diameter: particle diameter, m.

    Returns:
        Settling velocity in m s^-1.
    """
    if not (math.isfinite(density) and math.isfinite(diameter)):
        raise ValueError("density and diameter must be finite")
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    if diameter < 0:
        raise ValueError(f"diameter must be nonnegative, got {diameter}")
    return density * G_ACCEL * diameter**2 / (18.0 * MU_AIR)


@dataclass(frozen=True)
class ParticleProperties:
    """Physical parameters of one particulate species.

    ``w_set`` is supplied by the caller, not derived from density/diameter;
    use :func:`settling_velocity` if a Stokes-law value is wanted.
    """

    density: float  # kg m^-3
    diameter: float  # m
    w_dep: float  # deposition velocity, m s^-1
    w_set: float  # settling velocity, m s^-1

    def __post_init__(self) -> None:
        for name in ("density", "diameter", "w_dep", "w_set"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.density <= 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if self.diameter < 0 or self.w_dep < 0 or self.w_set < 0:
            raise ValueError("diameter, w_dep and w_set must be nonnegative")

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
    """Unvalidated Briggs width on a float or an array (see _ermak)."""
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
class LocalCoords:
    """Receptor position in the wind-aligned frame of one source.

    ``downwind``/``crosswind`` are horizontal offsets from the source
    centroid; ``z_rel`` is receptor height minus source height; ``speed``
    is the horizontal wind speed.
    """

    downwind: float
    crosswind: float
    z_rel: float
    speed: float

    def __post_init__(self) -> None:
        if self.speed < 0:
            raise ValueError("wind speed must be nonnegative")


def rotate_to_wind(
    point: Sequence[float],
    source: SourceSite,
    wind: Sequence[float],
    calm_speed: float = CALM_SPEED_DEFAULT,
) -> LocalCoords:
    """Express a receptor point in the wind-aligned frame of a source.

    The downwind axis points along the horizontal wind vector, so the
    transform applied to the wind itself gives (U, 0).

    Args:
        point: receptor (x, y, z) in site coordinates, m.
        source: emitting site.
        wind: horizontal wind components (u_x, u_y), m s^-1.
        calm_speed: below this wind speed the frame is undefined.

    Raises:
        CalmWindError: wind speed below ``calm_speed``.
    """
    ux, uy = float(wind[0]), float(wind[1])
    speed = math.hypot(ux, uy)
    if speed < calm_speed:
        raise CalmWindError(f"wind speed {speed:.3g} m/s below calm threshold {calm_speed:g}")
    dx = float(point[0]) - source.x
    dy = float(point[1]) - source.y
    return LocalCoords(
        downwind=(dx * ux + dy * uy) / speed,
        crosswind=(ux * dy - uy * dx) / speed,
        z_rel=float(point[2]) - source.height,
        speed=speed,
    )


def _ermak(x, y, z_rel, speed, z_src, particle, sc):
    """Ermak kernel downwind of the cutoff, on floats or equal-shape arrays.

    ``x`` must be positive; ``speed`` is a positive float. Raises
    NumericalError on overflow and clamps roundoff below zero, so both
    callers keep these guarantees.
    """
    # np.power and products, not ``**``, on per-point values: on a float ``**``
    # calls libm, one ulp off numpy's array loops (w_set**2 is one shared float).
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


def _kernel_values(x, y, z_rel, speed, z_src, particle, sc, x_cutoff):
    """Ermak kernel on broadcast arrays; entries with x <= x_cutoff are 0.

    ``speed`` is a positive scalar; the other coordinate arguments
    broadcast against each other. Returns an array of the broadcast shape.
    """
    if x_cutoff < 0:
        raise ValueError("x_cutoff must be nonnegative")
    x, y, z_rel, z_src = np.broadcast_arrays(
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=float),
        np.asarray(z_rel, dtype=float),
        np.asarray(z_src, dtype=float),
    )
    out = np.zeros(x.shape)
    mask = x > x_cutoff
    if mask.any():
        out[mask] = _ermak(x[mask], y[mask], z_rel[mask], speed, z_src[mask], particle, sc)
    return out


def plume_kernel(
    lc: LocalCoords,
    particle: ParticleProperties,
    sc: StabilityClass,
    z_src: float,
    x_cutoff: float = X_CUTOFF_DEFAULT,
) -> float:
    """Concentration per unit emission rate at one receptor, s m^-3.

    Evaluates the same formula as :func:`kernel_profile` on floats and
    agrees with the matching entry of its output bit for bit.

    Args:
        lc: receptor in the wind-aligned source frame.
        particle: species parameters (w_dep, w_set).
        sc: stability class for the Briggs widths.
        z_src: source release height, m.
        x_cutoff: hard upwind/near-field cutoff, m; must be >= 0.
    """
    if lc.speed <= 0:
        raise ValueError("wind speed must be positive")
    if x_cutoff < 0:
        raise ValueError("x_cutoff must be nonnegative")
    x = float(lc.downwind)
    if not x > x_cutoff:
        return 0.0
    return float(
        _ermak(x, float(lc.crosswind), float(lc.z_rel), float(lc.speed), float(z_src), particle, sc)
    )


def kernel_profile(
    points: np.ndarray,
    sites: Sequence[SourceSite],
    wind: Sequence[float],
    particle: ParticleProperties,
    sc: StabilityClass,
    x_cutoff: float = X_CUTOFF_DEFAULT,
    calm_speed: float = CALM_SPEED_DEFAULT,
) -> np.ndarray:
    """Unit-emission kernels of every source at every receptor for one wind.

    Args:
        points: (P, 3) receptor coordinates.
        sites: emitting sources (length S).
        wind: horizontal wind components (u_x, u_y).
        particle, sc, x_cutoff: as in :func:`plume_kernel`.
        calm_speed: calm threshold forwarded to the rotation.

    Returns:
        (P, S) array of kernel values, s m^-3.

    Raises:
        CalmWindError: wind below ``calm_speed``; callers assembling time
            series catch this and zero out the step.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ux, uy = float(wind[0]), float(wind[1])
    speed = math.hypot(ux, uy)
    if speed < calm_speed:
        raise CalmWindError(f"wind speed {speed:.3g} m/s below calm threshold {calm_speed:g}")
    if not sites:
        return np.zeros((points.shape[0], 0))
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    sz = np.array([s.height for s in sites])
    dx = points[:, 0:1] - sx[None, :]
    dy = points[:, 1:2] - sy[None, :]
    downwind = (dx * ux + dy * uy) / speed
    crosswind = (ux * dy - uy * dx) / speed
    z_rel = points[:, 2:3] - sz[None, :]
    return _kernel_values(downwind, crosswind, z_rel, speed, sz[None, :], particle, sc, x_cutoff)

