"""Synthetic twin experiment: known sinusoidal sources, simulated sensors.

Ground truth emission rates are clipped sinusoids on a fine generation
grid, the grid of the wind series handed to ``generate_synthetic``; the
clean data F q_true are made on that grid, without forming F there, and
noise is injected per-sensor by SNR. Inversion then runs on a coarser grid
and the GP fit of the wind records, so the estimator sees neither the
discretization nor the wind (``wind_series`` of the model) that made the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .observation import Sensor, TimeGrid, assemble_F, simulate_measurements
from .observation import NOISE_FLOOR_DEFAULT
from .plume import PlumeModel
from .windprep import RawWindRecord, WindSeries

__all__ = [
    "SourceSignal",
    "SyntheticSpec",
    "Harmonic",
    "WindModel",
    "emission_series",
    "block_average",
    "wind_records",
    "wind_series",
    "generate_synthetic",
]


@dataclass(frozen=True)
class SourceSignal:
    """One source's truth: offset + amplitude * sin(omega * elapsed + phase)."""

    amplitude: float  # kg s^-1
    omega: float  # rad s^-1
    offset: float  # kg s^-1
    phase: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-source truth signals plus the nonnegativity clip flag."""

    signals: tuple
    clip: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise ValueError("need at least one source signal")


def emission_series(spec: SyntheticSpec, grid: TimeGrid) -> np.ndarray:
    """True source-major emission vector on the grid, kg s^-1."""
    elapsed = grid.times - grid.t0
    blocks = []
    for sig in spec.signals:
        series = sig.offset + sig.amplitude * np.sin(sig.omega * elapsed + sig.phase)
        if spec.clip:
            series = np.maximum(series, 0.0)
        blocks.append(series)
    return np.concatenate(blocks)


def block_average(q_fine: np.ndarray, fine: TimeGrid, coarse: TimeGrid) -> np.ndarray:
    """Average a source-major vector from a fine grid onto a coarser one.

    Requires the coarse step to be an integer multiple of the fine step
    and both grids to share t0 and span; coarse slot j averages the fine
    slots it contains, which is the right comparison target for rates
    estimated on the coarse grid.
    """
    factor = coarse.dt / fine.dt
    if abs(factor - round(factor)) > 1e-9 or fine.t0 != coarse.t0 or fine.span != coarse.span:
        raise ValueError("grids are not nested")
    factor = int(round(factor))
    n_sources = q_fine.size // fine.n_steps
    shaped = q_fine.reshape(n_sources, coarse.n_steps, factor)
    return shaped.mean(axis=2).ravel()


@dataclass(frozen=True)
class Harmonic:
    amplitude: float
    period: float  # s
    phase: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("harmonic period must be positive")


@dataclass(frozen=True)
class WindModel:
    """Analytic meandering wind: harmonics on speed and direction."""

    speed_base: float  # m s^-1
    direction_base: float  # degrees from north
    speed_harmonics: tuple = field(default_factory=tuple)
    direction_harmonics: tuple = field(default_factory=tuple)
    min_speed: float = 0.3

    def speed(self, elapsed: np.ndarray) -> np.ndarray:
        out = np.full_like(np.asarray(elapsed, dtype=float), self.speed_base)
        for h in self.speed_harmonics:
            out = out + h.amplitude * np.sin(2.0 * math.pi * elapsed / h.period + h.phase)
        return np.maximum(out, self.min_speed)

    def direction(self, elapsed: np.ndarray) -> np.ndarray:
        out = np.full_like(np.asarray(elapsed, dtype=float), self.direction_base)
        for h in self.direction_harmonics:
            out = out + h.amplitude * np.sin(2.0 * math.pi * elapsed / h.period + h.phase)
        return np.mod(out, 360.0)


def wind_records(model: WindModel, t0: float, duration: float, cadence: float) -> list:
    """Sample the wind model every ``cadence`` seconds over [t0, t0+duration]."""
    if cadence <= 0 or duration <= 0:
        raise ValueError("cadence and duration must be positive")
    n = int(math.floor(duration / cadence))
    elapsed = cadence * np.arange(n + 1)
    speeds = model.speed(elapsed)
    directions = model.direction(elapsed)
    return [
        RawWindRecord(timestamp=t0 + float(e), speed=float(s), direction_from=float(d))
        for e, s, d in zip(elapsed, speeds, directions)
    ]


def wind_series(model: WindModel, grid: TimeGrid) -> WindSeries:
    """The model at elapsed j dt, j = 1..n_steps, as ``windprep.to_components`` does."""
    elapsed = grid.dt * np.arange(1, grid.n_steps + 1)
    speed = model.speed(elapsed)
    theta = np.radians(model.direction(elapsed))
    return WindSeries(grid, -speed * np.sin(theta), -speed * np.cos(theta))


def generate_synthetic(
    spec: SyntheticSpec,
    model: PlumeModel,
    sensors: Sequence[Sensor],
    wind,
    seed: int,
    noise_floor: float = NOISE_FLOOR_DEFAULT,
):
    """Forward-simulate noisy measurements from the truth signals.

    Args:
        spec: truth signals, one per site of ``model`` (validated).
        wind: WindSeries on the generation grid.
        seed: noise seed; fixed seed reproduces the dataset exactly.

    Returns:
        (q_true, MeasurementSet) with q_true source-major on ``wind.grid``.
    """
    if len(spec.signals) != len(model.sites):
        raise ValidationError(
            f"{len(spec.signals)} truth signals for {len(model.sites)} sources"
        )
    q_true = emission_series(spec, wind.grid)
    clean = assemble_F(sensors, model, wind, q_true)
    measurements = simulate_measurements(clean, sensors, seed, noise_floor)
    return q_true, measurements
