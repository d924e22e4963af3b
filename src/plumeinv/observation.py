"""Linear observation map from stacked emission rates to sensor readings.

Builds F = M G where G holds the unit-emission plume kernels at the sensor
locations on a uniform time grid and M applies each sensor's time-window
weighting by a left-endpoint rectangle rule: each row of a sensor's M is one
weight on the run of grid slots ``window_slots`` gives, so M is never formed.
``assemble_F`` takes the plume model and a wind series, whose grid is the
time grid of F; it makes G with one ``kernel_profile`` call over the whole
series (a calm step gives zero kernels) and writes each measurement's row of
F straight into CSR from its slots, exact zeros left out, so no dense
(measurements, sources x steps) array is made. A sampler row holds only its
window's slots, and F is about 3% nonzero on the bundled case. Given
emission rates q, it returns the data F q instead, each entry a weight
times a sum over its slots, and F is never formed: synthetic data need
only that product.

Conventions:
    * Grid times are t_j = t0 + j*dt for j = 1..n_steps, i.e. the right
      endpoints of the n_steps slots partitioning (t0, t0 + span].
    * The stacked emission vector q is source-major: all time slots of
      source 1, then source 2, and so on. Entry i*n_steps + (j-1) is
      source i's rate in slot j.
    * Measurements stack sensors in declaration order, and within a sensor
      in time order. Dust-fall jars accumulate mass (kg) over the whole
      period; real-time samplers average concentration (kg m^-3) over
      their windows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.sparse import csr_array

from .errors import ConfigurationError, NumericalError
from .plume import PlumeModel, kernel_profile

__all__ = [
    "TimeGrid",
    "DustfallJar",
    "RealTimeSampler",
    "Sensor",
    "MeasurementSet",
    "entry_labels",
    "measurement_count",
    "window_weight",
    "window_slots",
    "assemble_F",
    "signal_variances",
    "simulate_measurements",
]

logger = logging.getLogger(__name__)

NOISE_FLOOR_DEFAULT = 1e-12  # std floor in measurement units for flat signals


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: n_steps slots of width dt starting at epoch t0."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be at least 2, got {self.n_steps}")

    @property
    def span(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        """Slot times t0 + dt, t0 + 2 dt, ..., t0 + n_steps dt."""
        return self.t0 + self.dt * np.arange(1, self.n_steps + 1)


@dataclass(frozen=True)
class DustfallJar:
    """Passive collector: one accumulated deposition value per period."""

    id: str
    x: float
    y: float
    z: float
    area: float  # collection cross-section, m^2
    snr: float

    def __post_init__(self) -> None:
        if not self.area > 0:
            raise ValueError(f"jar area must be positive, got {self.area}")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")

    @property
    def location(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class RealTimeSampler:
    """Active sampler: mean concentration over each scheduled window."""

    id: str
    x: float
    y: float
    z: float
    window: float  # window length, s
    start_times: tuple  # window start epochs, strictly increasing
    snr: float

    def __post_init__(self) -> None:
        if not self.window > 0:
            raise ValueError(f"sampler window must be positive, got {self.window}")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        starts = tuple(float(t) for t in self.start_times)
        if len(starts) == 0:
            raise ValueError("sampler needs at least one start time")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("sampler start times must be strictly increasing")
        object.__setattr__(self, "start_times", starts)

    @property
    def location(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


Sensor = Union[DustfallJar, RealTimeSampler]


def measurement_count(sensor: Sensor) -> int:
    """Number of values this sensor reports over the period."""
    if isinstance(sensor, DustfallJar):
        return 1
    return len(sensor.start_times)


def window_weight(sensor: Sensor, ell: int, t: float, grid: TimeGrid, w_dep: float) -> float:
    """Time-window weight of measurement ``ell`` at time ``t``.

    Jars weight by area*w_dep inside the whole period (t0, t0+span];
    samplers weight by 1/window inside (start_ell, start_ell + window].
    """
    if ell < 0 or ell >= measurement_count(sensor):
        raise IndexError(f"measurement index {ell} out of range for sensor {sensor.id!r}")
    if isinstance(sensor, DustfallJar):
        inside = grid.t0 < t <= grid.t0 + grid.span
        return sensor.area * w_dep if inside else 0.0
    start = sensor.start_times[ell]
    inside = start < t <= start + sensor.window
    return 1.0 / sensor.window if inside else 0.0


def window_slots(sensor: Sensor, grid: TimeGrid) -> tuple:
    """Grid slots each measurement reads: measurement ell reads first[ell] <= j < stop[ell].

    A jar reads every slot of the period; a sampler's window (start, start +
    window] reads the slots whose times it contains.

    Raises:
        ConfigurationError: a sampler window leaves the grid span or captures
            no grid point, naming the sensor and, for an empty window, its index.
    """
    if isinstance(sensor, DustfallJar):
        return np.array([0]), np.array([grid.n_steps])
    starts = np.asarray(sensor.start_times, dtype=float)
    tol = 1e-6  # s of float slack on window containment
    if starts.min() < grid.t0 - tol or starts.max() + sensor.window > grid.t0 + grid.span + tol:
        raise ConfigurationError(
            f"sensor {sensor.id!r}: sampling windows extend outside the time grid"
        )
    # the slots after the start up to the last one not after the end
    times = grid.times
    first = np.searchsorted(times, starts, side="right")
    stop = np.searchsorted(times, starts + sensor.window, side="right")
    if not (stop > first).all():
        empty = int(np.flatnonzero(stop == first)[0])
        raise ConfigurationError(
            f"sensor {sensor.id!r}: window {empty} captures no grid point "
            f"(window {sensor.window} s vs grid dt {grid.dt} s)"
        )
    return first, stop


class _ObservationMatrix(csr_array):
    """F as CSR that ``np.count_nonzero`` counts as it counted a dense F.

    ``perfbench/trace_run.py`` reads F's fill by ``np.count_nonzero``, which
    a plain sparse array refuses; every other NumPy function is declined.
    """

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.count_nonzero()
        return NotImplemented


def assemble_F(sensors: Sequence[Sensor], model: PlumeModel, wind, q: np.ndarray | None = None):
    """Observation map F = M G as a CSR array, shape (total measurements, n_sources*n_steps).

    ``wind`` is a WindSeries; its grid is the time grid of F. Each row
    stores its window's nonzero entries, columns source-major and sorted,
    so F equals the CSR conversion of the dense map entry for entry. Given
    the source-major emission vector ``q``, return the clean data F q
    instead, shape (total measurements,), without forming F.

    Raises:
        ConfigurationError: as :func:`window_slots`.
        NumericalError: F, or F q, has a non-finite entry.
    """
    points = np.array([s.location for s in sensors], dtype=float).reshape(len(sensors), 3)
    grid, w_dep = wind.grid, model.particle.w_dep
    # G: (n_steps, n_sensors, n_sources)
    g = kernel_profile(points, model, (wind.u_x, wind.u_y))
    n_t, n_s = grid.n_steps, len(model.sites)
    n_meas = sum(measurement_count(s) for s in sensors)
    if q is None:
        # F_k[l, i*n_t + j] = weight * G[j, k, i] for j in row l's slots
        columns = np.arange(n_s * n_t).reshape(n_s, n_t)
        indptr = np.zeros(n_meas + 1, dtype=np.int64)
        data, indices = [], []
    else:
        q = np.asarray(q, dtype=float)
        if not np.all(np.isfinite(q)):
            raise ValueError("emission vector must be finite")
        q_by_source = q.reshape(n_s, n_t)
        f = np.empty(n_meas)
    for k, (sensor, rows) in enumerate(_sensor_slices(sensors)):
        first, stop = window_slots(sensor, grid)
        # M_k's one nonzero value, on each row's slots (rectangle rule)
        if isinstance(sensor, DustfallJar):
            weight = sensor.area * w_dep * grid.dt
        else:
            weight = grid.dt / sensor.window
        if q is None:
            values = weight * g[:, k, :].T  # (n_s, n_t), source-major
            stored = values != 0.0
            for row, a, b in zip(range(rows.start, rows.stop), first, stop):
                keep = stored[:, a:b]
                data.append(values[:, a:b][keep])
                indices.append(columns[:, a:b][keep])
                indptr[row + 1] = indptr[row] + data[-1].size
        else:
            # (F q)_k[l] = weight * sum of c_k over row l's slots,
            # with c_k[j] = sum_i G[j, k, i] q[i*n_t + j]
            c = np.einsum("ji,ij->j", g[:, k, :], q_by_source)
            f[rows] = weight * np.array([c[a:b].sum() for a, b in zip(first, stop)])
    if q is None:
        # 32-bit indices where they fit, as SciPy's own conversion picks
        index = np.int32 if max(indptr[-1], n_s * n_t) <= np.iinfo(np.int32).max else np.int64
        f = _ObservationMatrix(
            (
                np.concatenate([np.empty(0), *data]),
                np.concatenate([np.empty(0, index), *indices]).astype(index, copy=False),
                indptr.astype(index, copy=False),
            ),
            shape=(n_meas, n_s * n_t),
        )
    if not np.all(np.isfinite(f.data if q is None else f)):
        raise NumericalError(
            f"observation map {'F' if q is None else 'product F q'} has non-finite entries"
        )
    return f


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Stacked sensor readings; ``signal_variances`` gives their noise model."""

    sensor_ids: tuple  # per entry
    indices: np.ndarray  # per-sensor measurement index, 0-based
    values: np.ndarray  # stacked vector d

    def __post_init__(self) -> None:
        if not len(self.sensor_ids) == len(self.indices) == len(self.values):
            raise ValueError("measurement fields must have equal length")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def entries(self) -> list:
        return list(zip(self.sensor_ids, self.indices.tolist(), self.values.tolist()))


def _sensor_slices(sensors: Sequence[Sensor]) -> list:
    slices = []
    offset = 0
    for sensor in sensors:
        m = measurement_count(sensor)
        slices.append((sensor, slice(offset, offset + m)))
        offset += m
    return slices


def entry_labels(sensors: Sequence[Sensor]) -> tuple:
    """Per-entry sensor ids and per-sensor indices, in stacking order."""
    ids, indices = [], []
    for sensor in sensors:
        m = measurement_count(sensor)
        ids.extend([sensor.id] * m)
        indices.extend(range(m))
    return tuple(ids), np.array(indices, dtype=int)


def signal_variances(
    values: np.ndarray,
    sensors: Sequence[Sensor],
    noise_floor: float = NOISE_FLOOR_DEFAULT,
) -> np.ndarray:
    """Per-entry noise variance from per-sensor SNR (population variance).

    A multi-reading sampler uses the variance of its own entries. A jar
    reports a single value per period, so its signal variance is pooled
    across the whole jar network (the variance of one number is not a
    signal scale). Flat signals fall back to the ``noise_floor`` std.
    """
    values = np.asarray(values, dtype=float)
    noise_var = np.empty_like(values)
    slices = _sensor_slices(sensors)
    jar_values = np.concatenate(
        # the empty slice keeps the list non-empty when there is no jar
        [values[rows] for s, rows in slices if isinstance(s, DustfallJar)] + [values[:0]]
    )
    jar_var = float(np.var(jar_values)) if jar_values.size else 0.0
    for sensor, rows in slices:
        if isinstance(sensor, DustfallJar):
            signal_var = jar_var
        else:
            signal_var = float(np.var(values[rows]))
        if signal_var > 0:
            noise_var[rows] = signal_var / sensor.snr
        else:
            logger.warning("sensor %s has a flat signal; using noise floor", sensor.id)
            noise_var[rows] = noise_floor**2
    return noise_var


def simulate_measurements(
    clean: np.ndarray,
    sensors: Sequence[Sensor],
    seed: int,
    noise_floor: float = NOISE_FLOOR_DEFAULT,
) -> MeasurementSet:
    """The clean forward data F q plus per-sensor Gaussian noise set by SNR.

    Noise variances follow ``signal_variances`` applied to the clean
    signal: per-sensor entry variance for samplers, pooled across the jar
    network for single-reading jars.
    """
    clean = np.asarray(clean, dtype=float)
    if not np.all(np.isfinite(clean)):
        raise ValueError("clean signal must be finite")
    if clean.shape != (sum(measurement_count(s) for s in sensors),):
        raise ValueError("clean signal length does not match the sensors' measurement counts")
    noise_var = signal_variances(clean, sensors, noise_floor)
    rng = np.random.default_rng(seed)
    values = clean + rng.normal(0.0, np.sqrt(noise_var))
    ids, indices = entry_labels(sensors)
    return MeasurementSet(sensor_ids=ids, indices=indices, values=values)
