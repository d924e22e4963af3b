"""Run configuration: YAML parsing, validation, overrides.

The config file is nested key/value YAML. Relative input paths resolve
against the output directory (all artifacts of a run live together);
``out_dir`` itself resolves against the working directory. ``load_config``
takes the two overrides a caller may pass, the output directory and the
sampler seed; keys the loader does not read are ignored.

A section that one stage reads is that stage's own type, validated where
it is defined: ``prior`` is ``inversion.PriorConfig``, ``sampler`` is
``sampling.SamplerConfig``, ``grid`` is ``uqprop.GridSpec`` and
``particle`` is ``plume.ParticleProperties``. ``RunConfig.plume_model``
joins ``sources``, ``particle``, ``stability_class`` and the ``plume``
section into the ``plume.PlumeModel`` that the forward operators take.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import ValidationError, _given, _number, _require
from .inversion import PriorConfig
from .io import _read_yaml, _sensor_list, parse_timestamp
from .observation import NOISE_FLOOR_DEFAULT, TimeGrid, window_slots
from .plume import (
    CALM_SPEED_DEFAULT,
    X_CUTOFF_DEFAULT,
    ParticleProperties,
    PlumeModel,
    SourceSite,
    StabilityClass,
)
from .sampling import SamplerConfig
from .synthetic import Harmonic, SourceSignal, SyntheticSpec, WindModel
from .uqprop import GridSpec

__all__ = ["RunConfig", "load_config"]


@dataclass(frozen=True)
class PathsConfig:
    wind_csv: str
    sensors_file: str
    measurements_csv: str
    out_dir: str


@dataclass(frozen=True)
class TimeConfig:
    start: str  # ISO-8601
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValidationError("time.duration_s must be positive")


@dataclass(frozen=True)
class PlumeSettings:
    x_cutoff_m: float = X_CUTOFF_DEFAULT
    calm_speed_mps: float = CALM_SPEED_DEFAULT

    def __post_init__(self) -> None:
        if not self.x_cutoff_m >= 0.0:
            raise ValidationError(f"plume.x_cutoff_m must be non-negative, got {self.x_cutoff_m}")
        if not self.calm_speed_mps > 0.0:
            raise ValidationError(f"plume.calm_speed_mps must be positive, got {self.calm_speed_mps}")


@dataclass(frozen=True)
class SyntheticConfig:
    spec: SyntheticSpec
    wind_model: WindModel
    sensors: tuple = ()
    wind_cadence_s: float = 600.0

    def __post_init__(self) -> None:
        if not self.wind_cadence_s > 0:
            raise ValidationError(
                f"synthetic.wind_cadence_s must be positive, got {self.wind_cadence_s}"
            )
        if not self.wind_model.min_speed >= 0:
            raise ValidationError(
                "synthetic.wind_model.min_speed_mps must be non-negative, "
                f"got {self.wind_model.min_speed}"
            )


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig
    time: TimeConfig
    particle: ParticleProperties
    stability: StabilityClass
    sources: tuple
    grid: GridSpec
    dt_inversion: float = 3600.0
    dt_generation: float = 1800.0
    prior: PriorConfig = field(default_factory=PriorConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    plume: PlumeSettings = field(default_factory=PlumeSettings)
    synthetic: Optional[SyntheticConfig] = None
    noise_floor: float = NOISE_FLOOR_DEFAULT

    def __post_init__(self) -> None:
        if self.dt_inversion <= 0 or self.dt_generation <= 0:
            raise ValidationError("time step sizes must be positive")
        if not self.sources:
            raise ValidationError("at least one source is required")
        if not self.noise_floor > 0:
            raise ValidationError(f"noise_floor must be positive, got {self.noise_floor}")
        for dt, name in ((self.dt_inversion, "dt_inversion"), (self.dt_generation, "dt_generation")):
            steps = self.time.duration_s / dt
            if abs(steps - round(steps)) > 1e-9:
                raise ValidationError(f"{name}={dt} does not divide the duration evenly")
            if round(steps) < 2:
                raise ValidationError(f"{name}_s={dt} leaves fewer than two steps in the duration")
        if self.synthetic is not None and self.dt_generation == self.dt_inversion:
            raise ValidationError(
                "dt_generation_s equals dt_inversion_s; generating data on the inversion "
                "grid invites an inverse crime"
            )
        if self.synthetic is not None:
            # Refused here, before the wind fit or synth writes anything.
            for dt in (self.dt_inversion, self.dt_generation):
                grid = self.time_grid(dt)
                for sensor in self.synthetic.sensors:
                    window_slots(sensor, grid)

    @property
    def plume_model(self) -> PlumeModel:
        """The forward model of the sources, particle, stability and ``plume`` section."""
        plume = self.plume
        return PlumeModel(
            self.sources, self.particle, self.stability, plume.x_cutoff_m, plume.calm_speed_mps
        )

    def time_grid(self, dt: float) -> TimeGrid:
        """The grid of ``dt`` steps over the run's horizon."""
        return TimeGrid(parse_timestamp(self.time.start), dt, round(self.time.duration_s / dt))

    def resolve_out_dir(self) -> Path:
        return Path(self.paths.out_dir)

    def resolve_input(self, name: str) -> Path:
        raw = Path(getattr(self.paths, name))
        return raw if raw.is_absolute() else self.resolve_out_dir() / raw


def _section(data: dict, key: str) -> dict:
    value = _require(data, key, "")
    if not isinstance(value, dict):
        raise ValidationError(f"config section {key!r} must be a mapping")
    return value


def _build_sources(items) -> tuple:
    if not isinstance(items, list) or not items:
        raise ValidationError("config key 'sources' must be a non-empty list")
    sources = []
    for i, item in enumerate(items):
        try:
            sources.append(
                SourceSite(
                    id=str(_require(item, "id", f"sources[{i}]")),
                    x=_number(item, "x_m", f"sources[{i}]"),
                    y=_number(item, "y_m", f"sources[{i}]"),
                    height=_number(item, "z_m", f"sources[{i}]"),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"sources[{i}]: {exc}") from exc
    ids = [s.id for s in sources]
    if len(set(ids)) != len(ids):
        raise ValidationError("source ids must be unique")
    return tuple(sources)


def _build_harmonics(items, where: str) -> tuple:
    out = []
    for i, item in enumerate(items or []):
        at = f"{where}[{i}]"
        amplitude, period = _number(item, "amplitude", at), _number(item, "period_s", at)
        phase = _given(item, at, phase=("phase_rad", float))
        try:
            out.append(Harmonic(amplitude, period, **phase))
        except ValueError as exc:
            raise ValidationError(f"{at}.period_s: {exc}") from exc
    return tuple(out)


def _build_synthetic(data: dict, n_sources: int) -> SyntheticConfig:
    wm = _section(data, "wind_model")
    model = WindModel(
        speed_base=_number(wm, "speed_base_mps", "synthetic.wind_model"),
        direction_base=_number(wm, "direction_base_deg", "synthetic.wind_model"),
        speed_harmonics=_build_harmonics(wm.get("speed_harmonics"), "synthetic.wind_model.speed_harmonics"),
        direction_harmonics=_build_harmonics(
            wm.get("direction_harmonics"), "synthetic.wind_model.direction_harmonics"
        ),
        **_given(wm, "synthetic.wind_model", min_speed=("min_speed_mps", float)),
    )
    raw_signals = _require(data, "signals", "synthetic")
    if not isinstance(raw_signals, list) or len(raw_signals) != n_sources:
        raise ValidationError(
            f"synthetic.signals must list one entry per source ({n_sources}), got "
            f"{len(raw_signals) if isinstance(raw_signals, list) else type(raw_signals).__name__}"
        )
    signals = []
    for i, item in enumerate(raw_signals):
        try:
            signals.append(
                SourceSignal(
                    amplitude=_number(item, "amplitude_kg_s", f"synthetic.signals[{i}]"),
                    omega=_number(item, "omega_rad_s", f"synthetic.signals[{i}]"),
                    offset=_number(item, "offset_kg_s", f"synthetic.signals[{i}]"),
                    **_given(item, f"synthetic.signals[{i}]", phase=("phase_rad", float)),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"synthetic.signals[{i}]: {exc}") from exc
    clip = {"clip": data["clip"]} if "clip" in data else {}
    if clip and not isinstance(clip["clip"], bool):
        raise ValidationError(f"key synthetic.clip must be true or false, got {data['clip']!r}")
    spec = SyntheticSpec(signals=tuple(signals), **clip)
    sensors = _sensor_list(_require(data, "sensors", "synthetic"), "synthetic.sensors")
    return SyntheticConfig(
        spec=spec,
        wind_model=model,
        sensors=tuple(sensors),
        **_given(data, "synthetic", wind_cadence_s=("wind_cadence_s", float)),
    )


def _config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be a mapping")
    paths_raw = _section(data, "paths")
    paths = PathsConfig(
        wind_csv=str(_require(paths_raw, "wind_csv", "paths")),
        sensors_file=str(_require(paths_raw, "sensors_file", "paths")),
        measurements_csv=str(_require(paths_raw, "measurements_csv", "paths")),
        out_dir=str(_require(paths_raw, "out_dir", "paths")),
    )
    time_raw = _section(data, "time")
    time_cfg = TimeConfig(
        start=str(_require(time_raw, "start", "time")),
        duration_s=_number(time_raw, "duration_s", "time"),
    )
    particle_raw = _section(data, "particle")
    try:
        particle = ParticleProperties(
            w_dep=_number(particle_raw, "w_dep_mps", "particle"),
            w_set=_number(particle_raw, "w_set_mps", "particle"),
        )
    except ValueError as exc:
        raise ValidationError(f"particle: {exc}") from exc
    stability_raw = str(_require(data, "stability_class", ""))
    try:
        stability = StabilityClass(stability_raw)
    except ValueError:
        raise ValidationError(f"unknown stability class {stability_raw!r} (expected A..F)")
    sources = _build_sources(_require(data, "sources", ""))
    grid_raw = _section(data, "grid")
    grid = GridSpec(
        x_min=_number(grid_raw, "x_min_m", "grid"),
        x_max=_number(grid_raw, "x_max_m", "grid"),
        y_min=_number(grid_raw, "y_min_m", "grid"),
        y_max=_number(grid_raw, "y_max_m", "grid"),
        **_given(grid_raw, "grid", n_x=("n_x", int), n_y=("n_y", int), n_modes=("n_modes", int)),
    )

    prior = PriorConfig(
        **_given(data.get("prior", {}), "prior", alpha=("alpha", float), gamma=("gamma", float))
    )
    sampler = SamplerConfig(
        **_given(
            data.get("sampler", {}),
            "sampler",
            beta=("beta", float),
            n_steps=("n_steps", int),
            burn_in_fraction=("burn_in_fraction", float),
            seed=("seed", int),
        )
    )
    plume = PlumeSettings(
        **_given(
            data.get("plume", {}),
            "plume",
            x_cutoff_m=("x_cutoff_m", float),
            calm_speed_mps=("calm_speed_mps", float),
        )
    )
    synthetic = None
    if "synthetic" in data:
        synthetic = _build_synthetic(_section(data, "synthetic"), len(sources))

    extra = _given(
        data,
        "",
        dt_inversion=("dt_inversion_s", float),
        dt_generation=("dt_generation_s", float),
        noise_floor=("noise_floor", float),
    )
    try:
        return RunConfig(
            paths=paths,
            time=time_cfg,
            particle=particle,
            stability=stability,
            sources=sources,
            grid=grid,
            prior=prior,
            sampler=sampler,
            plume=plume,
            synthetic=synthetic,
            **extra,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _apply_overrides(cfg: RunConfig, out_dir=None, seed=None) -> RunConfig:
    if seed is not None:
        cfg = replace(cfg, sampler=replace(cfg.sampler, seed=int(seed)))
    if out_dir is not None:
        cfg = replace(cfg, paths=replace(cfg.paths, out_dir=str(out_dir)))
    return cfg


def load_config(path, out_dir=None, seed=None) -> RunConfig:
    """Parse, validate, and apply the output directory and seed overrides."""
    cfg = _config_from_dict(_read_yaml(path, "config"))
    return _apply_overrides(cfg, out_dir=out_dir, seed=seed)


def _as_plain(obj):
    """Recursively convert config dataclasses to JSON-serializable data."""
    if is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, StabilityClass):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    return obj


def config_dict(cfg: RunConfig) -> dict:
    return _as_plain(cfg)

