"""Stage orchestration over one run directory.

Four stages: ``synth`` (bundled twin-case generator), ``wind_fit`` (GP
regularization of the raw records), ``invert`` (constant, smooth, and
positive estimates), ``propagate`` (low-rank deposition map). Each stage
writes its artifacts plus a run-metadata entry; heavy intermediates live
in ``state/*.npz`` stamped with the config hash, and a requested stage
first runs any missing or stale predecessor.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import io
from .config import RunConfig, config_dict, config_hash
from .errors import ConfigurationError, ValidationError
from .inversion import (
    ConstantFit,
    GaussianPosterior,
    PositivePosterior,
    PriorSpec,
    build_prior,
    gaussian_posterior,
    mle_constant,
    positive_posterior,
)
from .observation import MeasurementSet, TimeGrid, assemble_F
from .sampling import SamplerConfig
from .synthetic import emission_series, generate_synthetic, wind_records
from .uqprop import LowRankFactors, annualize, assemble_H, deposition_stats, lowrank_truncate
from .windprep import GPConfig, WindSeries, fit_wind, select_hyperparameters

__all__ = [
    "STAGES",
    "inversion_grid",
    "generation_grid",
    "run_synth",
    "run_wind_fit",
    "run_invert",
    "run_propagate",
    "run_stage",
    "InversionResult",
]

logger = logging.getLogger(__name__)

STAGES = ("synth", "wind_fit", "invert", "propagate")

TRUTH_FILE = "truth_rates.csv"
WIND_FIT_CSV = "wind_fit.csv"
WIND_FIT_JSON = "wind_fit.json"
GRID_CSV = "deposition_grid.csv"
GRID_JSON = "deposition_grid.json"
METADATA_FILE = "run_metadata.json"


def inversion_grid(cfg: RunConfig) -> TimeGrid:
    t0 = io.parse_timestamp(cfg.time.start)
    return TimeGrid(t0, cfg.dt_inversion, int(round(cfg.time.duration_s / cfg.dt_inversion)))


def generation_grid(cfg: RunConfig) -> TimeGrid:
    t0 = io.parse_timestamp(cfg.time.start)
    return TimeGrid(t0, cfg.dt_generation, int(round(cfg.time.duration_s / cfg.dt_generation)))


def _source_ids(cfg: RunConfig) -> list:
    return [s.id for s in cfg.sources]


# ---------------------------------------------------------------------------
# state files and completion checks


def _state_dir(cfg: RunConfig) -> Path:
    path = cfg.resolve_out_dir() / "state"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _save_state(path: Path, cfg_hash: str, **arrays) -> None:
    np.savez(path, config_hash=np.array(cfg_hash), **arrays)


def _load_state(path: Path, cfg_hash: str) -> Optional[dict]:
    if not path.is_file():
        return None
    with np.load(path, allow_pickle=False) as data:
        if str(data["config_hash"]) != cfg_hash:
            logger.info("state file %s is stale (config changed); recomputing", path)
            return None
        return {k: data[k] for k in data.files if k != "config_hash"}


def _csv_declared_hash(path: Path) -> Optional[str]:
    if not path.is_file():
        return None
    with open(path) as handle:
        first = handle.readline().strip()
    prefix = "# config_hash="
    return first[len(prefix):] if first.startswith(prefix) else None


def _synth_complete(cfg: RunConfig, cfg_hash: str) -> bool:
    out = cfg.resolve_out_dir()
    csvs = [
        cfg.resolve_input("wind_csv"),
        cfg.resolve_input("measurements_csv"),
        out / TRUTH_FILE,
    ]
    if any(_csv_declared_hash(p) != cfg_hash for p in csvs):
        return False
    sensors_path = cfg.resolve_input("sensors_file")
    if not sensors_path.is_file():
        return False
    try:
        import yaml

        declared = yaml.safe_load(sensors_path.read_text()).get("config_hash")
    except Exception:
        return False
    return declared == cfg_hash


def _wind_complete(cfg: RunConfig, cfg_hash: str) -> bool:
    state = _load_state(_state_dir(cfg) / "wind.npz", cfg_hash)
    if state is None:
        return False
    return cfg.synthetic is None or "u_x_gen" in state


def _invert_complete(cfg: RunConfig, cfg_hash: str) -> bool:
    return _load_state(_state_dir(cfg) / "inversion.npz", cfg_hash) is not None


def _propagate_complete(cfg: RunConfig, cfg_hash: str) -> bool:
    out = cfg.resolve_out_dir()
    if _csv_declared_hash(out / GRID_CSV) != cfg_hash:
        return False
    sidecar = out / GRID_JSON
    try:
        return io.read_json(sidecar).get("config_hash") == cfg_hash
    except (OSError, ValueError):
        return False


_COMPLETE = {
    "synth": _synth_complete,
    "wind_fit": _wind_complete,
    "invert": _invert_complete,
    "propagate": _propagate_complete,
}


def _update_metadata(cfg: RunConfig, cfg_hash: str, stage: str, payload: dict) -> None:
    path = cfg.resolve_out_dir() / METADATA_FILE
    data = {}
    if path.is_file():
        try:
            data = io.read_json(path)
        except ValueError:
            logger.warning("unreadable %s; rewriting", path)
    if data.get("config_hash") != cfg_hash:
        data = {"stages": {}}
    data.setdefault("stages", {})[stage] = payload
    # Paths are dropped for the same reason config_hash ignores them: two
    # runs of the same case in different directories must match byte for
    # byte (timing_s aside).
    echo = config_dict(cfg)
    echo.pop("paths", None)
    io.write_json(path, {"config": echo, "stages": data["stages"]}, cfg_hash)


# ---------------------------------------------------------------------------
# synth


def run_synth(cfg: RunConfig) -> dict:
    """Generate the synthetic case artifacts into the run directory.

    Writes the raw wind CSV, the sensor registry, the noisy measurement
    CSV, and the truth rates, then fits the wind (the fit is shared with
    the wind_fit stage). Measurement generation runs on the finer
    generation grid; reusing the inversion step size is refused unless
    the config opts in.
    """
    if cfg.synthetic is None:
        raise ConfigurationError("config has no synthetic section; cannot run synth")
    if cfg.dt_generation == cfg.dt_inversion and not cfg.allow_same_dt:
        raise ConfigurationError(
            "dt_generation equals dt_inversion; generating data on the inversion "
            "grid invites an inverse crime (set allow_same_dt to override)"
        )
    tic = time.perf_counter()
    out = cfg.resolve_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)
    gen_grid = generation_grid(cfg)
    t0 = gen_grid.t0

    records = wind_records(
        cfg.synthetic.wind_model, t0, cfg.time.duration_s, cfg.synthetic.wind_cadence_s
    )
    io.write_wind_csv(cfg.resolve_input("wind_csv"), records, h)
    # Fit from the file just written so later refits reproduce it exactly.
    wind = run_wind_fit(cfg)

    sensors = cfg.synthetic.sensors
    io.write_sensors(cfg.resolve_input("sensors_file"), sensors, h)

    q_true, measurements = generate_synthetic(
        cfg.synthetic.spec,
        cfg.sources,
        sensors,
        wind["generation"],
        gen_grid,
        cfg.particle,
        cfg.stability,
        seed=cfg.sampler.seed,
        noise_floor=cfg.noise_floor,
        x_cutoff=cfg.plume.x_cutoff_m,
        calm_speed=cfg.plume.calm_speed_mps,
    )
    io.write_measurements(cfg.resolve_input("measurements_csv"), measurements, h)
    io.write_truth_csv(out / TRUTH_FILE, _source_ids(cfg), gen_grid, q_true, h)

    _update_metadata(
        cfg,
        h,
        "synth",
        {
            "n_measurements": int(measurements.values.size),
            "n_sensors": len(sensors),
            "seed": cfg.sampler.seed,
            "timing_s": time.perf_counter() - tic,
        },
    )
    return {"q_true": q_true, "measurements": measurements, "wind": wind, "grid": gen_grid}


# ---------------------------------------------------------------------------
# wind_fit


def run_wind_fit(cfg: RunConfig) -> dict:
    """Regularize the raw wind records onto the inversion grid.

    One cross-validation per component selects the kernel; the same
    kernels are then evaluated on the generation grid too when the config
    has a synthetic section (the synth stage consumes that series).
    Returns {"inversion": WindSeries, "generation": WindSeries | None}.
    """
    tic = time.perf_counter()
    h = config_hash(cfg)
    records = io.load_wind_csv(cfg.resolve_input("wind_csv"))
    inv_grid = inversion_grid(cfg)
    configs = select_hyperparameters(
        records, seed=cfg.sampler.seed, cv_max_points=cfg.wind_cv_max_points
    )
    series_inv = fit_wind(records, inv_grid, configs)
    series_gen = None
    arrays = {
        "u_x_inv": series_inv.u_x,
        "u_y_inv": series_inv.u_y,
        "hyper_x": np.array([configs[0].signal_var, configs[0].length_scale, configs[0].noise_var]),
        "hyper_y": np.array([configs[1].signal_var, configs[1].length_scale, configs[1].noise_var]),
    }
    if cfg.synthetic is not None:
        series_gen = fit_wind(records, generation_grid(cfg), configs)
        arrays["u_x_gen"] = series_gen.u_x
        arrays["u_y_gen"] = series_gen.u_y
    _save_state(_state_dir(cfg) / "wind.npz", h, **arrays)

    out = cfg.resolve_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / WIND_FIT_CSV, "w", newline="") as handle:
        handle.write(f"# config_hash={h}\n")
        handle.write("timestamp,u_x_mps,u_y_mps,speed_mps\n")
        speed = series_inv.speed
        for j, t in enumerate(inv_grid.times):
            handle.write(
                f"{io.format_timestamp(t)},{series_inv.u_x[j]:.12g},"
                f"{series_inv.u_y[j]:.12g},{speed[j]:.12g}\n"
            )
    hyper = {
        name: {
            "signal_var": configs[k].signal_var,
            "length_scale_s": configs[k].length_scale,
            "noise_var": configs[k].noise_var,
        }
        for k, name in enumerate(("u_x", "u_y"))
    }
    io.write_json(
        out / WIND_FIT_JSON,
        {"n_records": len(records), "hyperparameters": hyper},
        h,
    )
    _update_metadata(
        cfg,
        h,
        "wind_fit",
        {
            "n_records": len(records),
            "hyperparameters": hyper,
            "timing_s": time.perf_counter() - tic,
        },
    )
    return {"inversion": series_inv, "generation": series_gen, "configs": configs}


def load_wind_series(cfg: RunConfig) -> dict:
    """Wind state from disk as {"inversion": ..., "generation": ...}."""
    h = config_hash(cfg)
    state = _load_state(_state_dir(cfg) / "wind.npz", h)
    if state is None:
        raise ConfigurationError("wind state missing or stale; run the wind_fit stage")
    inv = WindSeries(inversion_grid(cfg), state["u_x_inv"], state["u_y_inv"])
    gen = None
    if "u_x_gen" in state:
        gen = WindSeries(generation_grid(cfg), state["u_x_gen"], state["u_y_gen"])
    return {"inversion": inv, "generation": gen}


# ---------------------------------------------------------------------------
# invert


@dataclass
class InversionResult:
    """Everything the inversion stage produced, for callers and tests."""

    grid: TimeGrid
    sensors: list
    measurements: MeasurementSet
    noise_var: np.ndarray
    f_matrix: np.ndarray
    constant: ConstantFit
    smooth: Optional[GaussianPosterior]
    positive: Optional[PositivePosterior]


def _artifact_suffix(drop_sensor: Optional[str], noise_scale: float) -> str:
    parts = []
    if drop_sensor is not None:
        parts.append(f"drop-{drop_sensor}")
    if noise_scale != 1.0:
        parts.append(f"noise-{noise_scale:g}")
    return ("_" + "_".join(parts)) if parts else ""


def run_invert(
    cfg: RunConfig,
    through: str = "positive",
    drop_sensor: Optional[str] = None,
    noise_scale: float = 1.0,
) -> InversionResult:
    """Estimate emission rates from the measurement file.

    Args:
        cfg: run configuration (wind state must exist; see run_stage).
        through: last stage to run, "constant", "smooth", or "positive".
        drop_sensor: exclude this sensor id (ablation experiments).
        noise_scale: multiplies the noise std handed to the inversion
            (the injected noise is untouched); 0.5 models an optimistic
            noise assumption.

    Side experiments (drop_sensor set or noise_scale != 1) write suffixed
    emission CSVs and do not touch the pipeline state.
    """
    if through not in ("constant", "smooth", "positive"):
        raise ValidationError(f"unknown inversion stage {through!r}")
    if noise_scale <= 0:
        raise ValidationError("noise_scale must be positive")
    tic = time.perf_counter()
    h = config_hash(cfg)
    grid = inversion_grid(cfg)
    sensors = io.load_sensors(cfg.resolve_input("sensors_file"))
    measurements = io.load_measurements(
        cfg.resolve_input("measurements_csv"), sensors, noise_floor=cfg.noise_floor
    )
    if drop_sensor is not None:
        ids = [s.id for s in sensors]
        if drop_sensor not in ids:
            raise ValidationError(f"cannot drop unknown sensor {drop_sensor!r}")
        keep = np.array([sid != drop_sensor for sid in measurements.sensor_ids])
        sensors = [s for s in sensors if s.id != drop_sensor]
        if not sensors:
            raise ValidationError("dropping that sensor leaves no measurements")
        measurements = MeasurementSet(
            sensor_ids=tuple(np.array(measurements.sensor_ids)[keep]),
            indices=measurements.indices[keep],
            values=measurements.values[keep],
            noise_var=measurements.noise_var[keep],
            units=tuple(np.array(measurements.units)[keep]),
        )
        logger.info("dropped sensor %s (%d measurements remain)", drop_sensor, keep.sum())
    noise_var = measurements.noise_var * noise_scale**2

    wind = load_wind_series(cfg)["inversion"]
    f_matrix = assemble_F(
        sensors,
        cfg.sources,
        wind,
        grid,
        cfg.particle,
        cfg.stability,
        x_cutoff=cfg.plume.x_cutoff_m,
        calm_speed=cfg.plume.calm_speed_mps,
    )
    d = measurements.values
    n_sources = len(cfg.sources)
    suffix = _artifact_suffix(drop_sensor, noise_scale)
    side_experiment = bool(suffix)
    out = cfg.resolve_out_dir()

    constant = mle_constant(f_matrix, d, noise_var, n_sources)
    io.write_emissions_csv(
        out / f"emissions_constant{suffix}.csv",
        _source_ids(cfg),
        grid,
        constant.q,
        np.zeros_like(constant.q),
        h,
    )

    smooth = None
    positive = None
    if through in ("smooth", "positive"):
        prior = build_prior(PriorSpec(cfg.prior.alpha, cfg.prior.gamma, grid, n_sources))
        smooth = gaussian_posterior(f_matrix, d, noise_var, prior, constant.q)
        io.write_emissions_csv(
            out / f"emissions_smooth{suffix}.csv",
            _source_ids(cfg),
            grid,
            smooth.mean,
            smooth.std,
            h,
        )
        if through == "positive":
            sampler_cfg = SamplerConfig(
                beta=cfg.sampler.beta,
                n_steps=cfg.sampler.n_steps,
                burn_in_fraction=cfg.sampler.burn_in_fraction,
                seed=cfg.sampler.seed,
            )
            positive = positive_posterior(f_matrix, d, noise_var, prior, smooth.mean, sampler_cfg)
            std_sp = np.sqrt(np.maximum(np.diag(positive.cov_sp), 0.0))
            io.write_emissions_csv(
                out / f"emissions_positive{suffix}.csv",
                _source_ids(cfg),
                grid,
                positive.q_sp,
                std_sp,
                h,
            )

    if not side_experiment and through == "positive":
        _save_state(
            _state_dir(cfg) / "inversion.npz",
            h,
            rates_const=constant.rates,
            q_const=constant.q,
            q_smooth=smooth.mean,
            std_smooth=smooth.std,
            q_positive=positive.q_sp,
            cov_positive=positive.cov_sp,
            v_mean=positive.v_mean,
            acceptance_rate=np.array(positive.acceptance_rate),
            ess=np.array(positive.ess),
        )
        annual = {
            "constant": annualize(constant.q, grid),
            "smooth": annualize(smooth.mean, grid),
            "positive": annualize(positive.q_sp, grid),
        }
        per_source = {
            sid: annualize(positive.q_sp[i * grid.n_steps : (i + 1) * grid.n_steps], grid)
            for i, sid in enumerate(_source_ids(cfg))
        }
        _update_metadata(
            cfg,
            h,
            "invert",
            {
                "constant_rates_kg_s": {
                    sid: float(r) for sid, r in zip(_source_ids(cfg), constant.rates)
                },
                "kkt_residual": float(constant.kkt_residual),
                "nnls_unique": bool(constant.unique),
                "acceptance_rate": float(positive.acceptance_rate),
                "ess": float(positive.ess),
                "beta": float(positive.beta),
                "n_steps": int(positive.n_steps),
                "n_nonfinite": int(positive.n_nonfinite),
                "annual_total_tonne_yr": annual,
                "annual_per_source_tonne_yr": per_source,
                "timing_s": time.perf_counter() - tic,
            },
        )
    return InversionResult(
        grid=grid,
        sensors=sensors,
        measurements=measurements,
        noise_var=noise_var,
        f_matrix=f_matrix,
        constant=constant,
        smooth=smooth,
        positive=positive,
    )


# ---------------------------------------------------------------------------
# propagate


def run_propagate(cfg: RunConfig) -> dict:
    """Low-rank deposition map from the stored positive posterior."""
    tic = time.perf_counter()
    h = config_hash(cfg)
    state = _load_state(_state_dir(cfg) / "inversion.npz", h)
    if state is None:
        raise ConfigurationError("inversion state missing or stale; run the invert stage")
    grid = inversion_grid(cfg)
    wind = load_wind_series(cfg)["inversion"]
    gspec = cfg.grid.spec()

    h_matrix = assemble_H(
        gspec,
        cfg.sources,
        wind,
        grid,
        cfg.particle,
        cfg.stability,
        x_cutoff=cfg.plume.x_cutoff_m,
        calm_speed=cfg.plume.calm_speed_mps,
    )
    n_modes = min(cfg.grid.n_modes, state["cov_positive"].shape[0])
    factors = lowrank_truncate(state["cov_positive"], n_modes)
    deposition = deposition_stats(h_matrix, state["q_positive"], factors, gspec)

    out = cfg.resolve_out_dir()
    io.write_grid_csv(out / GRID_CSV, deposition, h)
    eigenvalues = [float(v) for v in factors.eigenvalues]
    io.write_json(
        out / GRID_JSON,
        {
            "grid": {
                "x_min_m": gspec.x_min,
                "x_max_m": gspec.x_max,
                "y_min_m": gspec.y_min,
                "y_max_m": gspec.y_max,
                "n_x": gspec.n_x,
                "n_y": gspec.n_y,
            },
            "n_modes": factors.n_modes,
            "eigenvalues": eigenvalues,
            "unit": "mg_m2",
        },
        h,
    )
    lam1 = eigenvalues[0] if eigenvalues and eigenvalues[0] > 0 else float("nan")
    _update_metadata(
        cfg,
        h,
        "propagate",
        {
            "n_modes": factors.n_modes,
            "eigenvalue_ratio_last_to_first": (
                eigenvalues[-1] / lam1 if eigenvalues else float("nan")
            ),
            "max_mean_mg_m2": float(deposition.mean.max() * io.KG_TO_MG),
            "annual_total_tonne_yr": annualize(state["q_positive"], grid),
            "timing_s": time.perf_counter() - tic,
        },
    )
    return {"deposition": deposition, "factors": factors, "h_matrix": h_matrix}


# ---------------------------------------------------------------------------
# chaining


_RUNNERS = {
    "synth": run_synth,
    "wind_fit": run_wind_fit,
    "invert": run_invert,
    "propagate": run_propagate,
}


def _predecessors(cfg: RunConfig, stage: str) -> list:
    chain = []
    order = [s for s in STAGES if cfg.synthetic is not None or s != "synth"]
    for s in order:
        if s == stage:
            break
        chain.append(s)
    return chain


def run_stage(cfg: RunConfig, stage: str, **invert_options) -> object:
    """Run one stage, first filling in missing or stale predecessors."""
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r} (expected one of {STAGES})")
    if stage == "synth" and cfg.synthetic is None:
        raise ConfigurationError("config has no synthetic section; cannot run synth")
    h = config_hash(cfg)
    for previous in _predecessors(cfg, stage):
        if previous == "synth" and stage == "wind_fit":
            # wind_fit only needs the raw wind CSV; a real-data run provides it.
            if cfg.synthetic is None:
                continue
        if not _COMPLETE[previous](cfg, h):
            logger.info("stage %s incomplete; running it first", previous)
            _RUNNERS[previous](cfg)
    if cfg.synthetic is None and not cfg.resolve_input("wind_csv").is_file():
        raise ValidationError(
            f"wind file not found: {cfg.resolve_input('wind_csv')} (no synthetic section to generate it)"
        )
    if stage == "invert":
        return run_invert(cfg, **invert_options)
    return _RUNNERS[stage](cfg)
