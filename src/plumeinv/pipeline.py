"""Stage orchestration over one run directory.

Four stages, in this order: ``wind_fit`` (GP regularization of the raw
records, which a synthetic case first writes from its wind model),
``synth`` (twin-case data on the wind model; it reads no file), ``invert``
(constant, smooth, and positive estimates), ``propagate`` (low-rank
deposition map). No stage runs another; ``run_stage`` alone chains them.
Each stage writes its artifacts, stamped with its key, plus a run-metadata
entry; the arrays a later stage loads (the fitted wind, the positive-stage
mean, its covariance's Nystrom factor and trace) live in ``state/*.npz``.

The key of a stage is a sha256 over ``OUTPUT_VERSION``, the config slice
it reads (``SLICES``; paths never count), the keys of the stages that
wrote the files it reads, and the sha256 of every file it reads that no
stage writes (the wind, sensors and measurements files of real data).
``run_metadata.json`` keeps the key each stage last ran under; a stage is
fresh when that key is its current key and the files it writes exist.
A requested stage always runs, after every stale predecessor.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.sparse import csr_array

from . import io, threads
from .config import RunConfig, config_dict
from .errors import ConfigurationError, ValidationError
from .inversion import (
    ConstantFit,
    GaussianPosterior,
    SmoothnessPrior,
    gaussian_posterior,
    mle_constant,
    positive_posterior,
)
from .observation import MeasurementSet, TimeGrid, assemble_F, signal_variances
from .sampling import ChainSummary, sketch_test_matrix
from .synthetic import generate_synthetic, wind_records, wind_series
from .uqprop import annualize, assemble_H, deposition_stats, lowrank_truncate
from .windprep import WindSeries, fit_wind, select_hyperparameters

__all__ = [
    "STAGES",
    "SLICES",
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

STAGES = ("wind_fit", "synth", "invert", "propagate")

# In every stage key: bumped where a stage's bytes or a state layout move,
# so a directory an older package wrote reruns instead of reading as fresh.
OUTPUT_VERSION = 4

# The config each stage reads, as dotted paths into config_dict(cfg).
# sampler.seed is the run's one seed: it drives the synthetic noise, the
# wind cross-validation shuffle and the chain. A change to the wind fit's
# slice reaches invert and propagate through the key of state/wind.npz.
_PLUME_MODEL_SLICE = ("sources", "particle", "stability", "plume")
_MODEL_SLICE = ("time", "dt_inversion") + _PLUME_MODEL_SLICE
SLICES = {
    "wind_fit": ("time", "dt_inversion", "sampler.seed")
    + ("synthetic.wind_model", "synthetic.wind_cadence_s"),
    "synth": ("time", "dt_generation", "sampler.seed") + _PLUME_MODEL_SLICE
    + ("synthetic.spec", "synthetic.wind_model", "synthetic.sensors", "noise_floor"),
    "invert": _MODEL_SLICE + ("noise_floor", "prior", "sampler"),
    "propagate": _MODEL_SLICE + ("grid",),
}

TRUTH_FILE = "truth_rates.csv"
WIND_FIT_CSV = "wind_fit.csv"
WIND_FIT_JSON = "wind_fit.json"
GRID_CSV = "deposition_grid.csv"
GRID_JSON = "deposition_grid.json"
METADATA_FILE = "run_metadata.json"
WIND_STATE = "state/wind.npz"
INVERSION_STATE = "state/inversion.npz"
_STATE_CHUNK_BYTES = 1 << 20
ESTIMATES = ("constant", "smooth", "positive")


def inversion_grid(cfg: RunConfig) -> TimeGrid:
    return cfg.time_grid(cfg.dt_inversion)


def generation_grid(cfg: RunConfig) -> TimeGrid:
    return cfg.time_grid(cfg.dt_generation)


def _source_ids(cfg: RunConfig) -> list:
    return [s.id for s in cfg.sources]


# ---------------------------------------------------------------------------
# stage keys and the manifest


def _stages(cfg: RunConfig) -> tuple:
    return tuple(s for s in STAGES if cfg.synthetic is not None or s != "synth")


def _stage_files(cfg: RunConfig) -> dict:
    """(files read, files written) of each stage."""
    out = cfg.resolve_out_dir()
    wind_csv, sensors, measurements = (
        cfg.resolve_input(name) for name in ("wind_csv", "sensors_file", "measurements_csv")
    )
    wind_state, inversion_state = out / WIND_STATE, out / INVERSION_STATE
    wind_fit = (wind_state, out / WIND_FIT_CSV, out / WIND_FIT_JSON)
    # A synthetic case's wind file is the wind fit's own output, never an input.
    wind_fit = ((wind_csv,), wind_fit) if cfg.synthetic is None else ((), (wind_csv, *wind_fit))
    return {
        "wind_fit": wind_fit,
        "synth": ((), (sensors, measurements, out / TRUTH_FILE)),
        "invert": (
            (sensors, measurements, wind_state),
            (inversion_state, *(out / f"emissions_{name}.csv" for name in ESTIMATES)),
        ),
        "propagate": ((inversion_state, wind_state), (out / GRID_CSV, out / GRID_JSON)),
    }


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _file_digest(path: Path) -> Optional[str]:
    # A missing input gets no digest; the stage that reads it reports it.
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _pick(plain: dict, dotted: str):
    # None under a missing section: a real-data case has no synthetic keys.
    for part in dotted.split("."):
        plain = None if plain is None else plain[part]
    return plain


def _stage_keys(cfg: RunConfig) -> dict:
    """The current key of every stage of this config."""
    plain = config_dict(cfg)
    files = _stage_files(cfg)
    keys, written = {}, set()
    for stage in _stages(cfg):
        reads, writes = files[stage]
        keys[stage] = _digest(
            {
                "version": OUTPUT_VERSION,
                "config": {name: _pick(plain, name) for name in SLICES[stage]},
                "upstream": {s: keys[s] for s in keys if set(files[s][1]) & set(reads)},
                "inputs": [_file_digest(p) for p in reads if p not in written],
            }
        )
        written.update(writes)
    return keys


def _read_metadata(cfg: RunConfig) -> dict:
    path = cfg.resolve_out_dir() / METADATA_FILE
    if not path.is_file():
        return {}
    try:
        return io.read_json(path)
    except ValueError:
        logger.warning("unreadable %s; every stage counts as stale", path)
        return {}


def _fresh(cfg: RunConfig, stage: str, keys: dict) -> bool:
    recorded = _read_metadata(cfg).get("stage_keys", {})
    _, writes = _stage_files(cfg)[stage]
    return recorded.get(stage) == keys[stage] and all(p.is_file() for p in writes)


def _finite_or_none(value) -> Optional[float]:
    """A metadata number, or None (JSON null) where it is undefined: NaN or infinite."""
    value = float(value)
    return value if math.isfinite(value) else None


def _record(cfg: RunConfig, stage: str, keys: dict, payload: dict) -> None:
    """Enter a finished stage in run_metadata.json; entries of stale stages go."""
    old = _read_metadata(cfg)
    recorded, entries = old.get("stage_keys", {}), old.get("stages", {})
    kept = [s for s in keys if s != stage and s in entries and recorded.get(s) == keys[s]]
    # Paths stay out, as they stay out of every key: two runs of the same
    # case in different directories must match byte for byte (timing_s aside).
    echo = config_dict(cfg)
    echo.pop("paths", None)
    io.write_json(
        cfg.resolve_out_dir() / METADATA_FILE,
        {
            "config": echo,
            "stage_keys": {**{s: keys[s] for s in kept}, stage: keys[stage]},
            "stages": {**{s: entries[s] for s in kept}, stage: payload},
        },
    )


def _save_state(cfg: RunConfig, name: str, **arrays) -> None:
    """Write ``arrays`` as the .npz archive ``np.savez`` writes: one stored
    zip member ``<key>.npy`` per array.

    Each member's data goes out in slices of at most ``_STATE_CHUNK_BYTES``
    that are views of the array. ``np.savez`` copies up to 16 MiB of an
    array at a time: a whole copy of the 16 MB covariance factor, at
    invert's memory high water.
    """
    path = cfg.resolve_out_dir() / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for key, value in arrays.items():
            value = np.asarray(value)
            header = np.lib.format.header_data_from_array_1_0(value)
            # A Fortran-ordered array (the covariance factor) goes out in its
            # own order, as the header says, without a copy.
            data = np.ascontiguousarray(value.T if header["fortran_order"] else value)
            data = data.reshape(-1).view(np.uint8)
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for start in range(0, data.size, _STATE_CHUNK_BYTES):
                    member.write(data[start : start + _STATE_CHUNK_BYTES])


def _load_state(cfg: RunConfig, stage: str, name: str, keys: dict) -> dict:
    if not _fresh(cfg, stage, keys):
        raise ConfigurationError(f"{name} missing or stale; run the {stage} stage")
    with np.load(cfg.resolve_out_dir() / name, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# synth


def run_synth(cfg: RunConfig) -> None:
    """Write the sensor registry, the noisy measurement CSV, and the truth rates,
    made on the generation grid from the wind model itself."""
    if cfg.synthetic is None:
        raise ConfigurationError("config has no synthetic section; cannot run synth")
    tic = time.perf_counter()
    out = cfg.resolve_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    keys = _stage_keys(cfg)
    syn = cfg.synthetic
    wind = wind_series(syn.wind_model, generation_grid(cfg))

    io.write_sensors(cfg.resolve_input("sensors_file"), syn.sensors, keys["synth"])

    q_true, measurements = generate_synthetic(
        syn.spec, cfg.plume_model, syn.sensors, wind, cfg.sampler.seed, cfg.noise_floor
    )
    io.write_measurements(cfg.resolve_input("measurements_csv"), measurements, keys["synth"])
    io.write_truth_csv(out / TRUTH_FILE, _source_ids(cfg), wind.grid, q_true, keys["synth"])

    payload = {"n_measurements": int(measurements.values.size), "n_sensors": len(syn.sensors)}
    payload.update(seed=cfg.sampler.seed, timing_s=time.perf_counter() - tic)
    _record(cfg, "synth", keys, payload)


# ---------------------------------------------------------------------------
# wind_fit


def run_wind_fit(cfg: RunConfig) -> None:
    """Regularize the raw wind records onto the inversion grid.

    A synthetic case first writes the raw records from its wind model;
    they are read back from that file, so a later refit from it matches
    this fit bit for bit. One cross-validation per component selects the
    kernel, and one fit evaluates it on the inversion grid. A synthetic
    case also records the fit's rms error against the wind model there.
    """
    tic = time.perf_counter()
    keys = _stage_keys(cfg)
    out, syn, inv_grid = cfg.resolve_out_dir(), cfg.synthetic, inversion_grid(cfg)
    if syn is not None:
        out.mkdir(parents=True, exist_ok=True)
        records = wind_records(syn.wind_model, inv_grid.t0, cfg.time.duration_s, syn.wind_cadence_s)
        io.write_wind_csv(cfg.resolve_input("wind_csv"), records, keys["wind_fit"])
    records = io.load_wind_csv(cfg.resolve_input("wind_csv"))
    choices = select_hyperparameters(records, seed=cfg.sampler.seed)
    series = fit_wind(records, inv_grid, [choice.config for choice in choices])
    _save_state(cfg, WIND_STATE, u_x=series.u_x, u_y=series.u_y)

    io.write_wind_fit_csv(out / WIND_FIT_CSV, series, keys["wind_fit"])
    hyper = {
        name: {
            "signal_var": choice.config.signal_var,
            "length_scale_s": choice.config.length_scale,
            "noise_var": choice.config.noise_var,
            "cv_score": choice.score,
            "cv_runner_up_gap": choice.runner_up_gap,
        }
        for name, choice in zip(("u_x", "u_y"), choices)
    }
    io.write_json(
        out / WIND_FIT_JSON,
        {"stage_key": keys["wind_fit"], "n_records": len(records), "hyperparameters": hyper},
    )
    payload = {"n_records": len(records), "hyperparameters": hyper}
    if syn is not None:
        model = wind_series(syn.wind_model, inv_grid)
        squared = (series.u_x - model.u_x) ** 2 + (series.u_y - model.u_y) ** 2
        payload["wind_rms_error_mps"] = float(np.sqrt(np.mean(squared)))
    _record(cfg, "wind_fit", keys, {**payload, "timing_s": time.perf_counter() - tic})


def load_wind_series(cfg: RunConfig) -> WindSeries:
    """The fitted wind on the inversion grid, from disk."""
    return _wind_series(cfg, _stage_keys(cfg))


def _wind_series(cfg: RunConfig, keys: dict) -> WindSeries:
    state = _load_state(cfg, "wind_fit", WIND_STATE, keys)
    return WindSeries(inversion_grid(cfg), state["u_x"], state["u_y"])


# ---------------------------------------------------------------------------
# invert


@dataclass
class InversionResult:
    """Everything the inversion stage produced, for callers and tests."""

    grid: TimeGrid
    measurements: MeasurementSet
    noise_var: np.ndarray
    f_matrix: csr_array
    constant: ConstantFit
    smooth: Optional[GaussianPosterior]
    positive: Optional[ChainSummary]


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
        drop_sensor: exclude this sensor id (ablation experiments); the
            noise variances are computed after the drop, as if its readings
            were never in the measurement file.
        noise_scale: multiplies the noise std handed to the inversion
            (the injected noise is untouched); 0.5 models an optimistic
            noise assumption.

    Side experiments (drop_sensor set or noise_scale != 1) write suffixed
    emission CSVs and do not touch the pipeline state. Only a run that
    writes ``state/inversion.npz`` factors the positive stage's covariance
    sketch, and the factor goes to that file, not into the result.
    """
    if through not in ("constant", "smooth", "positive"):
        raise ValidationError(f"unknown inversion stage {through!r}")
    if not 0 < noise_scale < np.inf:
        raise ValidationError(f"noise_scale must be positive and finite, got {noise_scale}")
    tic = time.perf_counter()
    keys = _stage_keys(cfg)
    grid = inversion_grid(cfg)
    sensors = io.load_sensors(cfg.resolve_input("sensors_file"))
    measurements = io.load_measurements(cfg.resolve_input("measurements_csv"), sensors)
    if drop_sensor is not None:
        if drop_sensor not in [s.id for s in sensors]:
            raise ValidationError(f"cannot drop unknown sensor {drop_sensor!r}")
        ids = np.array(measurements.sensor_ids)
        keep = ids != drop_sensor
        sensors = [s for s in sensors if s.id != drop_sensor]
        if not sensors:
            raise ValidationError("dropping that sensor leaves no measurements")
        measurements = MeasurementSet(
            tuple(ids[keep]), measurements.indices[keep], measurements.values[keep]
        )
        logger.info("dropped sensor %s (%d measurements remain)", drop_sensor, keep.sum())
    # The noise comes from the kept sensors alone: a jar's is pooled over
    # every jar, and a dropped one must not set the others'.
    noise_var = signal_variances(measurements.values, sensors, cfg.noise_floor) * noise_scale**2

    wind = _wind_series(cfg, keys)
    f_matrix = assemble_F(sensors, cfg.plume_model, wind)  # CSR, about 3% nonzero
    d = measurements.values
    n_sources = len(cfg.sources)
    suffix = _artifact_suffix(drop_sensor, noise_scale)
    side_experiment = bool(suffix)
    out = cfg.resolve_out_dir()

    def write_estimate(name: str, mean: np.ndarray, std: np.ndarray) -> None:
        path = out / f"emissions_{name}{suffix}.csv"
        io.write_emissions_csv(path, _source_ids(cfg), grid, mean, std, keys["invert"])

    constant = mle_constant(f_matrix, d, noise_var, n_sources)
    write_estimate("constant", constant.q, np.zeros_like(constant.q))

    smooth = None
    positive = None
    if through in ("smooth", "positive"):
        prior = SmoothnessPrior(cfg.prior, grid, n_sources)
        smooth = gaussian_posterior(f_matrix, d, noise_var, prior, constant.q)
        write_estimate("smooth", smooth.mean, smooth.std)
        if through == "positive":
            positive = positive_posterior(f_matrix, d, noise_var, prior, smooth.mean, cfg.sampler)
            write_estimate("positive", positive.point, np.sqrt(np.maximum(positive.cov.diag, 0.0)))

    if not side_experiment and through == "positive":
        _save_state(
            cfg,
            INVERSION_STATE,
            q_positive=positive.point,
            cov_factor=positive.cov.nystrom_factor(),
            cov_trace=positive.cov.diag.sum(),
        )
        annual = {
            "constant": annualize(constant.q, grid),
            "smooth": annualize(smooth.mean, grid),
            "positive": annualize(positive.point, grid),
        }
        per_source = {
            sid: annualize(positive.point[i * grid.n_steps : (i + 1) * grid.n_steps], grid)
            for i, sid in enumerate(_source_ids(cfg))
        }
        _record(
            cfg,
            "invert",
            keys,
            {
                "constant_rates_kg_s": {
                    sid: float(r) for sid, r in zip(_source_ids(cfg), constant.rates)
                },
                "kkt_residual": float(constant.kkt_residual),
                "nnls_unique": bool(constant.unique),
                "acceptance_rate": float(positive.acceptance_rate),
                "ess": float(positive.ess),
                "r_hat": _finite_or_none(positive.r_hat),
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
    """Low-rank deposition map from the stored positive posterior.

    Returns {"deposition": DepositionGrid, "factors": LowRankFactors}. H is
    never formed: one ``assemble_H`` call applies it to [q | U].
    """
    tic = time.perf_counter()
    keys = _stage_keys(cfg)
    state = _load_state(cfg, "invert", INVERSION_STATE, keys)
    grid = inversion_grid(cfg)
    wind = _wind_series(cfg, keys)

    factor = state["cov_factor"]
    total_variance = state["cov_trace"]

    def trace_share(part: float) -> float:
        """``part`` over the chain's covariance trace; NaN (null) unless that is positive."""
        return part / total_variance if total_variance > 0 else math.nan

    # E E^T <= C, so this share bounds the sketch's error in the trace norm.
    # It is read before the eigensolve's QR overwrites the factor, and in
    # the factor's own (Fortran) order, as np.vdot would copy the 2-D array
    # to C order.
    flat = factor.ravel(order="K")
    unexplained = 1.0 - trace_share(np.vdot(flat, flat))
    sketch_size = factor.shape[1]
    test_matrix = sketch_test_matrix(factor.shape[0])
    factors = lowrank_truncate(factor, min(cfg.grid.n_modes, sketch_size))
    # The QR has consumed the factor: free it before H [q | U] is formed.
    del factor, flat, state["cov_factor"]
    products = assemble_H(
        cfg.grid, cfg.plume_model, wind, np.column_stack([state["q_positive"], factors.vectors])
    )
    deposition = deposition_stats(products, factors, cfg.grid)

    out = cfg.resolve_out_dir()
    io.write_grid_csv(out / GRID_CSV, deposition, keys["propagate"])
    eigenvalues = [float(v) for v in factors.eigenvalues]
    io.write_json(
        out / GRID_JSON,
        {
            "stage_key": keys["propagate"],
            "grid": {
                "x_min_m": cfg.grid.x_min,
                "x_max_m": cfg.grid.x_max,
                "y_min_m": cfg.grid.y_min,
                "y_max_m": cfg.grid.y_max,
                "n_x": cfg.grid.n_x,
                "n_y": cfg.grid.n_y,
            },
            "n_modes": factors.n_modes,
            "eigenvalues": eigenvalues,
            "unit": "mg_m2",
        },
    )
    _record(
        cfg,
        "propagate",
        keys,
        {
            "n_modes": factors.n_modes,
            "eigenvalue_ratio_last_to_first": (
                eigenvalues[-1] / eigenvalues[0] if eigenvalues and eigenvalues[0] > 0 else None
            ),
            "eigensolve": {
                "method": "nystrom",
                "sketch_size": sketch_size,
                **test_matrix,
                "unexplained_trace_share": _finite_or_none(unexplained),
            },
            "kept_variance_share": _finite_or_none(trace_share(factors.eigenvalues.sum())),
            "max_mean_mg_m2": float(deposition.mean.max() * io.KG_TO_MG),
            "annual_total_tonne_yr": annualize(state["q_positive"], grid),
            "timing_s": time.perf_counter() - tic,
        },
    )
    return {"deposition": deposition, "factors": factors}


# ---------------------------------------------------------------------------
# chaining


_RUNNERS = {
    "wind_fit": run_wind_fit,
    "synth": run_synth,
    "invert": run_invert,
    "propagate": run_propagate,
}


def run_stage(cfg: RunConfig, stage: str, **invert_options) -> object:
    """Run one stage, first running every predecessor that is not fresh.

    Every stage run does its BLAS work on one thread (``threads.single``);
    each library's own count comes back on return or raise.
    """
    if stage not in STAGES:
        raise ValidationError(f"unknown stage {stage!r} (expected one of {STAGES})")
    # No stage writes a file a key hashes, so the keys hold across the loop.
    keys = _stage_keys(cfg)
    with threads.single():
        for previous in _stages(cfg):
            if STAGES.index(previous) >= STAGES.index(stage):
                break
            if not _fresh(cfg, previous, keys):
                logger.info("stage %s is missing or stale; running it first", previous)
                _RUNNERS[previous](cfg)
        return _RUNNERS[stage](cfg, **invert_options)
