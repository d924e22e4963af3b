"""Readers and writers for all file formats the pipeline touches.

CSV artifacts carry the key of the pipeline stage that wrote them as a
``# stage_key=...`` comment line above the header (the sensors YAML as a
``stage_key`` field). Each input format has one reader: ``_csv_rows``
reads every CSV input (it skips blank and ``#`` lines, checks the fixed
header byte-for-byte and the field count), ``_read_yaml`` every YAML
file, and ``_sensor_list`` every list of sensor entries, in the sensors
file or in a config's ``synthetic.sensors``. One private helper writes
every CSV artifact: the key line, the header, then the rows, with fields
quoted where needed. Timestamps are ISO-8601; naive values are treated
as UTC.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .errors import ValidationError, _number, _require
from .observation import (
    DustfallJar,
    MeasurementSet,
    RealTimeSampler,
    Sensor,
    TimeGrid,
    entry_labels,
    measurement_count,
)
from .uqprop import DepositionGrid
from .windprep import CV_MIN_POINTS, RawWindRecord, WindSeries

__all__ = [
    "parse_timestamp",
    "format_timestamp",
    "load_wind_csv",
    "write_wind_csv",
    "write_wind_fit_csv",
    "load_sensors",
    "write_sensors",
    "load_measurements",
    "write_measurements",
    "write_emissions_csv",
    "write_truth_csv",
    "write_grid_csv",
    "write_json",
    "read_json",
]

logger = logging.getLogger(__name__)

WIND_HEADER = "timestamp,speed_mps,direction_deg_from"
MEASUREMENTS_HEADER = "sensor_id,index,value"
EMISSIONS_HEADER = "source_id,time,mean_kg_s,std_kg_s"
GRID_HEADER = "x_m,y_m,mean_mg_m2,std_mg_m2"
TRUTH_HEADER = "source_id,time,rate_kg_s"
WIND_FIT_HEADER = "timestamp,u_x_mps,u_y_mps,speed_mps"

KG_TO_MG = 1.0e6


def parse_timestamp(text: str) -> float:
    """ISO-8601 to epoch seconds; naive values count as UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise ValidationError(f"invalid ISO-8601 timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def format_timestamp(epoch: float) -> str:
    return (
        datetime.fromtimestamp(epoch, tz=timezone.utc)
        .isoformat()
        .replace("+00:00", "Z")
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_stamped_csv(path, header: str, key: str, rows) -> None:
    """The stage-key line, the fixed header, then each row of formatted fields."""
    with open(Path(path), "w", newline="") as handle:
        handle.write(f"# stage_key={key}\n{header}\n")
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _source_major_rows(source_ids: Sequence[str], grid: TimeGrid, *columns):
    """(source id, slot time, column values...) for each source, then each slot."""
    times = [format_timestamp(t) for t in grid.times]
    ids = [sid for sid in source_ids for _ in times]
    return zip(ids, times * len(source_ids), *(map(_fmt, column) for column in columns))


def _csv_rows(path, header: str, what: str):
    """Yield (line number, fields) for each data row of a CSV file.

    Blank and ``#`` lines are skipped; the first other line must be
    ``header`` and every later one must have as many fields.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} file not found: {path}")
    n_fields = header.count(",") + 1
    header_seen = False
    with open(path, newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != header:
                    raise ValidationError(f"{path}: expected header {header!r}, found {line!r}")
                header_seen = True
                continue
            fields = next(csv.reader([line]))
            if len(fields) != n_fields:
                raise ValidationError(
                    f"{path}:{lineno}: expected {n_fields} fields, found {len(fields)}"
                )
            yield lineno, fields
    if not header_seen:
        raise ValidationError(f"{path}: empty {what} file")


def _read_yaml(path, what: str):
    """The parsed contents of a YAML file."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} file not found: {path}")
    try:
        return yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: invalid YAML: {exc}") from exc


def load_wind_csv(path) -> list:
    """Wind records from CSV; rows may be unordered, duplicates keep last.

    At least ``CV_MIN_POINTS`` distinct timestamps must remain, so that the
    wind fit's cross-validation has two points to train on in every fold.
    """
    rows = []
    for lineno, parts in _csv_rows(path, WIND_HEADER, "wind"):
        try:
            record = RawWindRecord(
                timestamp=parse_timestamp(parts[0]),
                speed=float(parts[1]),
                direction_from=float(parts[2]),
            )
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        rows.append(record)
    if not rows:
        raise ValidationError(f"{path}: no wind records")
    rows.sort(key=lambda r: r.timestamp)
    deduped = []
    for rec in rows:
        if deduped and deduped[-1].timestamp == rec.timestamp:
            logger.warning("duplicate wind timestamp %s; keeping the last row", rec.timestamp)
            deduped[-1] = rec
        else:
            deduped.append(rec)
    if len(deduped) < CV_MIN_POINTS:
        raise ValidationError(
            f"{path}: {len(deduped)} distinct wind records; the wind fit needs at least "
            f"{CV_MIN_POINTS}"
        )
    return deduped


def write_wind_csv(path, records: Sequence[RawWindRecord], key: str) -> None:
    rows = (
        (format_timestamp(rec.timestamp), _fmt(rec.speed), _fmt(rec.direction_from))
        for rec in records
    )
    _write_stamped_csv(path, WIND_HEADER, key, rows)


def write_wind_fit_csv(path, series: WindSeries, key: str) -> None:
    """The fitted wind components and speed at each grid time."""
    rows = (
        (format_timestamp(t), _fmt(u_x), _fmt(u_y), _fmt(speed))
        for t, u_x, u_y, speed in zip(series.grid.times, series.u_x, series.u_y, series.speed)
    )
    _write_stamped_csv(path, WIND_FIT_HEADER, key, rows)


def _sensor_from_entry(entry: dict, where: str) -> Sensor:
    """One sensor; its numbers are read under the config file's rules."""
    kind = str(_require(entry, "kind", where))
    sid = str(_require(entry, "id", where))
    if any(c in sid for c in "/\\\n\r"):  # an id names files and one-line CSV rows
        raise ValidationError(f"{where}: sensor id {sid!r} has a path separator or line break")
    common = dict(
        id=sid,
        x=_number(entry, "x_m", where),
        y=_number(entry, "y_m", where),
        z=_number(entry, "z_m", where),
        snr=_number(entry, "snr", where),
    )
    try:
        if kind == "dustfall_jar":
            return DustfallJar(area=_number(entry, "area_m2", where), **common)
        if kind == "realtime_sampler":
            window = _number(entry, "window_s", where)
            if "start_times" in entry:
                starts = tuple(parse_timestamp(str(t)) for t in entry["start_times"])
            elif "schedule" in entry:
                at = f"{where}.schedule"
                sched = entry["schedule"]
                first = parse_timestamp(str(_require(sched, "start", at)))
                every = _number(sched, "every_s", at)
                count = _number(sched, "count", at, int)
                if every <= 0 or count < 1:
                    raise ValidationError(f"{at} needs every_s > 0 and count >= 1")
                starts = tuple(first + every * k for k in range(count))
            else:
                raise ValidationError(f"{where}: sampler needs start_times or schedule")
            return RealTimeSampler(window=window, start_times=starts, **common)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ValidationError(f"{where}: unknown sensor kind {kind!r}")


def _sensor_list(entries, where: str) -> list:
    """The sensors of a list of entries; it must be non-empty and its ids unique."""
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{where} must be a non-empty list")
    sensors = [_sensor_from_entry(entry, f"{where}[{i}]") for i, entry in enumerate(entries)]
    ids = [s.id for s in sensors]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{where}: sensor ids must be unique")
    return sensors


def load_sensors(path) -> list:
    """Sensor registry from structured YAML."""
    data = _read_yaml(path, "sensors")
    if not isinstance(data, dict) or "sensors" not in data:
        raise ValidationError(f"{path}: expected a top-level 'sensors' list")
    return _sensor_list(data["sensors"], f"{path}: sensors")


def write_sensors(path, sensors: Sequence[Sensor], key: str) -> None:
    entries = []
    for sensor in sensors:
        entry = {
            "id": sensor.id,
            "x_m": float(sensor.x),
            "y_m": float(sensor.y),
            "z_m": float(sensor.z),
            "snr": float(sensor.snr),
        }
        if isinstance(sensor, DustfallJar):
            entry["kind"] = "dustfall_jar"
            entry["area_m2"] = float(sensor.area)
        else:
            entry["kind"] = "realtime_sampler"
            entry["window_s"] = float(sensor.window)
            entry["start_times"] = [format_timestamp(t) for t in sensor.start_times]
        entries.append(entry)
    payload = {"stage_key": key, "sensors": entries}
    Path(path).write_text(yaml.safe_dump(payload, sort_keys=False))


def load_measurements(path, sensors: Sequence[Sensor]) -> MeasurementSet:
    """Measured values stacked in sensor declaration order.

    Every declared measurement slot must appear exactly once.
    """
    by_id = {s.id: s for s in sensors}
    seen = {}
    for lineno, parts in _csv_rows(path, MEASUREMENTS_HEADER, "measurements"):
        sid = parts[0]
        if sid not in by_id:
            raise ValidationError(f"{path}:{lineno}: unknown sensor id {sid!r}")
        try:
            index = int(parts[1])
            value = float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: value {parts[2]!r} is not finite")
        sensor = by_id[sid]
        m = measurement_count(sensor)
        if not 0 <= index < m:
            if isinstance(sensor, DustfallJar) and index >= 1:
                raise ValidationError(
                    f"{path}:{lineno}: jar {sid!r} yields a single value per period"
                )
            raise ValidationError(f"{path}:{lineno}: index {index} out of range for {sid!r}")
        if (sid, index) in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate measurement ({sid!r}, {index})")
        seen[(sid, index)] = value

    ids, indices = entry_labels(sensors)
    values = []
    for sid, ell in zip(ids, indices.tolist()):
        if (sid, ell) not in seen:
            raise ValidationError(f"{path}: missing measurement ({sid!r}, {ell})")
        values.append(seen[(sid, ell)])
    return MeasurementSet(sensor_ids=ids, indices=indices, values=np.array(values))


def write_measurements(path, measurements: MeasurementSet, key: str) -> None:
    rows = ((sid, str(index), _fmt(value)) for sid, index, value in measurements.entries)
    _write_stamped_csv(path, MEASUREMENTS_HEADER, key, rows)


def write_emissions_csv(
    path,
    source_ids: Sequence[str],
    grid: TimeGrid,
    mean: np.ndarray,
    std: np.ndarray,
    key: str,
) -> None:
    """Source-major emission estimates, one row per (source, slot time)."""
    _write_stamped_csv(path, EMISSIONS_HEADER, key, _source_major_rows(source_ids, grid, mean, std))


def write_truth_csv(
    path, source_ids: Sequence[str], grid: TimeGrid, q_true: np.ndarray, key: str
) -> None:
    _write_stamped_csv(path, TRUTH_HEADER, key, _source_major_rows(source_ids, grid, q_true))


def write_grid_csv(path, deposition: DepositionGrid, key: str) -> None:
    """Deposition map in display units (mg m^-2), row-major by y then x."""
    rows = (
        (_fmt(x), _fmt(y), _fmt(mean * KG_TO_MG), _fmt(std * KG_TO_MG))
        for (x, y), mean, std in zip(deposition.grid.points(), deposition.mean, deposition.std)
    )
    _write_stamped_csv(path, GRID_HEADER, key, rows)


def write_json(path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity raises instead of writing a non-JSON token."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
