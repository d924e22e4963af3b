"""Tests for file formats and run configuration parsing."""

import inspect
import math
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import plumeinv
from plumeinv import io
from plumeinv.config import (
    PlumeSettings,
    RunConfig,
    config_dict,
    load_config,
)
from plumeinv.errors import ValidationError
from plumeinv.inversion import PriorConfig
from plumeinv.io import (
    format_timestamp,
    load_measurements,
    load_sensors,
    load_wind_csv,
    parse_timestamp,
    read_json,
    write_grid_csv,
    write_json,
    write_measurements,
    write_sensors,
    write_truth_csv,
    write_wind_csv,
)
from plumeinv.observation import (
    DustfallJar,
    MeasurementSet,
    RealTimeSampler,
    TimeGrid,
    assemble_F,
    signal_variances,
)
from plumeinv.plume import PlumeModel
from plumeinv.sampling import SamplerConfig
from plumeinv.synthetic import Harmonic, SourceSignal
from plumeinv.uqprop import DepositionGrid, GridSpec, assemble_H
from plumeinv.windprep import RawWindRecord, WindSeries, to_components


class TestTimestamps:
    def test_z_suffix_and_naive_agree(self):
        assert parse_timestamp("2024-06-01T00:00:00Z") == parse_timestamp("2024-06-01T00:00:00")

    def test_known_epoch(self):
        assert parse_timestamp("1970-01-01T00:00:00Z") == 0.0
        assert parse_timestamp("1970-01-02T00:00:00Z") == 86400.0

    def test_offset_respected(self):
        assert parse_timestamp("2024-06-01T02:00:00+02:00") == parse_timestamp(
            "2024-06-01T00:00:00Z"
        )

    def test_round_trip(self):
        for text in ("2024-06-01T00:00:00Z", "1999-12-31T23:59:59Z"):
            assert format_timestamp(parse_timestamp(text)) == text

    def test_invalid_raises(self):
        with pytest.raises(ValidationError):
            parse_timestamp("June 1st 2024")


class TestWindCsv:
    def make_records(self):
        return [
            RawWindRecord(timestamp=0.0, speed=3.0, direction_from=300.0),
            RawWindRecord(timestamp=600.0, speed=3.5, direction_from=310.5),
            RawWindRecord(timestamp=1200.0, speed=2.0, direction_from=290.0),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "wind.csv"
        write_wind_csv(path, self.make_records(), "deadbeef0000")
        loaded = load_wind_csv(path)
        assert loaded == self.make_records()
        assert path.read_text().startswith("# stage_key=deadbeef0000\n")

    def test_unordered_rows_sorted(self, tmp_path):
        path = tmp_path / "wind.csv"
        write_wind_csv(path, list(reversed(self.make_records())), "x")
        assert load_wind_csv(path) == self.make_records()

    def test_duplicate_timestamp_keeps_last(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,1,300\n"
            "1970-01-01T00:00:00Z,9,200\n"
            "1970-01-01T00:10:00Z,2,300\n"
            "1970-01-01T00:20:00Z,4,310\n"
        )
        loaded = load_wind_csv(path)
        assert len(loaded) == 3
        assert loaded[0].speed == 9.0

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text(
            "# comment\n"
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,3,300\n"
            "1970-01-01T00:10:00Z,not_a_number,300\n"
        )
        with pytest.raises(ValidationError, match=r":4:"):
            load_wind_csv(path)

    def test_north_written_as_360_reads_as_0(self, tmp_path):
        """Hourly station exports write north as 360: it loads as 0, with
        the components of 0 bit for bit."""
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,3,350\n"
            "1970-01-01T00:10:00Z,3,360\n"
            "1970-01-01T00:20:00Z,3,10\n"
        )
        loaded = load_wind_csv(path)
        assert [r.direction_from for r in loaded] == [350.0, 0.0, 10.0]
        north = RawWindRecord(timestamp=600.0, speed=3.0, direction_from=0.0)
        assert loaded[1] == north
        got, want = np.array(to_components(loaded[1])), np.array(to_components(north))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("direction", ["360.5", "-0.5", "nan", "inf"])
    def test_direction_outside_0_to_360_reports_line_number(self, tmp_path, direction):
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,3,350\n"
            f"1970-01-01T00:10:00Z,3,{direction}\n"
            "1970-01-01T00:20:00Z,3,10\n"
        )
        with pytest.raises(ValidationError, match=r":3: direction must be in \[0, 360\]"):
            load_wind_csv(path)

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("time,speed,dir\n1970-01-01T00:00:00Z,3,300\n")
        with pytest.raises(ValidationError, match="header"):
            load_wind_csv(path)

    def test_no_records_raises(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("timestamp,speed_mps,direction_deg_from\n")
        with pytest.raises(ValidationError, match="no wind records"):
            load_wind_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,3,300\n"
            "1970-01-01T00:10:00Z,3\n"
        )
        with pytest.raises(ValidationError, match=r":3: expected 3 fields, found 2"):
            load_wind_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("# stage_key=x\n\n")
        with pytest.raises(ValidationError, match="empty wind file"):
            load_wind_csv(path)

    def test_fewer_than_three_distinct_records_raise(self, tmp_path):
        # cross-validation needs two training points in every fold
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_mps,direction_deg_from\n"
            "1970-01-01T00:00:00Z,1,300\n"
            "1970-01-01T00:10:00Z,2,300\n"
            "1970-01-01T00:10:00Z,3,300\n"
        )
        with pytest.raises(ValidationError, match="2 distinct wind records"):
            load_wind_csv(path)
        write_wind_csv(path, self.make_records(), "x")
        assert len(load_wind_csv(path)) == 3


SENSORS = [
    DustfallJar(id="jar1", x=100.0, y=-20.0, z=1.5, area=0.02, snr=10.0),
    RealTimeSampler(
        id="rt1", x=250.0, y=0.0, z=3.0, window=3600.0,
        start_times=(0.0, 3600.0, 7200.0), snr=100.0,
    ),
]


class TestSensorsYaml:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        write_sensors(path, SENSORS, "cafe00000000")
        assert load_sensors(path) == SENSORS

    def test_schedule_shorthand(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text(
            "sensors:\n"
            "  - {id: rt, kind: realtime_sampler, x_m: 1, y_m: 2, z_m: 3,\n"
            "     window_s: 3600, snr: 100,\n"
            "     schedule: {start: 1970-01-01T00:00:00Z, every_s: 7200, count: 3}}\n"
        )
        (sensor,) = load_sensors(path)
        assert sensor.start_times == (0.0, 7200.0, 14400.0)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ("x_m: .nan, y_m: 2, z_m: 3, area_m2: 0.02, snr: 10", r"sensors\[0\]\.x_m must be finite"),
            ("x_m: .inf, y_m: 2, z_m: 3, area_m2: 0.02, snr: 10", r"x_m must be finite"),
            ("x_m: 1, y_m: 2, z_m: .nan, area_m2: 0.02, snr: 10", r"z_m must be finite"),
            ("x_m: 1, y_m: 2, z_m: 3, area_m2: 0.02, snr: true", r"snr must be a number"),
            ("x_m: 1, y_m: 2, z_m: 3, area_m2: '0.02', snr: 10", r"area_m2 must be a number"),
        ],
        ids=["nan_x", "inf_x", "nan_z", "bool_snr", "text_area"],
    )
    def test_bad_jar_number_raises(self, tmp_path, fields, match):
        path = tmp_path / "sensors.yaml"
        path.write_text(f"sensors:\n  - {{id: j, kind: dustfall_jar, {fields}}}\n")
        with pytest.raises(ValidationError, match=match):
            load_sensors(path)

    def test_fractional_schedule_count_raises(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text(
            "sensors:\n"
            "  - {id: rt, kind: realtime_sampler, x_m: 1, y_m: 2, z_m: 3,\n"
            "     window_s: 3600, snr: 100,\n"
            "     schedule: {start: 1970-01-01T00:00:00Z, every_s: 7200, count: 2.5}}\n"
        )
        with pytest.raises(ValidationError, match=r"schedule\.count must be an integer"):
            load_sensors(path)

    def test_missing_field_mentions_entry(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text("sensors:\n  - {id: j, kind: dustfall_jar, x_m: 1, y_m: 2, z_m: 3}\n")
        with pytest.raises(ValidationError, match=r"sensors\[0\]"):
            load_sensors(path)

    def test_sampler_without_start_times_or_schedule_raises(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text(
            "sensors:\n"
            "  - {id: rt, kind: realtime_sampler, x_m: 1, y_m: 2, z_m: 3,\n"
            "     window_s: 3600, snr: 100}\n"
        )
        with pytest.raises(ValidationError, match=r"sensors\[0\]: sampler needs start_times"):
            load_sensors(path)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text(
            "sensors:\n  - {id: j, kind: bucket, x_m: 1, y_m: 2, z_m: 3, snr: 10}\n"
        )
        with pytest.raises(ValidationError, match="unknown sensor kind"):
            load_sensors(path)

    def test_duplicate_ids_raise(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        write_sensors(path, [SENSORS[0], SENSORS[0]], "x")
        with pytest.raises(ValidationError, match="unique"):
            load_sensors(path)

    def test_requires_sensor_list(self, tmp_path):
        path = tmp_path / "sensors.yaml"
        path.write_text("stations: []\n")
        with pytest.raises(ValidationError, match="'sensors'"):
            load_sensors(path)


class TestMeasurementsCsv:
    def make_set(self):
        return MeasurementSet(
            sensor_ids=("jar1", "rt1", "rt1", "rt1"),
            indices=np.array([0, 0, 1, 2]),
            values=np.array([0.012, 3.1e-7, 2.9e-7, 3.3e-7]),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "meas.csv"
        original = self.make_set()
        write_measurements(path, original, "abc")
        loaded = load_measurements(path, SENSORS)
        assert loaded.sensor_ids == original.sensor_ids
        np.testing.assert_array_equal(loaded.indices, original.indices)
        np.testing.assert_allclose(loaded.values, original.values, rtol=1e-11)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "sensor_id,index,value\n"
            "rt1,2,3.3e-7\n"
            "jar1,0,0.012\n"
            "rt1,0,3.1e-7\n"
            "rt1,1,2.9e-7\n"
        )
        loaded = load_measurements(path, SENSORS)
        assert loaded.sensor_ids == ("jar1", "rt1", "rt1", "rt1")
        np.testing.assert_allclose(loaded.values, [0.012, 3.1e-7, 2.9e-7, 3.3e-7])

    def test_unknown_sensor_reports_line(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,index,value\nmystery,0,1.0\n")
        with pytest.raises(ValidationError, match=r":2:.*mystery"):
            load_measurements(path, SENSORS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "meas.csv"
        path.write_text(f"sensor_id,index,value\njar1,0,0.012\nrt1,0,{value}\n")
        with pytest.raises(ValidationError, match=r":3:.*not finite"):
            load_measurements(path, SENSORS)

    def test_duplicate_entry_raises(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,index,value\njar1,0,1.0\njar1,0,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_measurements(path, SENSORS)

    def test_missing_slot_raises(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,index,value\njar1,0,1.0\nrt1,0,1.0\nrt1,1,1.0\n")
        with pytest.raises(ValidationError, match="missing measurement"):
            load_measurements(path, SENSORS)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,index,value\njar1,0,0.012,7\n")
        with pytest.raises(ValidationError, match=r":2: expected 3 fields, found 4"):
            load_measurements(path, SENSORS)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty measurements file"):
            load_measurements(path, SENSORS)

    def test_jar_second_reading_explained(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("sensor_id,index,value\njar1,1,1.0\n")
        with pytest.raises(ValidationError, match="single value per period"):
            load_measurements(path, SENSORS)


# Every input file passes through one shared reader per format.
LOADERS = {
    "wind": load_wind_csv,
    "measurements": lambda path: load_measurements(path, SENSORS),
    "sensors": load_sensors,
    "config": load_config,
}


class TestSharedReaders:
    @pytest.mark.parametrize("name", list(LOADERS))
    def test_missing_file_raises(self, tmp_path, name):
        with pytest.raises(ValidationError, match=f"{name} file not found"):
            LOADERS[name](tmp_path / "absent")

    @pytest.mark.parametrize("name", ["sensors", "config"])
    def test_invalid_yaml_raises(self, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(f"{name}: [unclosed\n")
        with pytest.raises(ValidationError, match="invalid YAML"):
            LOADERS[name](path)


class TestArtifactWriters:
    def test_truth_csv_literal(self, tmp_path):
        path = tmp_path / "truth.csv"
        grid = TimeGrid(t0=0.0, dt=3600.0, n_steps=2)
        write_truth_csv(path, ["s1"], grid, np.array([1.5, 2.5]), "feed00000000")
        assert path.read_text() == (
            "# stage_key=feed00000000\n"
            "source_id,time,rate_kg_s\n"
            "s1,1970-01-01T01:00:00Z,1.5\n"
            "s1,1970-01-01T02:00:00Z,2.5\n"
        )

    def test_grid_csv_converts_to_mg(self, tmp_path):
        path = tmp_path / "grid.csv"
        spec = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, n_x=2, n_y=2)
        dep = DepositionGrid(
            mean=np.array([1e-6, 2e-6, 0.0, 0.0]),
            std=np.array([1e-7, 0.0, 0.0, 0.0]),
            grid=spec,
        )
        write_grid_csv(path, dep, "x")
        lines = path.read_text().splitlines()
        assert lines[1] == "x_m,y_m,mean_mg_m2,std_mg_m2"
        assert lines[2] == "0,0,1,0.1"
        assert lines[3] == "1,0,2,0"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "meta.json"
        write_json(path, {"stage_key": "beef00000000", "stages": {"a": 1}})
        back = read_json(path)
        assert back["stage_key"] == "beef00000000"
        assert back["stages"] == {"a": 1}

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "meta.json", {"r_hat": value})


BUNDLED_CASE = Path(plumeinv.__file__).parent / "data" / "default_case.yaml"
PERFBENCH_CASE = Path(__file__).resolve().parents[1] / "perfbench" / "case.yaml"


def base_config(tmp_path) -> dict:
    return {
        "paths": {
            "wind_csv": "wind.csv",
            "sensors_file": "sensors.yaml",
            "measurements_csv": "meas.csv",
            "out_dir": str(tmp_path / "out"),
        },
        "time": {"start": "2024-06-01T00:00:00Z", "duration_s": 86400.0},
        "dt_inversion_s": 3600.0,
        "dt_generation_s": 1800.0,
        "particle": {
            "w_dep_mps": 1.2e-2,
            "w_set_mps": 7.86e-3,
        },
        "stability_class": "D",
        "sources": [{"id": "s1", "x_m": 0.0, "y_m": 0.0, "z_m": 5.0}],
        "grid": {"x_min_m": -100.0, "x_max_m": 100.0, "y_min_m": -100.0, "y_max_m": 100.0},
    }


def write_config(tmp_path, data) -> Path:
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert cfg.prior.alpha == 1.0
        assert cfg.prior.gamma == 5e-3
        assert cfg.sampler.beta == 0.6
        assert cfg.sampler.n_steps == 100_000
        assert cfg.grid.n_x == 40 and cfg.grid.n_modes == 100
        assert cfg.synthetic is None
        assert cfg.dt_inversion == 3600.0

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        data = base_config(tmp_path)
        for key in ("dt_inversion_s", "dt_generation_s"):
            del data[key]
        data["time"]["duration_s"] = 7200.0
        cfg = load_config(write_config(tmp_path, data))
        # repr also tells 40 from 40.0
        assert repr(cfg.prior) == repr(PriorConfig())
        assert repr(cfg.sampler) == repr(SamplerConfig())
        assert repr(cfg.plume) == repr(PlumeSettings())
        grid = GridSpec(x_min=-100.0, x_max=100.0, y_min=-100.0, y_max=100.0)
        assert repr(cfg.grid) == repr(grid)
        top = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
        assert repr({name: getattr(cfg, name) for name in top}) == repr(top)
        noise_floor = inspect.signature(signal_variances).parameters["noise_floor"].default
        assert noise_floor is top["noise_floor"]
        # the phases of the synthetic signals and wind harmonics
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        synthetic, wind_model = data["synthetic"], data["synthetic"]["wind_model"]
        for item in (
            synthetic["signals"] + wind_model["speed_harmonics"] + wind_model["direction_harmonics"]
        ):
            del item["phase_rad"]
        spec = load_config(write_config(tmp_path, data)).synthetic
        default = {cls: next(f.default for f in fields(cls) if f.name == "phase")
                   for cls in (SourceSignal, Harmonic)}
        harmonics = spec.wind_model.speed_harmonics + spec.wind_model.direction_harmonics
        assert repr([s.phase for s in spec.spec.signals]) == repr([default[SourceSignal]] * 7)
        assert repr([h.phase for h in harmonics]) == repr([default[Harmonic]] * 6)

    def test_missing_section_raises(self, tmp_path):
        data = base_config(tmp_path)
        del data["time"]
        with pytest.raises(ValidationError, match="time"):
            load_config(write_config(tmp_path, data))

    def test_bad_stability_raises(self, tmp_path):
        data = base_config(tmp_path)
        data["stability_class"] = "G"
        with pytest.raises(ValidationError, match="stability"):
            load_config(write_config(tmp_path, data))

    def test_non_number_rejected(self, tmp_path):
        data = base_config(tmp_path)
        data["prior"] = {"alpha": "strong"}
        with pytest.raises(ValidationError, match="must be a number"):
            load_config(write_config(tmp_path, data))

    def test_boolean_is_not_a_number(self, tmp_path):
        data = base_config(tmp_path)
        data["prior"] = {"alpha": True}
        with pytest.raises(ValidationError, match="must be a number"):
            load_config(write_config(tmp_path, data))

    def test_uneven_duration_raises(self, tmp_path):
        data = base_config(tmp_path)
        data["time"]["duration_s"] = 86400.0 + 1.0
        with pytest.raises(ValidationError, match="evenly"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("key", ["dt_inversion_s", "dt_generation_s"])
    def test_one_step_grid_raises(self, tmp_path, key):
        data = base_config(tmp_path)
        data["time"]["duration_s"] = 7200.0
        data[key] = 7200.0
        with pytest.raises(ValidationError, match=f"{key}=7200.0 leaves fewer than two steps"):
            load_config(write_config(tmp_path, data))

    def test_synthetic_same_dt_raises(self, tmp_path):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["dt_generation_s"] = data["dt_inversion_s"]
        with pytest.raises(ValidationError, match="inverse crime"):
            load_config(write_config(tmp_path, data))

    def test_duplicate_source_ids_raise(self, tmp_path):
        data = base_config(tmp_path)
        data["sources"].append(dict(data["sources"][0]))
        with pytest.raises(ValidationError, match="unique"):
            load_config(write_config(tmp_path, data))

    def test_synthetic_signal_count_must_match_sources(self, tmp_path):
        data = base_config(tmp_path)
        data["synthetic"] = {
            "wind_model": {"speed_base_mps": 3.0, "direction_base_deg": 300.0},
            "signals": [],
            "sensors": [
                {"id": "j", "kind": "dustfall_jar", "x_m": 1, "y_m": 2, "z_m": 1.5,
                 "area_m2": 0.02, "snr": 10},
            ],
        }
        with pytest.raises(ValidationError, match="one entry per source"):
            load_config(write_config(tmp_path, data))

    def test_config_dict_is_plain(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        plain = config_dict(cfg)
        assert plain["stability"] == "D"
        assert isinstance(plain["sources"], list)

    def test_resolve_input_relative_to_out_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert cfg.resolve_input("wind_csv") == Path(cfg.paths.out_dir) / "wind.csv"
        absolute = base_config(tmp_path)
        absolute["paths"]["wind_csv"] = "/data/wind.csv"
        cfg2 = load_config(write_config(tmp_path, absolute))
        assert cfg2.resolve_input("wind_csv") == Path("/data/wind.csv")


class TestSettingsValidation:
    @pytest.mark.parametrize(
        "sampler, match",
        [
            ({"beta": 0.0}, "beta"),
            ({"beta": 1.5}, "beta"),
            ({"n_steps": 0}, "n_steps"),
            ({"burn_in_fraction": -0.1}, "burn_in_fraction"),
            ({"burn_in_fraction": 1.0}, "burn_in_fraction"),
            ({"n_steps": 1, "burn_in_fraction": 0.6}, "discards all"),
        ],
        ids=["beta_zero", "beta_above_one", "no_steps", "negative_burn_in", "burn_in_one",
             "burn_in_keeps_nothing"],
    )
    def test_bad_sampler_settings_raise(self, tmp_path, sampler, match):
        data = base_config(tmp_path)
        data["sampler"] = sampler
        with pytest.raises(ValidationError, match=match):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize(
        "section, key, value",
        [("sampler", "n_steps", 2000.9), ("sampler", "seed", 1.5), ("grid", "n_modes", 10.7)],
    )
    def test_fractional_integer_keys_raise(self, tmp_path, section, key, value):
        data = base_config(tmp_path)
        data.setdefault(section, {})[key] = value
        with pytest.raises(ValidationError, match=f"{section}.{key} must be an integer"):
            load_config(write_config(tmp_path, data))

    def test_integral_float_is_an_integer(self, tmp_path):
        data = base_config(tmp_path)
        data["sampler"] = {"n_steps": 2000.0}
        data["grid"]["n_modes"] = 10.0
        cfg = load_config(write_config(tmp_path, data))
        assert repr((cfg.sampler.n_steps, cfg.grid.n_modes)) == repr((2000, 10))

    def test_sampler_edges_accepted(self, tmp_path):
        data = base_config(tmp_path)
        data["sampler"] = {"beta": 1.0, "n_steps": 1, "burn_in_fraction": 0.4}
        cfg = load_config(write_config(tmp_path, data))
        assert cfg.sampler.beta == 1.0 and cfg.sampler.n_steps == 1

    @pytest.mark.parametrize("value", [None, 5, [1]], ids=["null", "number", "list"])
    @pytest.mark.parametrize("section", ["prior", "sampler", "plume"])
    def test_optional_section_that_is_not_a_mapping_raises(self, tmp_path, section, value):
        data = base_config(tmp_path)
        data[section] = value
        with pytest.raises(ValidationError, match=f"config section '{section}' must be a mapping"):
            load_config(write_config(tmp_path, data))

    def test_harmonics_that_are_not_a_list_raise(self, tmp_path):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["synthetic"]["wind_model"]["speed_harmonics"] = 5
        match = r"synthetic\.wind_model\.speed_harmonics must be a list"
        with pytest.raises(ValidationError, match=match):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("period", [0.0, -3600.0])
    def test_nonpositive_harmonic_period_raises(self, tmp_path, period):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["synthetic"]["wind_model"]["direction_harmonics"][1]["period_s"] = period
        match = r"synthetic\.wind_model\.direction_harmonics\[1\]\.period_s"
        with pytest.raises(ValidationError, match=match):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("cadence", [0.0, -600.0])
    def test_nonpositive_wind_cadence_raises(self, tmp_path, cadence):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["synthetic"]["wind_cadence_s"] = cadence
        with pytest.raises(ValidationError, match=r"synthetic\.wind_cadence_s"):
            load_config(write_config(tmp_path, data))

    def test_negative_min_wind_speed_raises(self, tmp_path):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["synthetic"]["wind_model"]["min_speed_mps"] = -5.0
        with pytest.raises(ValidationError, match=r"synthetic\.wind_model\.min_speed_mps"):
            load_config(write_config(tmp_path, data))

    def test_zero_min_wind_speed_accepted(self, tmp_path):
        data = yaml.safe_load(BUNDLED_CASE.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "out")
        data["synthetic"]["wind_model"]["min_speed_mps"] = 0.0
        assert load_config(write_config(tmp_path, data)).synthetic.wind_model.min_speed == 0.0

    def test_negative_cutoff_raises(self, tmp_path):
        data = base_config(tmp_path)
        data["plume"] = {"x_cutoff_m": -1.0}
        with pytest.raises(ValidationError, match="x_cutoff_m"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("calm", [0.0, -0.5])
    def test_nonpositive_calm_speed_raises(self, tmp_path, calm):
        """A zero wind must stay calm: with calm_speed_mps <= 0 the kernel divides 0 by 0."""
        data = base_config(tmp_path)
        data["plume"] = {"calm_speed_mps": calm}
        with pytest.raises(ValidationError, match="plume.calm_speed_mps"):
            load_config(write_config(tmp_path, data))

    def test_zero_cutoff_accepted(self, tmp_path):
        data = base_config(tmp_path)
        data["plume"] = {"x_cutoff_m": 0.0}
        assert load_config(write_config(tmp_path, data)).plume.x_cutoff_m == 0.0

    def test_replace_revalidates(self, tmp_path):
        """CLI overrides go through dataclasses.replace, which reruns the checks."""
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        with pytest.raises(ValidationError, match="beta"):
            replace(cfg.sampler, beta=1.5)
        with pytest.raises(ValidationError, match="n_steps"):
            replace(cfg.sampler, n_steps=0)

    @pytest.mark.parametrize(
        "prior", [{"alpha": -1.0}, {"alpha": 0.0}, {"gamma": -1e-3}, {"gamma": 0.0}]
    )
    def test_nonpositive_prior_raises(self, tmp_path, prior):
        data = base_config(tmp_path)
        data["prior"] = prior
        with pytest.raises(ValidationError, match="prior"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_nonpositive_noise_floor_raises(self, tmp_path, floor):
        data = base_config(tmp_path)
        data["noise_floor"] = floor
        with pytest.raises(ValidationError, match="noise_floor"):
            load_config(write_config(tmp_path, data))

    def test_negative_seed_raises(self, tmp_path):
        data = base_config(tmp_path)
        data["sampler"] = {"seed": -1}
        with pytest.raises(ValidationError, match="seed"):
            load_config(write_config(tmp_path, data))
        data["sampler"] = {"seed": 0}
        path = write_config(tmp_path, data)
        assert load_config(path).sampler.seed == 0
        with pytest.raises(ValidationError, match="seed"):
            load_config(path, seed=-1)

    def test_zero_modes_raises(self, tmp_path):
        data = base_config(tmp_path)
        data["grid"]["n_modes"] = 0
        with pytest.raises(ValidationError, match="n_modes"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("modes, ok", [(150, True), (200, True), (201, False), (400, False)])
    def test_modes_capped_at_half_the_sketch(self, tmp_path, modes, ok):
        """The chain sketches its covariance with 400 columns, which serve
        200 modes at most."""
        data = base_config(tmp_path)
        data["grid"]["n_modes"] = modes
        if ok:
            assert load_config(write_config(tmp_path, data)).grid.n_modes == modes
        else:
            with pytest.raises(ValidationError, match="grid.n_modes"):
                load_config(write_config(tmp_path, data))

    def test_replace_revalidates_modes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        with pytest.raises(ValidationError, match="n_modes"):
            replace(cfg.grid, n_modes=0)
        assert replace(cfg.grid, n_modes=1).n_modes == 1


class TestPlumeSettingsReachOperators:
    """F and H built through ``cfg.plume_model`` honour the ``plume`` section.

    The source sits at the origin and the wind blows east, so a receptor's
    downwind distance is its x. The defaults (1 m, 0.1 m/s) give nonzero
    kernels inside the configured 55 m cutoff and at the 0.5 m/s steps,
    which the configured 1 m/s calm speed makes calm.
    """

    CALM = [5, 17]

    def operators(self, tmp_path):
        data = base_config(tmp_path)
        data["plume"] = {"x_cutoff_m": 55.0, "calm_speed_mps": 1.0}
        cfg = load_config(write_config(tmp_path, data))
        grid = cfg.time_grid(cfg.dt_inversion)
        u_x = np.full(grid.n_steps, 3.0)
        u_x[self.CALM] = 0.5
        wind = WindSeries(grid, u_x, np.zeros(grid.n_steps))
        jars = [
            DustfallJar(id=f"j{x:g}", x=x, y=0.0, z=1.5, area=0.02, snr=10.0)
            for x in (20.0, 40.0, 150.0)
        ]
        defaults = PlumeModel(cfg.sources, cfg.particle, cfg.stability)
        identity = np.eye(len(cfg.sources) * grid.n_steps)
        return {
            name: (
                assemble_F(jars, model, wind).toarray(),
                assemble_H(cfg.grid, model, wind, identity),
            )
            for name, model in (("configured", cfg.plume_model), ("defaults", defaults))
        }, cfg.grid

    def test_cutoff_and_calm_speed_reach_f_and_h(self, tmp_path):
        ops, grid = self.operators(tmp_path)
        (f, h), (f_default, h_default) = ops["configured"], ops["defaults"]
        live = np.setdiff1d(np.arange(f.shape[1]), self.CALM)
        # F: the two jars inside the cutoff read nothing, and no jar reads a calm step
        assert np.all(f[:2] == 0.0) and np.all(f_default[:2][:, live] > 0.0)
        assert np.all(f[:, self.CALM] == 0.0) and np.all(f_default[2, self.CALM] > 0.0)
        np.testing.assert_array_equal(f[2, live], f_default[2, live])
        # H: the cells inside the cutoff get nothing, and no cell gets a calm step
        x = grid.points()[:, 0]
        near = (x > 1.0) & (x <= 55.0)
        assert np.all(h[near] == 0.0) and np.count_nonzero(h_default[near][:, live]) > 0
        assert np.all(h[:, self.CALM] == 0.0) and np.count_nonzero(h_default[:, self.CALM]) > 0
        np.testing.assert_array_equal(h[x > 55.0][:, live], h_default[x > 55.0][:, live])


class TestOverrides:
    def test_seed_argument(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert load_config(path, seed=99).sampler.seed == 99

    def test_out_dir_override(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        cfg = load_config(path, out_dir=tmp_path / "elsewhere")
        assert cfg.paths.out_dir == str(tmp_path / "elsewhere")


class TestBundledCase:
    def test_packaged_default_loads(self):
        cfg = load_config(BUNDLED_CASE)
        assert len(cfg.sources) == 7
        assert cfg.synthetic is not None
        assert len(cfg.synthetic.spec.signals) == 7
        assert len(cfg.synthetic.sensors) == 33
        assert cfg.sampler.n_steps == 100_000


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
class TestLibyaml:
    """Where PyYAML has libyaml, the package reads and writes YAML through
    its C classes; they must agree with the pure-Python ones."""

    def test_package_uses_the_c_classes(self):
        assert io._YAML_LOADER is yaml.CSafeLoader
        assert io._YAML_DUMPER is yaml.CSafeDumper

    @pytest.mark.parametrize("path", [BUNDLED_CASE, PERFBENCH_CASE], ids=["default", "perfbench"])
    def test_bundled_case_reads_the_same(self, path):
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_written_sensors_are_the_same_bytes(self, tmp_path, monkeypatch):
        sensors = load_config(BUNDLED_CASE).synthetic.sensors
        write_sensors(tmp_path / "c.yaml", sensors, "cafe00000000")
        monkeypatch.setattr(io, "_YAML_DUMPER", yaml.SafeDumper)
        write_sensors(tmp_path / "pure.yaml", sensors, "cafe00000000")
        text = (tmp_path / "c.yaml").read_text()
        assert text == (tmp_path / "pure.yaml").read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        assert load_sensors(tmp_path / "c.yaml") == list(sensors)
