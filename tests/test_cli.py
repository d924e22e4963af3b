"""End-to-end CLI tests on a small synthetic case.

The case is deliberately tiny (6 hours, 2 sources, 4 sensors, 4000
sampler steps) so the whole chain runs in well under a second; the
bundled 30-day case is exercised by the acceptance tests instead.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.sparse import csr_array

from plumeinv import cli, observation, pipeline, sampling, threads, uqprop, windprep
from plumeinv.config import config_dict, load_config
from plumeinv.errors import ConfigurationError, NumericalError, ValidationError
from plumeinv.inversion import SmoothnessPrior
from plumeinv.observation import measurement_count
from plumeinv.synthetic import emission_series, wind_records
from plumeinv.windprep import to_components

ARTIFACTS = [
    "wind.csv",
    "sensors.yaml",
    "measurements.csv",
    "truth_rates.csv",
    "wind_fit.csv",
    "wind_fit.json",
    "emissions_constant.csv",
    "emissions_smooth.csv",
    "emissions_positive.csv",
    "deposition_grid.csv",
    "deposition_grid.json",
    "run_metadata.json",
]
WRITTEN_BY = {
    "wind.csv": "wind_fit",
    "sensors.yaml": "synth",
    "measurements.csv": "synth",
    "truth_rates.csv": "synth",
    "wind_fit.csv": "wind_fit",
    "wind_fit.json": "wind_fit",
    "emissions_constant.csv": "invert",
    "emissions_smooth.csv": "invert",
    "emissions_positive.csv": "invert",
    "deposition_grid.csv": "propagate",
    "deposition_grid.json": "propagate",
}

# Prints, as one JSON line, the peak RSS in MB of a fresh child that imports
# the CLI and of one that runs a cold 2000-step run into the directory given
# as its argument; each child is read with os.wait4.
PEAK_RSS_SCRIPT = """
import json, os, subprocess, sys
def peak_mb(*args):
    child = subprocess.Popen([sys.executable, *args])
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, f"{args} exited with status {status}"
    return usage.ru_maxrss / 1024.0
imported = peak_mb("-c", "import plumeinv.cli")
run = peak_mb("-m", "plumeinv", "run", "--config", "perfbench/case.yaml", "--out-dir", sys.argv[1],
              "--n-steps", "2000", "--seed", "1")
print(json.dumps({"import": imported, "run": run}))
"""

# Prints, as one JSON line, the peak RSS in MB of a fresh child that imports
# the CLI and of one that runs a 2000-step invert in the directory given as
# its argument, after a synth there that is not measured.
INVERT_RSS_SCRIPT = """
import json, os, subprocess, sys
def peak_mb(*args):
    child = subprocess.Popen([sys.executable, *args])
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, f"{args} exited with status {status}"
    return usage.ru_maxrss / 1024.0
out = sys.argv[1]
subprocess.run([sys.executable, "-m", "plumeinv", "synth", "--config", "perfbench/case.yaml",
                "--out-dir", out, "--seed", "1"], check=True, capture_output=True)
imported = peak_mb("-c", "import plumeinv.cli")
invert = peak_mb("-m", "plumeinv", "invert", "--config", "perfbench/case.yaml", "--out-dir", out,
                 "--n-steps", "2000", "--seed", "1")
print(json.dumps({"import": imported, "invert": invert}))
"""

# Prints, as one JSON line, the peak RSS in MB of a fresh child that imports
# the CLI and of one that runs propagate on a 2000-step invert of
# perfbench/case.yaml, made in the directory given as its argument and not
# measured. The case is written there with sampler.n_steps at 2000, so
# propagate reads the invert state as fresh; the bundled file is only read.
PROPAGATE_RSS_SCRIPT = """
import json, os, subprocess, sys
import yaml
case = yaml.safe_load(open("perfbench/case.yaml"))
case["sampler"]["n_steps"] = 2000
os.makedirs(sys.argv[1])
path = os.path.join(sys.argv[1], "case.yaml")
with open(path, "w") as fh:
    yaml.safe_dump(case, fh)
def peak_mb(*args):
    child = subprocess.Popen([sys.executable, *args])
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, f"{args} exited with status {status}"
    return usage.ru_maxrss / 1024.0
common = ["--config", path, "--out-dir", os.path.join(sys.argv[1], "run"), "--seed", "1"]
subprocess.run([sys.executable, "-m", "plumeinv", "invert", *common], check=True, capture_output=True)
imported = peak_mb("-c", "import plumeinv.cli")
propagate = peak_mb("-m", "plumeinv", "propagate", *common)
print(json.dumps({"import": imported, "propagate": propagate}))
"""

# The case is perfbench/case.yaml over 120 days: its duration and every
# sampler's count times four, written beside the run; the bundled file is
# only read.
HORIZON_RSS_SCRIPT = """
import json, os, subprocess, sys
import yaml
case = yaml.safe_load(open("perfbench/case.yaml"))
case["time"]["duration_s"] *= 4
for sensor in case["synthetic"]["sensors"]:
    if "schedule" in sensor:
        sensor["schedule"]["count"] *= 4
os.makedirs(sys.argv[1])
path = os.path.join(sys.argv[1], "case.yaml")
with open(path, "w") as fh:
    yaml.safe_dump(case, fh)
def peak_mb(*args):
    child = subprocess.Popen([sys.executable, *args])
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, f"{args} exited with status {status}"
    return usage.ru_maxrss / 1024.0
out = os.path.join(sys.argv[1], "run")
imported = peak_mb("-c", "import plumeinv.cli")
wind = peak_mb("-m", "plumeinv", "wind-fit", "--config", path, "--out-dir", out)
synth = peak_mb("-m", "plumeinv", "synth", "--config", path, "--out-dir", out)
print(json.dumps({"import": imported, "wind_fit": wind, "synth": synth}))
"""


def tiny_case(out_dir) -> dict:
    return {
        "paths": {
            "wind_csv": "wind.csv",
            "sensors_file": "sensors.yaml",
            "measurements_csv": "measurements.csv",
            "out_dir": str(out_dir),
        },
        "time": {"start": "2024-06-01T00:00:00Z", "duration_s": 21600.0},
        "dt_inversion_s": 3600.0,
        "dt_generation_s": 1800.0,
        "stability_class": "D",
        "particle": {"w_dep_mps": 1.2e-2, "w_set_mps": 7.86e-3},
        "sources": [
            {"id": "q1", "x_m": 0.0, "y_m": 0.0, "z_m": 5.0},
            {"id": "q2", "x_m": 60.0, "y_m": 40.0, "z_m": 4.0},
        ],
        "grid": {
            "x_min_m": -100.0, "x_max_m": 400.0,
            "y_min_m": -300.0, "y_max_m": 100.0,
            "n_x": 6, "n_y": 5, "n_modes": 8,
        },
        "prior": {"alpha": 50.0, "gamma": 5.0e-3},
        "sampler": {"beta": 0.6, "n_steps": 4000, "burn_in_fraction": 0.2, "seed": 0},
        "synthetic": {
            "wind_cadence_s": 600.0,
            "clip": True,
            "wind_model": {
                "speed_base_mps": 3.0,
                "min_speed_mps": 0.4,
                "direction_base_deg": 300.0,
                "speed_harmonics": [{"amplitude": 0.6, "period_s": 7200.0, "phase_rad": 0.5}],
                "direction_harmonics": [
                    {"amplitude": 15.0, "period_s": 10800.0, "phase_rad": 1.0}
                ],
            },
            "signals": [
                {"offset_kg_s": 1.0, "amplitude_kg_s": 0.3,
                 "omega_rad_s": 2.909e-4, "phase_rad": -1.5707963},
                {"offset_kg_s": 0.6, "amplitude_kg_s": 0.2,
                 "omega_rad_s": 5.818e-4, "phase_rad": 0.6},
            ],
            "sensors": [
                {"id": "rt1", "kind": "realtime_sampler", "x_m": 250.0, "y_m": -120.0,
                 "z_m": 3.0, "window_s": 3600.0, "snr": 100.0,
                 "schedule": {"start": "2024-06-01T00:00:00Z", "every_s": 3600.0, "count": 6}},
                {"id": "jar_a", "kind": "dustfall_jar", "x_m": 150.0, "y_m": -60.0,
                 "z_m": 1.5, "area_m2": 0.02, "snr": 10.0},
                {"id": "jar_b", "kind": "dustfall_jar", "x_m": 200.0, "y_m": 20.0,
                 "z_m": 1.5, "area_m2": 0.02, "snr": 10.0},
                {"id": "jar_c", "kind": "dustfall_jar", "x_m": 90.0, "y_m": -140.0,
                 "z_m": 1.5, "area_m2": 0.02, "snr": 10.0},
            ],
        },
    }


def dense_operator_case(data: dict) -> None:
    """Four sources over eight days, a sampler read every half hour and an
    80 x 80 map.

    The generation-grid F (386 x 1536, 4.7 MB) is several times any array
    synth needs for F q, and H (6400 x 768, 39 MB) several times any array
    propagate needs for its products.
    """
    data["time"]["duration_s"] = 8 * 86400.0
    data["sources"] += [
        {"id": "q3", "x_m": -50.0, "y_m": 80.0, "z_m": 3.0},
        {"id": "q4", "x_m": 120.0, "y_m": -30.0, "z_m": 6.0},
    ]
    data["synthetic"]["signals"] += data["synthetic"]["signals"]
    data["synthetic"]["sensors"][0]["schedule"].update(every_s=1800.0, count=383)
    data["grid"].update(n_x=80, n_y=80)
    data["sampler"]["n_steps"] = 200


def write_case(root: Path, name="case.yaml", mutate=None) -> tuple:
    out = root / "out"
    data = tiny_case(out)
    if mutate is not None:
        mutate(data)
    path = root / name
    path.write_text(yaml.safe_dump(data))
    return path, out


def short_bundled_case(root: Path) -> Path:
    """The bundled case with a 500-step chain, written as ``root/case.yaml``."""
    data = yaml.safe_load(Path(cli.default_config_path()).read_text())
    data["sampler"]["n_steps"] = 500
    path = root / "case.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def strip_timing(metadata: dict) -> dict:
    stages = {
        name: {k: v for k, v in payload.items() if k != "timing_s"}
        for name, payload in metadata["stages"].items()
    }
    return {**metadata, "stages": stages}


def stage_keys(out: Path) -> dict:
    return json.loads((out / "run_metadata.json").read_text())["stage_keys"]


def mtimes(out: Path, names) -> dict:
    return {name: (out / name).stat().st_mtime_ns for name in names}


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path, out = write_case(root)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    return cfg_path, out


class TestRun:
    def test_writes_every_artifact(self, completed):
        _, out = completed
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        assert (out / "state" / "wind.npz").is_file()
        assert (out / "state" / "inversion.npz").is_file()

    def test_artifacts_carry_their_stage_key(self, completed):
        _, out = completed
        keys = stage_keys(out)
        assert set(keys) == set(pipeline.STAGES)
        assert len(set(keys.values())) == len(keys)
        assert all(len(k) == 64 and int(k, 16) >= 0 for k in keys.values())
        for name, stage in WRITTEN_BY.items():
            text = (out / name).read_text()
            if name.endswith(".json"):
                stamp = json.loads(text)["stage_key"]
            elif name.endswith(".yaml"):
                stamp = yaml.safe_load(text)["stage_key"]
            else:
                assert text.startswith("# stage_key=")
                stamp = text.splitlines()[0].split("=", 1)[1]
            assert stamp == keys[stage], name

    def test_metadata_reports_all_stages(self, completed):
        _, out = completed
        meta = json.loads((out / "run_metadata.json").read_text())
        assert set(meta["stages"]) == {"synth", "wind_fit", "invert", "propagate"}
        invert = meta["stages"]["invert"]
        assert 0.0 < invert["acceptance_rate"] <= 1.0
        assert invert["ess"] > 0.0
        assert set(invert["constant_rates_kg_s"]) == {"q1", "q2"}
        for payload in meta["stages"].values():
            assert payload["timing_s"] >= 0.0
        assert meta["config"]["sampler"]["n_steps"] == 4000
        assert "paths" not in meta["config"]

    def test_metadata_is_strict_json(self, tmp_path):
        """Five steps leave R-hat undefined: it is written as null, not NaN."""
        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path), "--n-steps", "5", "--seed", "1"]) == 0
        for name in ("wind_fit.json", "deposition_grid.json"):
            json.loads((out / name).read_text(), parse_constant=refuse)
        meta = json.loads((out / "run_metadata.json").read_text(), parse_constant=refuse)
        assert meta["stages"]["invert"]["r_hat"] is None

    def test_propagate_certifies_the_sketch(self, completed):
        """12 rate slots fit in the sketch, so the Nystrom factor keeps the
        whole trace but for the shift, and never more than it."""
        _, out = completed
        propagate = json.loads((out / "run_metadata.json").read_text())["stages"]["propagate"]
        eigensolve = propagate["eigensolve"]
        assert eigensolve["method"] == "nystrom" and eigensolve["sketch_size"] == 12
        assert eigensolve["test_matrix"] == "identity" and eigensolve["nonzeros_per_row"] == 1
        assert 0.0 <= eigensolve["unexplained_trace_share"] <= 1e-12
        assert 0.0 < propagate["kept_variance_share"] < 1.0

    def test_one_step_chain_records_null_trace_shares(self, tmp_path):
        """One step leaves the chain's covariance trace zero: no share of
        it is defined, and none is computed."""
        cfg_path, out = write_case(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", "--config", str(cfg_path), "--n-steps", "1"]) == 0
        propagate = json.loads((out / "run_metadata.json").read_text())["stages"]["propagate"]
        assert propagate["eigensolve"]["unexplained_trace_share"] is None
        assert propagate["kept_variance_share"] is None

    def test_sensor_id_with_a_comma_round_trips(self, tmp_path):
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"]["sensors"][1].update(id="jar,a")
        )
        assert cli.main(["run", "--config", str(cfg_path), "--n-steps", "200"]) == 0
        (row,) = [r for r in (out / "measurements.csv").read_text().splitlines() if "jar,a" in r]
        assert row.startswith('"jar,a",0,')

    def test_wind_fit_reports_cv_choice(self, completed):
        _, out = completed
        hyper = json.loads((out / "wind_fit.json").read_text())["hyperparameters"]
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["stages"]["wind_fit"]["hyperparameters"] == hyper
        for fit in hyper.values():
            assert fit["cv_score"] > 0.0 and fit["cv_runner_up_gap"] >= 0.0

    def test_rerun_elsewhere_is_byte_identical(self, completed, tmp_path):
        _, first_out = completed
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        for name in ARTIFACTS:
            if name == "run_metadata.json":
                continue
            assert (out / name).read_bytes() == (first_out / name).read_bytes(), name
        a = strip_timing(json.loads((first_out / "run_metadata.json").read_text()))
        b = strip_timing(json.loads((out / "run_metadata.json").read_text()))
        assert a == b

    def test_rerun_in_place_skips_complete_stages(self, completed):
        cfg_path, out = completed
        before_synth = (out / "measurements.csv").stat().st_mtime_ns
        before_grid = (out / "deposition_grid.csv").stat().st_mtime_ns
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "measurements.csv").stat().st_mtime_ns == before_synth
        assert (out / "deposition_grid.csv").stat().st_mtime_ns > before_grid


class TestStageCommands:
    def test_propagate_chains_from_nothing(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["propagate", "--config", str(cfg_path)]) == 0
        for name in ARTIFACTS:
            assert (out / name).is_file(), name

    def test_synth_alone(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["synth", "--config", str(cfg_path)]) == 0
        for name in ("wind.csv", "sensors.yaml", "measurements.csv", "truth_rates.csv"):
            assert (out / name).is_file()
        assert not (out / "emissions_constant.csv").exists()

    def test_invert_through_constant(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        rc = cli.main(["invert", "--config", str(cfg_path), "--through", "constant"])
        assert rc == 0
        assert (out / "emissions_constant.csv").is_file()
        assert not (out / "emissions_smooth.csv").exists()
        assert not (out / "state" / "inversion.npz").exists()

    def test_drop_sensor_writes_suffixed_artifacts(self, completed):
        cfg_path, out = completed
        plain = (out / "emissions_positive.csv").read_bytes()
        rc = cli.main(["invert", "--config", str(cfg_path), "--drop-sensor", "rt1"])
        assert rc == 0
        assert (out / "emissions_positive_drop-rt1.csv").is_file()
        assert (out / "emissions_positive.csv").read_bytes() == plain

    def test_drop_jar_equals_the_case_without_it(self, tmp_path):
        """Jars pool their signal variance, so the dropped jar must not set
        the others' noise: the result equals that of the files without it."""
        cfg_path, out = write_case(tmp_path)
        cfg = load_config(cfg_path)
        dropped = pipeline.run_stage(cfg, "invert", through="smooth", drop_sensor="jar_b")
        lean = tmp_path / "lean"
        shutil.copytree(out, lean)
        listed = yaml.safe_load((lean / "sensors.yaml").read_text())
        listed["sensors"] = [s for s in listed["sensors"] if s["id"] != "jar_b"]
        (lean / "sensors.yaml").write_text(yaml.safe_dump(listed))
        rows = (lean / "measurements.csv").read_text().splitlines(keepends=True)
        (lean / "measurements.csv").write_text("".join(r for r in rows if not r.startswith("jar_b,")))
        lean_cfg = replace(cfg, synthetic=None, paths=replace(cfg.paths, out_dir=str(lean)))
        plain = pipeline.run_stage(lean_cfg, "invert", through="smooth")
        assert "jar_b" not in plain.measurements.sensor_ids
        for got, want in [
            (dropped.noise_var, plain.noise_var),
            (dropped.constant.q, plain.constant.q),
            (dropped.smooth.mean, plain.smooth.mean),
            (dropped.smooth.std, plain.smooth.std),
        ]:
            np.testing.assert_array_equal(got, want)

    def test_noise_scale_suffix(self, completed):
        cfg_path, out = completed
        rc = cli.main([
            "invert", "--config", str(cfg_path),
            "--through", "constant", "--noise-scale", "0.5",
        ])
        assert rc == 0
        assert (out / "emissions_constant_noise-0.5.csv").is_file()

    def test_positive_side_experiments_leave_the_sketch_unfactored(self, tmp_path, monkeypatch):
        """On the bundled case, a positive-stage side experiment writes its
        suffixed estimate without making the Nystrom factor, which only the
        inversion state keeps, and leaves that state and the keys as they were."""
        cfg = load_config(short_bundled_case(tmp_path), out_dir=tmp_path / "out")
        pipeline.run_stage(cfg, "invert")
        out = cfg.resolve_out_dir()
        state, keys = (out / pipeline.INVERSION_STATE).read_bytes(), stage_keys(out)

        def refuse(self):
            raise AssertionError("a side experiment factored the covariance sketch")

        monkeypatch.setattr(sampling.CovarianceSketch, "nystrom_factor", refuse)
        for options, suffix in [({"drop_sensor": "xact1"}, "drop-xact1"),
                                ({"noise_scale": 0.5}, "noise-0.5")]:
            result = pipeline.run_invert(cfg, **options)
            assert result.positive.cov.y is not None
            assert (out / f"emissions_positive_{suffix}.csv").stat().st_size > 0
        assert (out / pipeline.INVERSION_STATE).read_bytes() == state
        assert stage_keys(out) == keys

    def test_modes_reruns_only_propagate(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        kept = ["measurements.csv", "state/wind.npz", "state/inversion.npz"]
        before, keys = mtimes(out, kept + ["deposition_grid.csv"]), stage_keys(out)
        assert cli.main(["run", "--config", str(cfg_path), "--modes", "5"]) == 0
        after = mtimes(out, kept + ["deposition_grid.csv"])
        for name in kept:
            assert after[name] == before[name], name
        assert after["deposition_grid.csv"] > before["deposition_grid.csv"]
        new_keys = stage_keys(out)
        assert [s for s in keys if new_keys[s] != keys[s]] == ["propagate"]
        meta = json.loads((out / "run_metadata.json").read_text())
        assert set(meta["stages"]) == set(pipeline.STAGES)
        assert meta["stages"]["propagate"]["n_modes"] == 5

    def test_n_steps_keeps_synth_and_wind_fit(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        kept = ["measurements.csv", "state/wind.npz"]
        before = mtimes(out, kept + ["state/inversion.npz"])
        assert cli.main(["invert", "--config", str(cfg_path), "--n-steps", "2500"]) == 0
        after = mtimes(out, kept + ["state/inversion.npz"])
        for name in kept:
            assert after[name] == before[name], name
        assert after["state/inversion.npz"] > before["state/inversion.npz"]
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["config"]["sampler"]["n_steps"] == 2500
        assert meta["stages"]["invert"]["n_steps"] == 2500
        # the map was made from the old chain, so its entry is gone
        assert set(meta["stages"]) == {"synth", "wind_fit", "invert"}

    def test_upstream_edit_reruns_every_stage(self, tmp_path):
        def shift_start(data):  # the sampler schedule moves with the horizon
            data["time"]["start"] = "2024-06-02T00:00:00Z"
            data["synthetic"]["sensors"][0]["schedule"]["start"] = "2024-06-02T00:00:00Z"

        def slow_wind(data):
            shift_start(data)
            data["synthetic"]["wind_model"]["speed_base_mps"] = 2.5

        cfg_path, out = write_case(tmp_path)
        shifted, _ = write_case(tmp_path, name="shifted.yaml", mutate=shift_start)
        slowed, _ = write_case(tmp_path, name="slowed.yaml", mutate=slow_wind)
        first = ["wind.csv", "state/wind.npz", "state/inversion.npz", "deposition_grid.csv"]
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        # a --seed edit, then a time.start edit, then a synthetic.wind_model edit
        for case in (cfg_path, shifted, slowed):
            before, keys = mtimes(out, first), stage_keys(out)
            assert cli.main(["run", "--config", str(case), "--seed", "1"]) == 0
            after, new_keys = mtimes(out, first), stage_keys(out)
            for name in first:
                assert after[name] > before[name], (case, name)
            for stage in pipeline.STAGES:
                assert new_keys[stage] != keys[stage], (case, stage)

    def test_deleted_measurements_rerun_synth(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        argv = ["invert", "--config", str(cfg_path), "--through", "constant"]
        assert cli.main(argv) == 0
        data = (out / "measurements.csv").read_bytes()
        before = mtimes(out, ["wind.csv", "state/wind.npz"])
        (out / "measurements.csv").unlink()
        assert cli.main(argv) == 0
        assert (out / "measurements.csv").read_bytes() == data
        # the wind fit is still fresh, so it does not run again
        assert mtimes(out, ["wind.csv", "state/wind.npz"]) == before

    def test_signal_edit_keeps_the_wind_fit(self, tmp_path):
        def shift_offset(data):
            data["synthetic"]["signals"][0]["offset_kg_s"] = 1.2

        cfg_path, out = write_case(tmp_path)
        edited, _ = write_case(tmp_path, name="edited.yaml", mutate=shift_offset)
        argv = ["invert", "--through", "constant", "--config"]
        wind = ["wind.csv", "wind_fit.csv", "state/wind.npz"]
        assert cli.main(argv + [str(cfg_path)]) == 0
        rerun = ["measurements.csv", "emissions_constant.csv"]
        before, keys = mtimes(out, wind + rerun), stage_keys(out)
        assert cli.main(argv + [str(edited)]) == 0
        after, new_keys = mtimes(out, wind + rerun), stage_keys(out)
        for name in wind:
            assert after[name] == before[name], name
        for name in rerun:
            assert after[name] > before[name], name
        # invert --through constant records no key of its own
        assert keys.keys() == new_keys.keys() == {"wind_fit", "synth"}
        assert new_keys["wind_fit"] == keys["wind_fit"] and new_keys["synth"] != keys["synth"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(dt_inversion_s=1200.0),
            lambda d: d["synthetic"].update(wind_cadence_s=300.0),
        ],
        ids=["dt_inversion", "wind_cadence"],
    )
    def test_wind_fit_edit_keeps_synth(self, tmp_path, edit):
        """Synth reads neither the inversion grid nor the wind records: an
        edit of either refits the wind and keeps synth's data and key."""
        cfg_path, out = write_case(tmp_path)
        edited, _ = write_case(tmp_path, name="edited.yaml", mutate=edit)
        argv = ["invert", "--through", "constant", "--config"]
        kept = ["sensors.yaml", "measurements.csv", "truth_rates.csv"]
        assert cli.main(argv + [str(cfg_path)]) == 0
        before, keys = mtimes(out, kept + ["state/wind.npz"]), stage_keys(out)
        assert cli.main(argv + [str(edited)]) == 0
        after, new_keys = mtimes(out, kept + ["state/wind.npz"]), stage_keys(out)
        for name in kept:
            assert after[name] == before[name], name
        assert after["state/wind.npz"] > before["state/wind.npz"]
        assert new_keys["synth"] == keys["synth"] and new_keys["wind_fit"] != keys["wind_fit"]

    def test_dt_generation_edit_on_real_data_reruns_nothing(self, tmp_path):
        """Only synth reads the generation grid, and a real-data case has no synth."""
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        names = ["wind_fit.csv", "state/wind.npz", "emissions_positive.csv", "state/inversion.npz"]
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        before, keys = mtimes(out, names), stage_keys(out)
        data = yaml.safe_load(cfg_path.read_text())
        data["dt_generation_s"] = 3600.0
        cfg_path.write_text(yaml.safe_dump(data))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert mtimes(out, names) == before
        assert stage_keys(out) == keys

    def test_another_output_version_reruns_every_stage(self, tmp_path, monkeypatch):
        """A directory whose metadata was recorded under another output
        version is not read as fresh, though its config is unchanged."""
        cfg_path, out = write_case(tmp_path)
        version = pipeline.OUTPUT_VERSION
        monkeypatch.setattr(pipeline, "OUTPUT_VERSION", version - 1)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        names = [name for name, stage in WRITTEN_BY.items() if stage != "propagate"]
        names += ["state/wind.npz", "state/inversion.npz"]
        before, keys = mtimes(out, names), stage_keys(out)
        monkeypatch.setattr(pipeline, "OUTPUT_VERSION", version)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        after, new_keys = mtimes(out, names), stage_keys(out)
        for name in names:
            assert after[name] > before[name], name
        for stage in pipeline.STAGES:
            assert new_keys[stage] != keys[stage], stage

    @staticmethod
    def rerun_with(tmp_path, mutate) -> dict:
        """Run the case, then the case edited by ``mutate`` in the same
        directory: the edit keeps every stage key and reruns no stage but
        propagate, which a run always reruns. Returns the final metadata."""
        cfg_path, out = write_case(tmp_path)
        edited, _ = write_case(tmp_path, name="edited.yaml", mutate=mutate)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        names = [name for name, stage in WRITTEN_BY.items() if stage != "propagate"]
        names += ["state/wind.npz", "state/inversion.npz"]
        before, keys = mtimes(out, names), stage_keys(out)
        assert cli.main(["run", "--config", str(edited)]) == 0
        assert mtimes(out, names) == before
        assert stage_keys(out) == keys
        return json.loads((out / "run_metadata.json").read_text())

    def test_particle_density_and_diameter_rerun_nothing(self, tmp_path):
        """The kernel reads only the two velocities: a config that still
        carries an older density and diameter loads and reruns nothing."""
        def lead(data):
            data["particle"].update(density_kg_m3=11340.0, diameter_m=3.0e-6)

        meta = self.rerun_with(tmp_path, lead)
        assert meta["config"]["particle"] == {"w_dep": 1.2e-2, "w_set": 7.86e-3}

    def test_old_cv_cap_and_same_dt_keys_rerun_nothing(self, tmp_path):
        """A config that still sets the keys for the wind cross-validation
        cap and the same-step opt-in, at their old defaults, loads and
        reruns nothing."""
        meta = self.rerun_with(
            tmp_path, lambda d: d.update(wind_cv_max_points=400, allow_same_dt=False)
        )
        assert not {"wind_cv_max_points", "allow_same_dt"} & set(meta["config"])

    def test_wind_fit_alone_fits_once(self, tmp_path, monkeypatch):
        calls = []
        fit_wind = pipeline.fit_wind

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_wind(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_wind", counting)
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["wind-fit", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        assert (out / "wind.csv").is_file() and (out / "state" / "wind.npz").is_file()
        assert not (out / "sensors.yaml").exists()

    def test_stage_keys_are_computed_once_per_caller(self, tmp_path, monkeypatch):
        """run_stage computes the keys once for its freshness checks and
        each runner once for itself: five for a run, two for a rerun that
        finds every stage fresh and runs propagate alone."""
        calls = []
        stage_keys = pipeline._stage_keys

        def counting(cfg):
            calls.append(1)
            return stage_keys(cfg)

        monkeypatch.setattr(pipeline, "_stage_keys", counting)
        cfg_path, _ = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert len(calls) <= 5
        calls.clear()
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert len(calls) <= 2

    def test_propagate_refuses_an_inversion_of_another_prior(self, completed):
        """Called directly, not through run_stage, propagate runs no
        predecessor: after a prior edit it refuses the stored inversion."""
        cfg_path, out = completed
        cfg = load_config(cfg_path)
        edited = replace(cfg, prior=replace(cfg.prior, alpha=2.0 * cfg.prior.alpha))
        before = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        with pytest.raises(ConfigurationError, match="missing or stale; run the invert stage"):
            pipeline.run_propagate(edited)
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == before

    def test_unreadable_metadata_reruns_every_stage(self, tmp_path, monkeypatch, caplog):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        keys = stage_keys(out)
        (out / "run_metadata.json").write_text("{not json")
        ran = []
        for stage, runner in list(pipeline._RUNNERS.items()):
            def recording(cfg, *args, _stage=stage, _runner=runner, **kwargs):
                ran.append(_stage)
                return _runner(cfg, *args, **kwargs)

            monkeypatch.setitem(pipeline._RUNNERS, stage, recording)
        pipeline.run_stage(load_config(cfg_path), "propagate")
        assert ran == list(pipeline.STAGES)
        assert "every stage counts as stale" in caplog.text
        assert stage_keys(out) == keys

    def test_every_config_leaf_is_in_a_slice(self, tmp_path):
        cfg_path, _ = write_case(tmp_path)
        plain = config_dict(load_config(cfg_path))
        plain.pop("paths")

        def leaves(node, prefix=()):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from leaves(value, prefix + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from leaves(value, prefix + (i,))
            else:
                yield prefix

        sliced = [tuple(name.split(".")) for names in pipeline.SLICES.values() for name in names]
        orphans = [
            leaf for leaf in leaves(plain)
            if not any(leaf[: len(name)] == name for name in sliced)
        ]
        assert orphans == []


class TestLeanState:
    def test_positive_stage_forms_no_dense_prior(self, tmp_path, monkeypatch):
        cfg_path, _ = write_case(tmp_path)
        cfg = load_config(cfg_path)
        pipeline.run_stage(cfg, "synth")

        def refuse(self):
            raise AssertionError("dense n x n prior covariance formed")

        monkeypatch.setattr(SmoothnessPrior, "dense_cov", refuse)
        result = pipeline.run_invert(cfg, through="positive")
        assert np.all(np.isfinite(result.smooth.std)) and np.all(result.smooth.std > 0)
        assert (tmp_path / "out" / "emissions_smooth.csv").is_file()

    def test_invert_holds_f_as_csr(self, tmp_path, monkeypatch):
        cfg_path, _ = write_case(tmp_path)
        cfg = load_config(cfg_path)
        pipeline.run_stage(cfg, "synth")
        assembled = []
        assemble_f = pipeline.assemble_F

        def recording(*args, **kwargs):
            assembled.append(assemble_f(*args, **kwargs))
            return assembled[-1]

        monkeypatch.setattr(pipeline, "assemble_F", recording)
        result = pipeline.run_invert(cfg, through="constant")
        assert len(assembled) == 1 and isinstance(assembled[0], csr_array)
        assert result.f_matrix is assembled[0]

    def test_state_files_hold_only_what_is_loaded(self, tmp_path, monkeypatch):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        loaded = {}
        load_state = pipeline._load_state

        class Recording(dict):
            def __getitem__(self, key):
                loaded[self.name].add(key)
                return super().__getitem__(key)

        def recording_load_state(cfg, stage, name, keys):
            state = Recording(load_state(cfg, stage, name, keys))
            state.name = name
            loaded.setdefault(name, set())
            return state

        monkeypatch.setattr(pipeline, "_load_state", recording_load_state)
        # propagate reads both state files; the requested stage always runs
        assert cli.main(["propagate", "--config", str(cfg_path)]) == 0
        assert loaded[pipeline.INVERSION_STATE] == {"q_positive", "cov_factor", "cov_trace"}
        for name in (pipeline.WIND_STATE, pipeline.INVERSION_STATE):
            with np.load(out / name) as data:
                assert set(data.files) == loaded[name], name

    def test_synth_holds_no_dense_observation_map(self, tmp_path):
        cfg = load_config(write_case(tmp_path, mutate=dense_operator_case)[0])
        pipeline.run_stage(cfg, "wind_fit")
        n_meas = sum(measurement_count(s) for s in cfg.synthetic.sensors)
        f_bytes = n_meas * len(cfg.sources) * cfg.time_grid(cfg.dt_generation).n_steps * 8
        tracemalloc.start()
        try:
            pipeline.run_synth(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f_bytes > 4e6
        assert peak < 0.5 * f_bytes, f"synth peak {peak / f_bytes:.2f} x F_gen"

    def test_propagate_holds_no_dense_deposition_operator(self, tmp_path):
        cfg = load_config(write_case(tmp_path, mutate=dense_operator_case)[0])
        pipeline.run_stage(cfg, "invert")
        n = len(cfg.sources) * pipeline.inversion_grid(cfg).n_steps
        h_bytes = cfg.grid.n_cells * n * 8
        tracemalloc.start()
        try:
            result = pipeline.run_propagate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result["deposition"].mean.max() > 0
        assert h_bytes > 3e7
        assert peak < 0.5 * h_bytes, f"propagate peak {peak / h_bytes:.2f} x H"

    def test_propagate_frees_the_consumed_factor_before_h(self, tmp_path, monkeypatch):
        """The eigensolve consumes the n x 400 covariance factor, and
        propagate lets it go before H [q | U] is formed. On a 2000-step
        seed-1 state of perfbench/case.yaml the traced peak read 1.50 x the
        factor's bytes (in the eigensolve), and 1.69 x while H was formed
        with the factor still held."""
        data = yaml.safe_load((Path(__file__).resolve().parents[1] / "perfbench" / "case.yaml").read_text())
        data["sampler"].update(n_steps=2000, seed=1)
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = load_config(path, out_dir=tmp_path / "out")
        pipeline.run_stage(cfg, "invert")
        factor_bytes = len(cfg.sources) * pipeline.inversion_grid(cfg).n_steps * sampling.SKETCH_SIZE * 8
        held = []
        assemble_h = pipeline.assemble_H

        def recording_assemble_h(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return assemble_h(*args)

        monkeypatch.setattr(pipeline, "assemble_H", recording_assemble_h)
        tracemalloc.start()
        try:
            pipeline.run_propagate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held[0] < 0.75 * factor_bytes, f"{held[0] / factor_bytes:.2f} x the factor held at H"
        assert peak < 1.6 * factor_bytes, f"propagate peak {peak / factor_bytes:.2f} x the factor"

    def test_state_round_trips(self, tmp_path, monkeypatch):
        """_load_state returns each array _save_state wrote, dtype and shape
        included, and a second write is byte-identical."""
        cfg = load_config(write_case(tmp_path)[0])
        arrays = {
            "factor": np.random.default_rng(0).standard_normal((700, 400)),  # > 1 MiB
            "total": np.float64(2.5),
            "ids": np.arange(7, dtype=np.int64),
            "fortran": np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)),
            "empty": np.empty((0, 3)),
            "flags": np.array([True, False]),
        }
        monkeypatch.setattr(pipeline, "_fresh", lambda cfg, stage, keys: True)
        pipeline._save_state(cfg, pipeline.INVERSION_STATE, **arrays)
        path = cfg.resolve_out_dir() / pipeline.INVERSION_STATE
        written = path.read_bytes()
        loaded = pipeline._load_state(cfg, "invert", pipeline.INVERSION_STATE, {})
        assert list(loaded) == list(arrays)
        for name, array in arrays.items():
            array = np.asarray(array)
            assert loaded[name].dtype == array.dtype, name
            assert loaded[name].shape == array.shape, name
            np.testing.assert_array_equal(loaded[name], array, err_msg=name)
        pipeline._save_state(cfg, pipeline.INVERSION_STATE, **arrays)
        assert path.read_bytes() == written


class TestLibraryUse:
    def test_readme_code_runs_as_documented(self, tmp_path, monkeypatch, capsys):
        """The README's Library-use blocks run in order on a short-chain copy
        of the bundled case, with ``q`` and ``x`` bound before the last."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, re.S)
        assert len(blocks) == 3
        short_bundled_case(tmp_path)
        monkeypatch.chdir(tmp_path)
        names = {}
        for block in blocks[:-1]:
            exec(block, names)
        cfg, result, prior = names["cfg"], names["result"], names["prior"]
        n = len(cfg.sources) * pipeline.inversion_grid(cfg).n_steps
        positive = result.positive
        assert isinstance(result, pipeline.InversionResult)
        assert isinstance(positive, sampling.ChainSummary)
        assert 0.0 < positive.acceptance_rate < 1.0
        assert f"{positive.acceptance_rate} {positive.ess}" in capsys.readouterr().out
        np.testing.assert_array_equal(positive.point, np.maximum(positive.mean, 0.0))
        assert positive.cov.diag.shape == (n,)
        assert positive.cov.y is None  # the factor went to the state file
        with np.load(tmp_path / "runs" / "api" / pipeline.INVERSION_STATE) as state:
            np.testing.assert_array_equal(state["q_positive"], positive.point)
            assert state["cov_factor"].shape == (n, sampling.SKETCH_SIZE)
        assert isinstance(prior, SmoothnessPrior) and prior.n == n

        names.update(q=positive.point, x=np.ones((n, 2)))
        exec(blocks[-1], names)
        n_meas = result.measurements.values.size
        f, fq, hx = names["f"], names["fq"], names["hx"]
        assert f.shape == (n_meas, n) and fq.shape == (n_meas,)
        np.testing.assert_allclose(fq, f @ positive.point, rtol=1e-12, atol=1e-12 * np.abs(fq).max())
        assert hx.shape == (cfg.grid.n_cells, 2)


class TestTwin:
    """The twin's data come from the wind model, and invert from the fit of
    its records, so an error of the wind fit shows in the recovery."""

    def test_synth_data_do_not_depend_on_the_wind_state(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        pipeline.run_stage(load_config(cfg_path), "synth")
        assert (out / pipeline.WIND_STATE).is_file()
        bare = tmp_path / "bare"
        pipeline.run_synth(load_config(cfg_path, out_dir=bare))
        assert not (bare / pipeline.WIND_STATE).exists()
        for name in ("sensors.yaml", "measurements.csv", "truth_rates.csv"):
            assert (bare / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("seed, days", [(17, 30), (21, 30), (25, 30), (38, 30), (0, 60)])
    def test_fitted_wind_is_near_the_model(self, tmp_path, seed, days):
        """On these seeds an evenly strided cross-validation chose a length
        scale that smoothed away the bundled wind's 7.4 h speed harmonic,
        an rms error of 0.19-0.37 m/s."""
        data = yaml.safe_load(Path(cli.default_config_path()).read_text())
        data["time"]["duration_s"] = days * 86400.0
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = load_config(path, out_dir=tmp_path / "out", seed=seed)
        pipeline.run_stage(cfg, "wind_fit")
        fitted = pipeline.load_wind_series(cfg)
        grid = fitted.grid
        model = wind_records(cfg.synthetic.wind_model, grid.t0, grid.span, grid.dt)[1:]
        u_x, u_y = np.array([to_components(record) for record in model]).T
        rms = np.sqrt(np.mean((fitted.u_x - u_x) ** 2 + (fitted.u_y - u_y) ** 2))
        assert rms < 0.01
        meta = json.loads((cfg.resolve_out_dir() / "run_metadata.json").read_text())
        assert meta["stages"]["wind_fit"]["wind_rms_error_mps"] == pytest.approx(rms, rel=1e-6)

    def test_a_wrong_wind_fit_shows_in_the_recovery(self, tmp_path, monkeypatch):
        """u_x's length scale forced to 25920 s, which smooths away the speed
        harmonic, puts the top source's constant rate far off its truth."""
        def top_source_error(out_dir) -> float:
            cfg = load_config(cli.default_config_path(), out_dir=out_dir, seed=17)
            rates = pipeline.run_stage(cfg, "invert", through="constant").constant.rates
            truth = emission_series(cfg.synthetic.spec, pipeline.generation_grid(cfg))
            means = truth.reshape(len(cfg.sources), -1).mean(axis=1)
            top = int(np.argmax(means))
            return abs(rates[top] - means[top]) / means[top]

        fitted = top_source_error(tmp_path / "fitted")
        select = pipeline.select_hyperparameters

        def forced(records, seed):
            choice_x, choice_y = select(records, seed=seed)
            config = replace(choice_x.config, length_scale=25920.0)
            return replace(choice_x, config=config), choice_y

        monkeypatch.setattr(pipeline, "select_hyperparameters", forced)
        wrong = top_source_error(tmp_path / "forced")
        assert fitted < 0.2 < wrong
        assert wrong > 4.0 * fitted

    def test_real_data_records_no_wind_error(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        assert cli.main(["wind-fit", "--config", str(cfg_path)]) == 0
        wind_fit = json.loads((out / "run_metadata.json").read_text())["stages"]["wind_fit"]
        assert "wind_rms_error_mps" not in wind_fit


def real_data_case(root: Path, jar_x: float) -> tuple:
    """A non-synthetic config with its wind and measurement files on disk."""
    out = root / "out"
    out.mkdir(parents=True)
    data = tiny_case(out)
    del data["synthetic"]
    data["stability_class"] = "F"
    data["particle"]["w_dep_mps"] = 0.0
    data["particle"]["w_set_mps"] = 0.02
    data["time"]["duration_s"] = 7200.0
    data["sources"] = [{"id": "q1", "x_m": 0.0, "y_m": 0.0, "z_m": 2.0}]
    path = root / "case.yaml"
    path.write_text(yaml.safe_dump(data))

    lines = ["timestamp,speed_mps,direction_deg_from"]
    for k in range(13):
        minute = 10 * k
        lines.append(f"2024-06-01T{minute // 60:02d}:{minute % 60:02d}:00Z,0.5,270")
    (out / "wind.csv").write_text("\n".join(lines) + "\n")
    (out / "sensors.yaml").write_text(
        "sensors:\n"
        f"  - {{id: far, kind: dustfall_jar, x_m: {jar_x}, y_m: 0.0, z_m: 0.0,\n"
        "     area_m2: 0.02, snr: 10.0}\n"
    )
    (out / "measurements.csv").write_text("sensor_id,index,value\nfar,0,1.0e-6\n")
    return path, out


class TestExitCodes:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(stability_class="G"),
            # synthetic.clip is a YAML boolean: text and numbers are refused
            *(lambda d, v=v: d["synthetic"].update(clip=v) for v in ("false", "no", 2, 0)),
        ],
        ids=["stability_G", "clip_text_false", "clip_text_no", "clip_2", "clip_0"],
    )
    def test_invalid_config_is_2(self, tmp_path, edit):
        cfg_path, out = write_case(tmp_path, mutate=edit)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_out_of_range_beta_override_is_2(self, tmp_path):
        # rejected while the config is built, before any stage runs
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["invert", "--config", str(cfg_path), "--beta", "1.5"]) == 2
        assert not list(out.rglob("*"))

    def test_zero_modes_override_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path), "--modes", "0"]) == 2
        assert not list(out.rglob("*"))

    def test_modes_above_half_the_sketch_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path), "--modes", "201"]) == 2
        assert not list(out.rglob("*"))
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d["grid"].update(n_modes=201))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_singular_sketch_core_is_3(self, tmp_path, monkeypatch, caplog):
        """A zero test matrix makes the Nystrom core zero, so its Cholesky
        factorization fails."""
        monkeypatch.setattr(sampling, "_sketch_matrix", lambda dim: csr_array((dim, dim)))
        cfg_path, _ = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 3
        assert "sketch core" in caplog.text

    def test_wind_gram_that_does_not_factor_is_3(self, tmp_path, monkeypatch, caplog):
        """A wind kernel matrix that fails to factor even with the jitter."""

        def failing(band):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(windprep, "cholesky_banded", failing)
        cfg_path, _ = write_case(tmp_path)
        assert cli.main(["wind-fit", "--config", str(cfg_path)]) == 3
        assert "cross-validation of wind component u_x: kernel matrix at length" in caplog.text

    def test_eigensolve_failure_is_3(self, tmp_path, monkeypatch, caplog):
        """The SVD of the covariance factor does not converge."""

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(uqprop, "svd", failing)
        cfg_path, _ = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 3
        assert "eigensolve: the SVD" in caplog.text

    def test_non_finite_covariance_factor_is_3(self, tmp_path, caplog):
        """A NaN in the stored covariance factor stops propagate before the
        eigensolve's QR, which would not check it."""
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["invert", "--config", str(cfg_path)]) == 0
        with np.load(out / pipeline.INVERSION_STATE) as data:
            state = {k: data[k] for k in data.files}
        state["cov_factor"][3, 1] = np.nan
        pipeline._save_state(load_config(cfg_path), pipeline.INVERSION_STATE, **state)
        assert cli.main(["propagate", "--config", str(cfg_path)]) == 3
        assert "eigensolve: the" in caplog.text
        assert "covariance factor is not finite" in caplog.text

    def test_indefinite_innovation_matrix_is_3(self, tmp_path, monkeypatch, caplog):
        """Negative noise variances reach the smooth stage: its innovation
        matrix is indefinite and does not factor."""
        smooth = pipeline.gaussian_posterior

        def negated(f, d, noise_var, *args):
            return smooth(f, d, -1e6 * noise_var, *args)

        monkeypatch.setattr(pipeline, "gaussian_posterior", negated)
        cfg_path, _ = write_case(tmp_path)
        assert cli.main(["invert", "--config", str(cfg_path)]) == 3
        assert "innovation matrix factorization failed (condition number" in caplog.text

    def test_one_step_grid_is_2(self, tmp_path):
        def one_step(data):  # one inversion step of 3600 s
            data["time"]["duration_s"] = 3600.0

        cfg_path, out = write_case(tmp_path, mutate=one_step)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "schedule, window_s",
        [
            ({"count": 7}, 3600.0),  # the seventh window ends past the horizon
            # (00:10, 00:40] holds a generation step but no inversion step
            ({"start": "2024-06-01T00:10:00Z"}, 1800.0),
        ],
        ids=["past_the_horizon", "empty_on_the_inversion_grid"],
    )
    def test_bad_synthetic_sampler_window_is_2(self, tmp_path, schedule, window_s):
        """Refused at load, before the wind fit or synth writes a file."""
        def edit(data):
            sampler = data["synthetic"]["sensors"][0]
            sampler["schedule"].update(schedule)
            sampler["window_s"] = window_s

        cfg_path, out = write_case(tmp_path, mutate=edit)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_single_point_grid_axis_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d["grid"].update(n_x=1))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_same_dt_is_2_even_with_the_old_opt_in(self, tmp_path):
        """Generating on the inversion grid is refused, and the key that
        used to allow it is ignored."""
        def same_dt(d):
            d.update(dt_generation_s=d["dt_inversion_s"], allow_same_dt=True)
        cfg_path, out = write_case(tmp_path, mutate=same_dt)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_nonpositive_prior_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d["prior"].update(alpha=-1.0))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_null_sampler_section_is_2(self, tmp_path, caplog):
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d.update(sampler=None))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "'sampler'" in caplog.text
        assert not out.exists()

    def test_fractional_integer_key_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d["sampler"].update(n_steps=2000.9))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_zero_harmonic_period_is_2(self, tmp_path):
        def zero_period(d):
            d["synthetic"]["wind_model"]["speed_harmonics"][0]["period_s"] = 0
        cfg_path, out = write_case(tmp_path, mutate=zero_period)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("cadence", [0.0, -600.0])
    def test_nonpositive_wind_cadence_is_2(self, tmp_path, cadence):
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"].update(wind_cadence_s=cadence)
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_negative_min_wind_speed_is_2(self, tmp_path):
        def dipping_wind(d):
            d["synthetic"]["wind_model"].update(speed_base_mps=0.5, min_speed_mps=-5.0)
        cfg_path, out = write_case(tmp_path, mutate=dipping_wind)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_fractional_grid_size_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path, mutate=lambda d: d["grid"].update(n_y=5.5))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize(
        "sensor, key, value",
        [(1, "x_m", float("nan")), (1, "x_m", float("inf")), (2, "z_m", float("nan")),
         (3, "snr", True)],
        ids=["nan_x", "inf_x", "nan_z", "bool_snr"],
    )
    def test_bad_synthetic_sensor_number_is_2(self, tmp_path, sensor, key, value):
        # refused while the config loads, before any stage writes a file
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"]["sensors"][sensor].update({key: value})
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("char", ["/", "\\", "\n"], ids=["slash", "backslash", "newline"])
    def test_sensor_id_with_a_path_separator_or_line_break_is_2(self, tmp_path, char):
        # --drop-sensor puts the id in a file name, and a CSV row is one line
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"]["sensors"][1].update(id=f"jar{char}a")
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    def test_sensor_id_starting_with_hash_is_2(self, tmp_path, caplog):
        # measurements.csv would hold the id's rows as comment lines
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"]["sensors"][1].update(id="#a")
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "'#a'" in caplog.text
        assert not out.exists()

    def test_fractional_schedule_count_is_2(self, tmp_path):
        cfg_path, out = write_case(
            tmp_path, mutate=lambda d: d["synthetic"]["sensors"][0]["schedule"].update(count=2.5)
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    def test_negative_seed_is_2(self, tmp_path):
        cfg_path, out = write_case(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_nonpositive_noise_floor_is_2(self, tmp_path, floor):
        # with one reading, rt1's noise variance is the floor squared alone
        def one_reading(d):
            d["synthetic"]["sensors"][0]["schedule"]["count"] = 1
            d["noise_floor"] = floor
        cfg_path, out = write_case(tmp_path, mutate=one_reading)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert not list(out.rglob("*"))

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_nonfinite_noise_scale_is_2(self, completed, scale):
        cfg_path, out = completed
        before = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        argv = ["invert", "--config", str(cfg_path), "--through", "constant"]
        assert cli.main(argv + ["--noise-scale", scale]) == 2
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == before

    def test_unknown_drop_sensor_is_2(self, completed):
        cfg_path, _ = completed
        rc = cli.main(["invert", "--config", str(cfg_path), "--drop-sensor", "nope"])
        assert rc == 2

    def test_dropping_the_only_sensor_is_refused(self, tmp_path):
        cfg_path, _ = real_data_case(tmp_path, jar_x=100.0)
        with pytest.raises(ValidationError, match="leaves no measurements"):
            pipeline.run_invert(load_config(cfg_path), drop_sensor="far")
        assert cli.main(["invert", "--config", str(cfg_path), "--drop-sensor", "far"]) == 2

    def test_missing_wind_without_synth_is_2(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        (out / "wind.csv").unlink()
        assert cli.main(["invert", "--config", str(cfg_path)]) == 2

    def test_synth_without_synthetic_section_is_2(self, tmp_path):
        cfg_path, _ = real_data_case(tmp_path, jar_x=100.0)
        assert cli.main(["synth", "--config", str(cfg_path)]) == 2

    def test_two_record_wind_is_2(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        wind = out / "wind.csv"
        wind.write_text("".join(wind.read_text().splitlines(keepends=True)[:3]))
        assert cli.main(["wind-fit", "--config", str(cfg_path)]) == 2
        assert not (out / "state" / "wind.npz").exists()

    def test_wind_file_edit_reruns_wind_fit(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        argv = ["invert", "--config", str(cfg_path), "--through", "constant"]
        assert cli.main(argv) == 0
        fitted = (out / "wind_fit.csv").read_text()
        wind = out / "wind.csv"
        wind.write_text(wind.read_text().replace(",0.5,270", ",0.5,90"))
        assert cli.main(argv) == 0
        refitted = (out / "wind_fit.csv").read_text()
        assert refitted != fitted
        u_x = [float(line.split(",")[1]) for line in refitted.splitlines()[2:]]
        assert max(u_x) < 0.0

    def test_real_data_invert_succeeds_nearby(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        rc = cli.main(["invert", "--config", str(cfg_path), "--through", "constant"])
        assert rc == 0
        assert (out / "emissions_constant.csv").is_file()

    def test_nan_sensor_coordinate_is_2(self, tmp_path):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        sensors = out / "sensors.yaml"
        text = sensors.read_text()
        assert "x_m: 100.0" in text
        sensors.write_text(text.replace("x_m: 100.0", "x_m: .nan"))
        rc = cli.main(["invert", "--config", str(cfg_path), "--through", "constant"])
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_nonfinite_measurement_is_2(self, tmp_path, value):
        cfg_path, out = real_data_case(tmp_path, jar_x=100.0)
        (out / "measurements.csv").write_text(f"sensor_id,index,value\nfar,0,{value}\n")
        rc = cli.main(["invert", "--config", str(cfg_path), "--through", "constant"])
        assert rc == 2
        assert not (out / "emissions_constant.csv").exists()

    @pytest.mark.parametrize("command, operator", [("run", "product F q"), ("invert", "F")])
    def test_nonfinite_observation_map_is_3(self, tmp_path, monkeypatch, caplog, command, operator):
        # NaN kernels: synth's F q, the first operator run reaches, and
        # invert's dense F each exit 3 naming what broke
        cfg_path, _ = write_case(tmp_path)
        if command == "invert":
            assert cli.main(["synth", "--config", str(cfg_path)]) == 0

        def nan_kernels(points, model, wind):
            return np.full((len(wind[0]), len(points), len(model.sites)), np.nan)

        monkeypatch.setattr(observation, "kernel_profile", nan_kernels)
        assert cli.main([command, "--config", str(cfg_path)]) == 3
        assert f"observation map {operator} has non-finite entries" in caplog.text

    def test_kernel_overflow_is_3(self, tmp_path):
        # settling without deposition at 50 km in stable air overflows the
        # image term; the CLI must report a numerical failure, not crash
        cfg_path, _ = real_data_case(tmp_path, jar_x=5.0e4)
        rc = cli.main(["invert", "--config", str(cfg_path), "--through", "constant"])
        assert rc == 3


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "plumeinv", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for command in ("synth", "wind-fit", "invert", "propagate", "run"):
            assert command in proc.stdout

    def test_blas_thread_count_does_not_change_the_artifacts(self, tmp_path):
        """Fresh processes at OPENBLAS_NUM_THREADS=1 and =2 write the same bytes:
        every artifact and state file, and run_metadata.json timing_s aside."""
        outs = []
        for count in ("1", "2"):
            (tmp_path / count).mkdir()
            cfg_path, out = write_case(tmp_path / count)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": count, "OMP_NUM_THREADS": count}
            proc = subprocess.run(
                [sys.executable, "-m", "plumeinv", "run", "--config", str(cfg_path),
                 "--n-steps", "500"],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        one, two = outs
        data = [name for name in ARTIFACTS if name != "run_metadata.json"]
        for name in data + ["state/wind.npz", "state/inversion.npz"]:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        metadata = [strip_timing(json.loads((out / "run_metadata.json").read_text()))
                    for out in outs]
        assert metadata[0] == metadata[1]

    def test_run_stage_holds_blas_at_one_thread_and_the_count_comes_back(
        self, tmp_path, monkeypatch
    ):
        """A caller whose OpenBLAS runs two threads sees one inside every stage
        run_stage runs, predecessors included, and two after it, on a return
        and on a raise."""
        libraries = threads._openblas()
        if not libraries:
            pytest.skip("no loaded OpenBLAS library in this process")
        cfg_path, _ = write_case(tmp_path)
        cfg = load_config(cfg_path)
        seen = []

        def counting(stage):
            def runner(cfg, **options):
                seen.append((stage, {getter() for getter, _ in libraries}))
                if stage == "invert":
                    raise NumericalError("stage failed")
            return runner

        for stage in pipeline.STAGES:
            monkeypatch.setitem(pipeline._RUNNERS, stage, counting(stage))
        before = [getter() for getter, _ in libraries]
        try:
            for _, setter in libraries:
                setter(2)
            pipeline.run_stage(cfg, "synth")
            assert seen == [("wind_fit", {1}), ("synth", {1})]
            assert [getter() for getter, _ in libraries] == [2] * len(libraries)
            seen.clear()
            with pytest.raises(NumericalError, match="stage failed"):
                pipeline.run_stage(cfg, "invert")
            assert seen == [("wind_fit", {1}), ("synth", {1}), ("invert", {1})]
            assert [getter() for getter, _ in libraries] == [2] * len(libraries)
        finally:
            for (_, setter), count in zip(libraries, before):
                setter(count)

    def test_cold_run_peak_rss_above_the_import(self, tmp_path):
        """A cold 2000-step run of perfbench/case.yaml peaks less than 63 MB of
        RSS above the bare import of the CLI, so neither the generation-grid F
        nor H is held dense.

        Each child is started fresh and read with os.wait4, so the difference
        is what the run adds to the CLI's own import. It read 43.0-43.1 MB
        over three runs on a 2-vCPU machine (41.9-42.1 MB when the chain's
        ring held half blocks, 80-83 MB when synth held the generation-grid
        F and propagate held H); the bound adds about a half. The children
        are started by a small Python process of their own: a child's
        ru_maxrss counts the high water of the process it was forked from,
        and pytest's own peak would hide the run's.
        """
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, str(tmp_path / "rss-run")],
            capture_output=True, text=True, timeout=600, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout.splitlines()[-1])
        run, imported = peaks["run"], peaks["import"]
        print(f"peak RSS: run {run:.1f} MB, import {imported:.1f} MB, "
              f"difference {run - imported:.1f} MB")
        assert run - imported < 63, f"the run peaks {run - imported:.1f} MB above the import"

    def test_invert_peak_rss_above_the_import(self, tmp_path):
        """A 2000-step invert of perfbench/case.yaml peaks less than 43 MB of
        RSS above the bare import of the CLI, so invert holds no
        (measurements, sources x steps) array: neither a dense F nor the
        smooth stage's F C.

        Each child is started fresh and read with os.wait4, from a small
        Python process of its own, as in the cold run's test above. It read
        41.2-41.4 MB in three runs on a 2-vCPU machine (39.9-40.1 MB when the
        chain's ring held half blocks), and 47.3-47.5 MB when invert made the
        dense F and the smooth stage held F C whole.
        """
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", INVERT_RSS_SCRIPT, str(tmp_path / "invert-run")],
            capture_output=True, text=True, timeout=600, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout.splitlines()[-1])
        invert, imported = peaks["invert"], peaks["import"]
        print(f"peak RSS: invert {invert:.1f} MB, import {imported:.1f} MB, "
              f"difference {invert - imported:.1f} MB")
        assert invert - imported < 43, f"invert peaks {invert - imported:.1f} MB above the import"

    def test_propagate_peak_rss_above_the_import(self, tmp_path):
        """Propagate on a 2000-step invert of perfbench/case.yaml peaks less
        than 34 MB of RSS above the bare import of the CLI, so its eigensolve
        forms no n x 400 U beside the 5040 x 400 covariance factor.

        Each child is started fresh and read with os.wait4, from a small
        Python process of its own, as in the cold run's test above. It read
        29.0-29.2 MB in three runs on a 2-vCPU machine, and 39.4-39.8 MB when
        the eigensolve was the thin SVD of the whole factor.
        """
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", PROPAGATE_RSS_SCRIPT, str(tmp_path / "propagate-run")],
            capture_output=True, text=True, timeout=600, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout.splitlines()[-1])
        propagate, imported = peaks["propagate"], peaks["import"]
        print(f"peak RSS: propagate {propagate:.1f} MB, import {imported:.1f} MB, "
              f"difference {propagate - imported:.1f} MB")
        assert propagate - imported < 34, f"propagate peaks {propagate - imported:.1f} MB above the import"

    def test_horizon_synth_peak_rss_above_the_import(self, tmp_path):
        """Synth on a 120-day case peaks less than 30 MB of RSS above the bare
        import of the CLI, so no sensor's window matrix is held dense.

        Each child is started fresh and read with os.wait4, from a small
        Python process of its own, as in the cold run's test above. Synth
        read 14.7-15.0 MB above the import in four runs on a 2-vCPU machine
        (155 MB when each sensor's dense window matrix was built, 133 MB for
        the hourly sampler's alone); the bound is twice that reading.
        """
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", HORIZON_RSS_SCRIPT, str(tmp_path / "horizon-120d")],
            capture_output=True, text=True, timeout=600, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout.splitlines()[-1])
        synth, imported = peaks["synth"], peaks["import"]
        print(f"peak RSS: wind fit {peaks['wind_fit']:.1f} MB, synth {synth:.1f} MB, "
              f"import {imported:.1f} MB, synth's difference {synth - imported:.1f} MB")
        assert synth - imported < 30, f"synth peaks {synth - imported:.1f} MB above the import"

    def test_cli_import_leaves_out_scipy_optimize(self):
        """A fresh ``import plumeinv.cli`` loads no part of ``scipy.optimize``,
        which would add about 16 MB of resident memory and 0.14 s to every
        command."""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, plumeinv.cli; print([m for m in sys.modules if m.startswith('scipy.optimize')])"],
            capture_output=True, text=True, timeout=120, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_command_required(self):
        proc = subprocess.run(
            [sys.executable, "-m", "plumeinv"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
