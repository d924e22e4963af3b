"""The seed-1, 10000-step run of ``perfbench/case.yaml``, checked in fresh processes.

One run with one BLAS thread is made once for the module. It fixes the
chain's accept decisions (acceptance and ESS of the potential trace), must
raise no RuntimeWarning, write strict JSON and leave little of the
covariance trace outside the sketch. A second run with two BLAS threads
must write the same bytes, and side experiments on a copy of the first
must leave its inversion state and stage keys as they were.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ["run", "--config", "perfbench/case.yaml", "--n-steps", "10000", "--seed", "1"]
ACCEPTANCE = 0.3077
ESS = 50.0738273965
# The sketch's unexplained trace share read 3.78e-4 on this run; the bound
# adds a margin of 7e-5, about a fifth of it.
TRACE_SHARE_BOUND = 4.5e-4


def plumeinv(*args, blas_threads="2", warnings_are_errors=False):
    """Run ``python -m plumeinv`` in a fresh process from the repository root."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads, "OMP_NUM_THREADS": "2"}
    flags = ["-W", "error::RuntimeWarning"] if warnings_are_errors else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "plumeinv", *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def strip_timing(metadata: dict) -> dict:
    stages = {
        name: {k: v for k, v in payload.items() if k != "timing_s"}
        for name, payload in metadata["stages"].items()
    }
    return {**metadata, "stages": stages}


def metadata(out: Path) -> dict:
    return json.loads((out / "run_metadata.json").read_text())


@pytest.fixture(scope="module")
def one_thread_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("one-thread-run")
    plumeinv(*RUN, "--out-dir", str(out), blas_threads="1", warnings_are_errors=True)
    return out


def test_one_thread_run_makes_the_seed_1_accept_decisions_in_strict_json(one_thread_run):
    def refuse(token):
        pytest.fail(f"non-JSON token {token} in run_metadata.json")

    text = (one_thread_run / "run_metadata.json").read_text()
    invert = json.loads(text, parse_constant=refuse)["stages"]["invert"]
    acc, ess = invert["acceptance_rate"], invert["ess"]
    assert acc == ACCEPTANCE, f"acceptance {acc}"
    assert abs(ess / ESS - 1) < 1e-6, f"ESS {ess}"


def test_sketch_leaves_little_of_the_trace_unexplained(one_thread_run):
    eigensolve = metadata(one_thread_run)["stages"]["propagate"]["eigensolve"]
    share = eigensolve["unexplained_trace_share"]
    assert eigensolve["test_matrix"] == "sparse_sign", eigensolve
    assert 0.0 <= share < TRACE_SHARE_BOUND, f"unexplained trace share {share}"


def test_two_blas_threads_write_the_same_bytes(one_thread_run, tmp_path):
    """Every stage runs BLAS on one thread whatever OPENBLAS_NUM_THREADS says,
    so the count the machine offers must not reach a single byte."""
    two = tmp_path / "two-thread-run"
    plumeinv(*RUN, "--out-dir", str(two), blas_threads="2", warnings_are_errors=True)
    files = sorted(
        path.relative_to(one_thread_run)
        for path in one_thread_run.rglob("*")
        if path.is_file() and path.name != "run_metadata.json"
    )
    assert files
    for name in files:
        assert (one_thread_run / name).read_bytes() == (two / name).read_bytes(), name
    assert strip_timing(metadata(one_thread_run)) == strip_timing(metadata(two)), (
        "run_metadata.json differs outside timing_s"
    )


def test_side_experiments_leave_the_state_and_the_stage_keys(one_thread_run, tmp_path):
    """Dropping a dustfall jar, and halving the noise through the positive
    stage, write their suffixed estimates and change neither the inversion
    state nor the stage keys."""
    run_dir = tmp_path / "run"
    shutil.copytree(one_thread_run, run_dir)
    keys_before = metadata(run_dir)["stage_keys"]
    state = run_dir / "state" / "inversion.npz"
    state_before = hashlib.sha256(state.read_bytes()).hexdigest()
    common = ["--config", "perfbench/case.yaml", "--out-dir", str(run_dir),
              "--n-steps", "10000", "--seed", "1"]
    plumeinv("invert", *common, "--through", "constant", "--drop-sensor", "jar05")
    assert (run_dir / "emissions_constant_drop-jar05.csv").stat().st_size > 0
    plumeinv("invert", *common, "--through", "positive", "--noise-scale", "0.5")
    assert (run_dir / "emissions_positive_noise-0.5.csv").stat().st_size > 0
    assert hashlib.sha256(state.read_bytes()).hexdigest() == state_before
    assert metadata(run_dir)["stage_keys"] == keys_before
