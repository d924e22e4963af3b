"""plumeinv benchmark: timed CLI runs of one workload, output checks, traced layers.

    python3 perfbench/run.py --workload {cold,chain,remap} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is run from ``src/`` there.

Load model: a closed loop with one client. One process (this one) starts
``plumeinv`` as a child, waits for it to exit and only then starts the
next run. Every child gets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``PLUME_THREADS`` set to the number of usable cores. The seed reaches
the program only as ``--seed``, and it drives the synthetic noise, the
wind cross-validation shuffle and the chain.

Workloads (the case file is this directory's copy of the bundled case,
with only ``sampler.n_steps`` changed):

* ``cold``: ``plumeinv run`` into an empty directory with a shortened
  chain. Every layer works in the proportions a first run pays.
* ``chain``: ``plumeinv invert`` on a fresh copy of a directory where
  synth and the wind fit already ran. The chain is about nine tenths of
  the timed wall; the wind fit and the deposition map do no work.
* ``remap``: ``plumeinv run --modes 150`` on a fresh copy of a finished
  run made at 100 modes. Only propagate reads the mode count, so one
  stage is needed, but every stage whose state is stale reruns. Each
  invocation pays for two complete runs, so BENCHMARK.json does not list
  it; run it by hand when stage reuse is what changed.

Set-up checks that plumeinv imports from ``src/`` (recording its
versions), writes the case file and builds the template directory
(nothing for ``cold``); its wall is ``setup_s``, the median of three
set-ups where one is cheap. Timed runs then repeat on fresh copies of the
template until ``--seconds`` of timed wall is used, at least once. Each
run's wall, CPU and peak RSS come from ``os.wait4`` on that child. A run
fails if it exits non-zero, misses an artifact, writes non-finite or
negative positive-stage rates, or misses acceptance criterion 7(a) or,
where the map is made, 10. Criteria 7(b) and 8 fail a run on the bundled
seed and are reported as misses on other seeds. Repeated runs of one seed
must write byte-identical data artifacts (``timing_s`` aside).

With ``--trace 1`` the invocation makes one untraced run and then one
traced in-process run (``trace_run.py``) with the same seed and threads,
and reports the per-layer metrics from the traced spans; the traced wall
minus the untraced wall is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A copy of the full record
(environment, every run, informational fields) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CASE = BENCH / "case.yaml"

# Every invocation must end within 180 s; children are killed at this mark.
DEADLINE_S = 172.0
COLD_STEPS = 2000
CHAIN_STEPS = 10000
REMAP_STEPS = 1000
BASE_MODES = 100
REMAP_MODES = 150
# Criteria 7(b) and 8 are calibrated on the bundled case's own seed; correct
# runs miss them on some other seeds (smooth correlation 0.773 on seed 22,
# 0.699 on seed 33; acceptance 0.244 on seed 21 at 11k steps), so on those
# seeds a miss is reported, not failed.
BUNDLED_SEED = 0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PLUME_THREADS")
RUN_ARTIFACTS = (
    "wind.csv",
    "sensors.yaml",
    "measurements.csv",
    "truth_rates.csv",
    "wind_fit.csv",
    "wind_fit.json",
    "emissions_constant.csv",
    "emissions_smooth.csv",
    "emissions_positive.csv",
    "run_metadata.json",
    "state/wind.npz",
    "state/inversion.npz",
)
MAP_ARTIFACTS = ("deposition_grid.csv", "deposition_grid.json")
STAGE_NAMES = ("synth", "wind_fit", "invert", "propagate")
# End-to-end metrics reported with --trace 0. ESS per second and the recovery
# error are printed for every run too, but their spread over seeds is the
# seed's, not the program's (ESS 46 to 191 at 10k steps), so they are not gated.
GATED = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


@dataclass(frozen=True)
class Workload:
    name: str
    n_steps: int
    setup: tuple  # CLI subcommand that builds the template directory, or ()
    timed: tuple  # CLI subcommand timed on a fresh copy of the template
    stages_needed: tuple  # stages that read what the timed command changes
    n_modes: int = BASE_MODES  # mode count the timed command asks for
    setup_repeats: int = 1  # cheap set-ups are repeated and their median reported

    @property
    def artifacts(self) -> tuple:
        return RUN_ARTIFACTS + (MAP_ARTIFACTS if "run" in self.timed else ())


WORKLOADS = {
    "cold": Workload("cold", COLD_STEPS, (), ("run",), STAGE_NAMES, setup_repeats=3),
    "chain": Workload("chain", CHAIN_STEPS, ("synth",), ("invert",), ("invert",)),
    "remap": Workload(
        "remap",
        REMAP_STEPS,
        ("run",),
        ("run", "--modes", str(REMAP_MODES)),
        ("propagate",),
        n_modes=REMAP_MODES,
    ),
}


class BenchError(RuntimeError):
    """The workload could not be set up or measured."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Run:
    label: str
    child: Child
    failures: list = field(default_factory=list)
    misses: list = field(default_factory=list)  # seed-calibrated thresholds missed off the bundled seed
    recovery_rel_err: float = float("nan")
    ess: float = float("nan")
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items() if k not in ("PLUME_SEED", "PYTHONPATH")}
    env.update({name: threads for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(argv: list, env: dict, log_path: Path, deadline: float) -> Child:
    """Run one child to completion; resources come from wait4 on its pid alone."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another run")
    with open(log_path, "ab") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        tic = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    done = threading.Event()

    def kill_late():
        if not done.is_set():
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill_late)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        done.set()
        timer.cancel()
    wall = time.perf_counter() - tic
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_args(command: tuple, case: Path, out_dir: Path, seed: int) -> list:
    return [*command, "--config", str(case), "--out-dir", str(out_dir), "--seed", str(seed)]


def log_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# output checks


def _read_table(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _series(path: Path, column: str) -> dict:
    out: dict = {}
    for row in _read_table(path):
        out.setdefault(row["source_id"], []).append(float(row[column]))
    return out


def _block_average(fine: list, n_coarse: int) -> list:
    factor = len(fine) // n_coarse
    if factor * n_coarse != len(fine):
        raise ValueError("truth grid is not a refinement of the inversion grid")
    return [math.fsum(fine[j * factor:(j + 1) * factor]) / factor for j in range(n_coarse)]


def check_outputs(workload: Workload, run_dir: Path, seed: int, run: Run) -> None:
    """Append every failed check to run.failures; fill recovery and ESS."""
    if run.child.code != 0:
        run.failures.append(f"exit code {run.child.code}")
        return
    try:
        _check_artifacts(workload, run_dir, seed, run)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        run.failures.append(f"unreadable output: {exc!r}")


def _check_artifacts(workload: Workload, run_dir: Path, seed: int, run: Run) -> None:
    fail = run.failures.append
    calibrated = run.failures.append if seed == BUNDLED_SEED else run.misses.append
    missing = [name for name in workload.artifacts if not (run_dir / name).is_file()]
    if missing:
        fail(f"missing artifacts: {', '.join(missing)}")
        return

    meta = json.loads((run_dir / "run_metadata.json").read_text())
    sampler = meta["config"]["sampler"]
    if sampler["seed"] != seed or sampler["n_steps"] != workload.n_steps:
        fail(f"run used seed {sampler['seed']} and {sampler['n_steps']} steps")
    invert = meta["stages"].get("invert", {})
    run.ess = float(invert.get("ess", float("nan")))
    acceptance = float(invert.get("acceptance_rate", float("nan")))
    if not 0.25 <= acceptance <= 0.40:  # criterion 8, fixed beta
        calibrated(f"acceptance rate {acceptance} outside [0.25, 0.40]")

    truth = _series(run_dir / "truth_rates.csv", "rate_kg_s")
    positive = _series(run_dir / "emissions_positive.csv", "mean_kg_s")
    positive_std = _series(run_dir / "emissions_positive.csv", "std_kg_s")
    values = [v for s in (positive, positive_std) for series in s.values() for v in series]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        fail("positive-stage rates or stds non-finite or negative")
        return
    truth_ba = {sid: _block_average(series, len(positive[sid])) for sid, series in truth.items()}
    diff = [q - t for sid in truth_ba for q, t in zip(positive[sid], truth_ba[sid])]
    norm = [t for sid in truth_ba for t in truth_ba[sid]]
    run.recovery_rel_err = math.sqrt(math.fsum(d * d for d in diff) / math.fsum(t * t for t in norm))

    # criterion 7: the two largest sources, constant within 20 %, smooth correlation > 0.8
    means = {sid: statistics.fmean(series) for sid, series in truth.items()}
    top2 = sorted(means, key=means.get, reverse=True)[:2]
    constant = _series(run_dir / "emissions_constant.csv", "mean_kg_s")
    smooth = _series(run_dir / "emissions_smooth.csv", "mean_kg_s")
    for sid in top2:
        err = abs(constant[sid][0] - means[sid]) / means[sid]
        if not err < 0.20:
            fail(f"criterion 7(a): constant rate of {sid} off by {err:.1%}")
        corr = statistics.correlation(smooth[sid], truth_ba[sid])
        if not corr > 0.8:
            calibrated(f"criterion 7(b): smooth correlation of {sid} is {corr:.3f}")

    if "run" in workload.timed:  # criterion 10: eigenvalue count, order and decay
        eig = json.loads((run_dir / "deposition_grid.json").read_text())["eigenvalues"]
        if len(eig) != workload.n_modes:
            fail(f"criterion 10: {len(eig)} eigenvalues, expected {workload.n_modes}")
        elif any(b - a > 1e-12 * eig[0] for a, b in zip(eig, eig[1:])):
            fail("criterion 10: eigenvalues not nonincreasing")
        elif not eig[-1] / eig[0] < 1e-2:
            fail(f"criterion 10: lambda_last/lambda_1 = {eig[-1] / eig[0]:.3g}")


def _drop_timing(node):
    if isinstance(node, dict):
        return {k: _drop_timing(v) for k, v in node.items() if k != "timing_s"}
    if isinstance(node, list):
        return [_drop_timing(v) for v in node]
    return node


def artifact_digests(run_dir: Path) -> dict:
    """sha256 of every file in the run directory, run_metadata.json without timing_s."""
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(run_dir).as_posix()
        data = path.read_bytes()
        if rel == "run_metadata.json":
            data = json.dumps(_drop_timing(json.loads(data)), sort_keys=True).encode()
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def compare_digests(reference: Run, other: Run) -> None:
    if not (reference.ok and other.ok):
        return
    differ = sorted(
        name
        for name in set(reference.digests) | set(other.digests)
        if reference.digests.get(name) != other.digests.get(name)
    )
    if differ:
        other.failures.append(f"artifacts differ from {reference.label}: {', '.join(differ)}")


# ---------------------------------------------------------------------------
# environment and informational fields


PROBE = """
import json, numpy, scipy, plumeinv
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "plumeinv": plumeinv.__file__}))
"""


def environment(env: dict) -> dict:
    try:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing plumeinv took over 60 s") from exc
    if probe.returncode != 0:
        raise BenchError(f"cannot import plumeinv from {SRC}:\n{probe.stderr[-2000:]}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(info.pop("plumeinv")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"plumeinv is not imported from {SRC}")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = rev.stdout.strip() or None
    sources = sorted((SRC / "plumeinv").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    info.update(
        threads=int(env["OPENBLAS_NUM_THREADS"]),
        nproc=len(os.sched_getaffinity(0)),
        commit=commit,
        src_sha256=digest.hexdigest()[:16],
        src_plumeinv_lines=lines,
    )
    return info


# ---------------------------------------------------------------------------
# per-layer metrics from the traced spans


def layer_metrics(trace: dict, workload: Workload, traced: Run, reference: Run) -> dict:
    spans = trace["spans"]
    values = trace["values"]
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    stage_child_time = [0.0] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            if name.startswith("pipeline.stage."):
                stage_child_time[parent] += duration[i]

    def total(name):
        return math.fsum(d for (n, *_), d in zip(spans, duration) if n == name)

    def count(name):
        return sum(1 for n, *_ in spans if n == name)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}

    def put(name, value, unit):
        # a failed reference run leaves NaN; the result then says correct: false
        metrics[name] = {"value": float(value) if math.isfinite(value) else 0.0, "unit": unit}

    # pipeline: stage time outside nested stages (synth runs the wind fit itself)
    stage_self = {}
    for stage in STAGE_NAMES:
        name = f"pipeline.stage.{stage}"
        stage_self[stage] = math.fsum(
            d - stage_child_time[i] for i, ((n, *_), d) in enumerate(zip(spans, duration)) if n == name
        )
        hwm = [
            (extra["hwm_end_kb"] - extra["hwm_start_kb"]) / 1024.0
            for n, _, _, _, extra in spans
            if n == name
        ]
        put(f"pipeline.stage.{stage}.rss_hwm_delta_mb", max(hwm, default=0.0), "MB")
    put("pipeline.stage.synth_self_s", stage_self["synth"], "s")
    for stage in STAGE_NAMES[1:]:
        put(f"pipeline.stage.{stage}_s", stage_self[stage], "s")
    stages_run = sum(count(f"pipeline.stage.{s}") for s in STAGE_NAMES)
    put("pipeline.stages_run", stages_run, "count")
    put("pipeline.stages_needed", len(workload.stages_needed), "count")
    put("pipeline.useful_stage_ratio", ratio(len(workload.stages_needed), stages_run), "ratio")

    put("windprep.cv_s", total("windprep.cv"), "s")
    put("windprep.gp_solves", count("windprep.gp_solve"), "count")
    put("windprep.fit_s", total("windprep.fit"), "s")
    put("windprep.fit_calls", count("windprep.fit"), "count")

    put("plume.kernel_profile_calls", count("plume.kernel_profile"), "count")
    put("plume.kernel_profile_s", total("plume.kernel_profile"), "s")

    put("observation.assemble_F_inversion_s", total("observation.assemble_F.inversion"), "s")
    put("observation.assemble_F_generation_s", total("observation.assemble_F.generation"), "s")
    put(
        "observation.F_nnz_share",
        ratio(values.get("observation.F_nonzero", 0.0), values.get("observation.F_entries", 0.0)),
        "ratio",
    )

    put("inversion.nnls_s", total("inversion.nnls"), "s")
    put("inversion.smooth_s", total("inversion.smooth"), "s")

    chain_s = total("sampling.chain")
    steps = values.get("sampling.steps", 0.0)
    chain_self = math.fsum(
        d - child_time[i] for i, ((n, *_), d) in enumerate(zip(spans, duration)) if n == "sampling.chain"
    )
    put("sampling.chain_s", chain_s, "s")
    put("sampling.steps", steps, "count")
    put("sampling.step_us", ratio(chain_s, steps) * 1e6, "us")
    put("sampling.potential_s", total("sampling.potential"), "s")
    put("sampling.prior_draw_s", total("sampling.prior_draw"), "s")
    put("sampling.moments_s", total("sampling.moments"), "s")
    put("sampling.moments_blocks", count("sampling.moments"), "count")
    put("sampling.chain_self_s", chain_self, "s")
    put("sampling.acceptance_rate", values.get("sampling.acceptance_rate", 0.0), "ratio")
    put("sampling.ess", values.get("sampling.ess", 0.0), "count")
    put("sampling.nonfinite", values.get("sampling.nonfinite", 0.0), "count")
    put("ess_per_s", ratio(reference.ess, reference.child.wall_s), "1/s")
    put("recovery_rel_err", reference.recovery_rel_err, "ratio")

    put("uqprop.assemble_H_s", total("uqprop.assemble_H"), "s")
    put("uqprop.eig_s", total("uqprop.eig"), "s")
    put("uqprop.stats_s", total("uqprop.stats"), "s")
    put(
        "uqprop.kept_variance_share",
        ratio(values.get("uqprop.kept_variance", 0.0), values.get("uqprop.total_variance", 0.0)),
        "ratio",
    )

    put("io.write_s", total("io.write"), "s")
    put("io.bytes_written", values.get("io.bytes_written", 0.0), "B")
    put("cli.import_s", trace["import_s"], "s")

    put("trace.wall_s", traced.child.wall_s, "s")
    put("trace.overhead_s", traced.child.wall_s - reference.child.wall_s, "s")
    put("trace.stage_share", ratio(math.fsum(stage_self.values()), traced.child.wall_s), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# the benchmark


def write_case(workload: Workload, path: Path) -> None:
    text, n = re.subn(
        r"^(\s+n_steps:\s*)\d+\s*$", rf"\g<1>{workload.n_steps}", CASE.read_text(), flags=re.M
    )
    if n != 1:
        raise BenchError(f"{CASE} must hold exactly one sampler.n_steps line")
    path.write_text(text)


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.case = work / "case.yaml"
        self.template = work / "template"
        self.log = work / "plumeinv.log"
        self.environment = None

    def setup(self) -> float:
        """Probe the program, write the case file and build the template; returns the wall."""
        tic = time.perf_counter()
        self.environment = environment(self.env)
        write_case(self.workload, self.case)
        shutil.rmtree(self.template, ignore_errors=True)
        self.template.mkdir()
        if self.workload.setup:
            args = cli_args(self.workload.setup, self.case, self.template, self.seed)
            child = spawn([sys.executable, "-m", "plumeinv", *args], self.env, self.log, self.deadline)
            if child.code != 0:
                raise BenchError(f"set-up exited with {child.code}:\n{log_tail(self.log)}")
        return time.perf_counter() - tic

    def run(self, label: str, traced_spans: Path = None) -> Run:
        """One timed command on a fresh copy of the template, then its output checks."""
        run_dir = self.work / label
        shutil.copytree(self.template, run_dir)
        args = cli_args(self.workload.timed, self.case, run_dir, self.seed)
        if traced_spans is None:
            argv = [sys.executable, "-m", "plumeinv", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_run.py"), str(traced_spans), *args]
        run = Run(label, spawn(argv, self.env, self.log, self.deadline))
        check_outputs(self.workload, run_dir, self.seed, run)
        if run.ok:
            run.digests = artifact_digests(run_dir)
        else:
            print(f"{label} failed: {'; '.join(run.failures)}\n{log_tail(self.log)}", file=sys.stderr)
        shutil.rmtree(run_dir)
        return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plumeinv" / "cli.py").is_file():
        print(f"perfbench: no plumeinv sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work, started + DEADLINE_S)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "n_steps": workload.n_steps,
        "n_modes": [BASE_MODES, workload.n_modes],
        "load_1min_before": os.getloadavg()[0],
    }
    try:
        setup_times = [bench.setup() for _ in range(workload.setup_repeats)]
        record["environment"] = bench.environment
        runs = []
        if args.trace:
            spans = work / "spans.json"
            runs.append(bench.run("untraced"))
            runs.append(bench.run("traced", traced_spans=spans))
            if not spans.is_file():
                raise BenchError(f"the traced run wrote no spans:\n{log_tail(bench.log)}")
            trace = json.loads(spans.read_text())
            if trace["unhooked"]:
                record["unhooked"] = trace["unhooked"]
        else:
            while True:
                runs.append(bench.run(f"run{len(runs) + 1}"))
                walls = [r.child.wall_s for r in runs]
                left = started + DEADLINE_S - time.monotonic()
                if math.fsum(walls) >= args.seconds or left < 1.5 * max(walls) + 5.0:
                    break
        for other in runs[1:]:
            compare_digests(runs[0], other)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["load_1min_after"] = os.getloadavg()[0]

    # resources of failed runs are still measured; they are reported when no run passed
    timed = [r for r in runs if r.label != "traced"]
    timed = [r for r in timed if r.ok] or timed
    per_run = {
        "wall_s": ("s", [r.child.wall_s for r in timed]),
        "cpu_s": ("s", [r.child.cpu_s for r in timed]),
        "peak_rss_mb": ("MB", [r.child.peak_rss_mb for r in timed]),
        "setup_s": ("s", setup_times),
        "ess_per_s": ("1/s", [r.ess / r.child.wall_s for r in timed]),
        "recovery_rel_err": ("ratio", [r.recovery_rel_err for r in timed]),
    }
    if args.trace:
        metrics = layer_metrics(trace, workload, runs[1], runs[0])
    else:
        metrics = {
            name: {"value": statistics.median(per_run[name][1]), "unit": per_run[name][0]}
            for name in GATED
        }

    env = record["environment"]
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"n_steps={workload.n_steps} n_modes={BASE_MODES}->{workload.n_modes} "
        f"threads={env['threads']} nproc={env['nproc']} {env['blas']} {env['blas_version']} "
        f"numpy {env['numpy']} scipy {env['scipy']} commit={env['commit']} "
        f"src={env['src_sha256']} src_lines={env['src_plumeinv_lines']} "
        f"load1 {record['load_1min_before']:.2f}->{record['load_1min_after']:.2f}"
    )
    for r in runs:
        print(
            f"  {r.label}: wall_s={r.child.wall_s:.3f} cpu_s={r.child.cpu_s:.3f} "
            f"peak_rss_mb={r.child.peak_rss_mb:.1f} recovery_rel_err={r.recovery_rel_err:.6f} "
            f"ess={r.ess:.2f} ess_per_s={r.ess / r.child.wall_s:.4f} "
            f"{'ok' if r.ok else 'FAILED: ' + '; '.join(r.failures)}"
            f"{''.join('; missed ' + m for m in r.misses)}"
        )
    for name, (unit, vals) in per_run.items():
        print(f"  {name}: median {statistics.median(vals):.6g} {unit} over n={len(vals)}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    failed = sum(1 for r in runs if not r.ok)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    record.update(
        result=result,
        setup_s=setup_times,
        runs=[
            {
                "label": r.label,
                "wall_s": r.child.wall_s,
                "cpu_s": r.child.cpu_s,
                "peak_rss_mb": r.child.peak_rss_mb,
                "recovery_rel_err": r.recovery_rel_err,
                "ess": r.ess,
                "failures": r.failures,
                "misses": r.misses,
            }
            for r in runs
        ],
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
