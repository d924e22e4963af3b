"""Traced in-process run of the plumeinv command line.

    python3 perfbench/trace_run.py SPANS_JSON CLI_ARG...

Imports plumeinv, wraps the public functions of each module from outside
and then runs ``plumeinv.cli.main(CLI_ARG...)`` in this process, so the
traced run does exactly what the timed command does. Every wrapped call
records a span ``[name, start, end, parent]`` in memory; the spans, a few
counters and the import time are written to SPANS_JSON when the run ends.
The exit code is the command's own.

Each function is patched where its caller looks it up: ``pipeline`` imports
most layer functions by name, so those are replaced on ``pipeline``; the
stage runners are also replaced inside any dispatch table ``pipeline``
keeps. Nothing under ``src/`` is modified. Thread settings come from the
environment the benchmark gives this process, so they are in place before
numpy is imported.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

STAGES = {
    "synth": "run_synth",
    "wind_fit": "run_wind_fit",
    "invert": "run_invert",
    "propagate": "run_propagate",
}


class Tracer:
    """In-memory span recorder; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, extra]
        self.stack = []
        self.values = {}
        self.unhooked = []

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None, memory: bool = False):
        """``fn`` recording one span per call; ``after(result, args)`` runs once the span closed."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, None]
            if memory:
                record[4] = {"hwm_start_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if memory:
                    record[4]["hwm_end_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, memory: bool = False):
        """Replace ``owner.attr`` by its traced version; returns (original, traced)."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None, None
        traced = self.wrap(name, original, after=after, memory=memory)
        setattr(owner, attr, traced)
        return original, traced


def install(tracer: Tracer) -> None:
    import numpy as np

    from plumeinv import inversion, io, observation, pipeline, sampling, synthetic, uqprop, windprep

    # pipeline: one span per stage execution, including the wind fit that
    # synth runs itself and predecessors run_stage fills in through its
    # dispatch table.
    tables = [v for v in vars(pipeline).values() if isinstance(v, dict)]
    for stage, attr in STAGES.items():
        original, traced = tracer.patch(pipeline, attr, f"pipeline.stage.{stage}", memory=True)
        for table in tables:
            for key, value in table.items():
                if original is not None and value is original:
                    table[key] = traced

    # windprep
    tracer.patch(pipeline, "select_hyperparameters", "windprep.cv")
    tracer.patch(pipeline, "fit_wind", "windprep.fit")
    tracer.patch(windprep, "gp_posterior_mean", "windprep.gp_solve")

    # plume, through both of its callers
    tracer.patch(observation, "kernel_profile", "plume.kernel_profile")
    tracer.patch(uqprop, "kernel_profile", "plume.kernel_profile")

    # observation: F on the inversion grid (pipeline) and on the generation grid (synthetic)
    def f_nnz(f, _args):
        tracer.add("observation.F_nonzero", float(np.count_nonzero(f)))
        tracer.add("observation.F_entries", float(f.size))

    tracer.patch(pipeline, "assemble_F", "observation.assemble_F.inversion", after=f_nnz)
    tracer.patch(synthetic, "assemble_F", "observation.assemble_F.generation")

    # inversion
    tracer.patch(pipeline, "mle_constant", "inversion.nnls")
    tracer.patch(pipeline, "gaussian_posterior", "inversion.smooth")

    # sampling: the chain, and the three parts of each step
    def chain_summary(summary, _args):
        tracer.add("sampling.steps", float(summary.n_steps))
        tracer.add("sampling.nonfinite", float(summary.n_nonfinite))
        tracer.values["sampling.acceptance_rate"] = float(summary.acceptance_rate)
        tracer.values["sampling.ess"] = float(summary.ess)

    tracer.patch(inversion, "pcn_chain", "sampling.chain", after=chain_summary)
    make_potential = getattr(inversion, "make_potential", None)
    if make_potential is None:
        tracer.unhooked.append("inversion.make_potential")
    else:

        @functools.wraps(make_potential)
        def traced_make_potential(*args, **kwargs):
            return tracer.wrap("sampling.potential", make_potential(*args, **kwargs))

        inversion.make_potential = traced_make_potential
    tracer.patch(inversion.SmoothnessPrior, "sample", "sampling.prior_draw")
    tracer.patch(sampling.OnlineMoments, "update_block", "sampling.moments")

    # uqprop
    def kept_share(factors, args):
        tracer.add("uqprop.kept_variance", float(np.sum(factors.eigenvalues)))
        tracer.add("uqprop.total_variance", float(np.trace(args[0])))

    tracer.patch(pipeline, "assemble_H", "uqprop.assemble_H")
    tracer.patch(pipeline, "lowrank_truncate", "uqprop.eig", after=kept_share)
    tracer.patch(pipeline, "deposition_stats", "uqprop.stats")

    # io: every artifact writer plus the npz state files
    def written(suffix=""):
        def count(_result, args):
            path = os.fspath(args[0])
            if suffix and not path.endswith(suffix):
                path += suffix
            tracer.add("io.bytes_written", float(os.path.getsize(path)))

        return count

    for attr in sorted(vars(io)):
        if attr.startswith("write_") and callable(getattr(io, attr)):
            tracer.patch(io, attr, "io.write", after=written())
    for attr in ("savez", "savez_compressed"):
        tracer.patch(np, attr, "io.write", after=written(".npz"))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: trace_run.py SPANS_JSON CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tic = time.perf_counter()
    from plumeinv import cli

    import_s = time.perf_counter() - tic
    tracer = Tracer()
    install(tracer)
    if tracer.unhooked:
        print(f"trace_run: not traced (missing): {', '.join(tracer.unhooked)}", file=sys.stderr)
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(
                {
                    "exit_code": code,
                    "import_s": import_s,
                    "values": tracer.values,
                    "unhooked": tracer.unhooked,
                    "spans": tracer.spans,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
