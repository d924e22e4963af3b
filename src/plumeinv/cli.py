"""Command-line front end.

Subcommands map onto pipeline stages; every invocation loads one YAML
config (the bundled synthetic case by default), applies the CLI
overrides, and runs the requested stage with missing predecessors
filled in. Exit codes: 0 success, 2 invalid input or configuration,
3 numerical failure. ``pipeline.run_stage`` runs every stage with BLAS
on one thread, as for any library caller.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from importlib import resources

from . import pipeline
from .config import RunConfig, load_config
from .errors import NumericalError, ValidationError

__all__ = ["main"]

logger = logging.getLogger(__name__)

_STAGE_BY_COMMAND = {
    "wind-fit": "wind_fit",
    "synth": "synth",
    "invert": "invert",
    "propagate": "propagate",
    "run": "propagate",
}


def default_config_path() -> str:
    return str(resources.files("plumeinv").joinpath("data/default_case.yaml"))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="YAML",
        help="run configuration (default: the bundled synthetic case)",
    )
    parser.add_argument("--out-dir", default=None, help="override paths.out_dir")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override sampler.seed, the run's one seed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumeinv",
        description="Time-varying fugitive emission rates from sparse deposition "
        "and concentration measurements, with uncertainty propagated onto a "
        "ground deposition map.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wind = sub.add_parser("wind-fit", help="regularize raw wind onto the time grid")
    _add_common(p_wind)

    p_synth = sub.add_parser("synth", help="generate the synthetic case artifacts")
    _add_common(p_synth)

    p_inv = sub.add_parser("invert", help="estimate emission rates from measurements")
    _add_common(p_inv)
    p_inv.add_argument(
        "--through",
        choices=("constant", "smooth", "positive"),
        default="positive",
        help="last estimation stage to run (default: positive)",
    )
    p_inv.add_argument(
        "--drop-sensor",
        default=None,
        metavar="ID",
        help="exclude one sensor (writes suffixed artifacts, keeps state untouched)",
    )
    p_inv.add_argument(
        "--noise-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="scale the noise std assumed by the inversion (default 1.0)",
    )
    p_inv.add_argument("--n-steps", type=int, default=None, help="override sampler.n_steps")
    p_inv.add_argument("--beta", type=float, default=None, help="override sampler.beta")

    p_prop = sub.add_parser("propagate", help="deposition map from the stored posterior")
    _add_common(p_prop)
    p_prop.add_argument("--modes", type=int, default=None, help="override grid.n_modes")

    p_run = sub.add_parser("run", help="run every stage through propagate")
    _add_common(p_run)
    p_run.add_argument("--n-steps", type=int, default=None, help="override sampler.n_steps")
    p_run.add_argument("--beta", type=float, default=None, help="override sampler.beta")
    p_run.add_argument("--modes", type=int, default=None, help="override grid.n_modes")
    return parser


def _apply_cli_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    # Overrides flow into the config and so into the key of every stage
    # whose slice reads them (pipeline.SLICES): --modes reruns propagate
    # only, --n-steps and --beta rerun invert and propagate, and the stages
    # before those are reused.
    if getattr(args, "modes", None) is not None:
        cfg = replace(cfg, grid=replace(cfg.grid, n_modes=args.modes))
    if getattr(args, "n_steps", None) is not None:
        cfg = replace(cfg, sampler=replace(cfg.sampler, n_steps=args.n_steps))
    if getattr(args, "beta", None) is not None:
        cfg = replace(cfg, sampler=replace(cfg.sampler, beta=args.beta))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config_path = args.config if args.config is not None else default_config_path()
        cfg = load_config(config_path, out_dir=args.out_dir, seed=args.seed)
        cfg = _apply_cli_overrides(cfg, args)
        stage = _STAGE_BY_COMMAND[args.command]
        options = {}
        if args.command == "invert":
            options = {
                "through": args.through,
                "drop_sensor": args.drop_sensor,
                "noise_scale": args.noise_scale,
            }
        pipeline.run_stage(cfg, stage, **options)
    except ValidationError as exc:
        logger.error("%s", exc)
        return 2
    except NumericalError as exc:
        logger.error("numerical failure: %s", exc)
        return 3
    logger.info("%s finished (outputs in %s)", args.command, cfg.resolve_out_dir())
    return 0


if __name__ == "__main__":
    sys.exit(main())
