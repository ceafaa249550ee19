"""Command-line front end.

``mvsde run --config <file> [--out <dir>] [--seed <u64>] [--threads <k>]``
runs one experiment and writes results.jsonl and manifest.cfg (see
``emit_outputs``), and timings.txt, the one line
``<experiment>: <seconds> s`` of the experiment's wall-clock time; the
exit code is 0 only if every pass flag is true.
``mvsde validate --config <file>`` checks a configuration without
running anything, and ``mvsde list-experiments`` names what can run.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from ..errors import MvsdeError
from .config import DECLARATIONS, load_config, render_config
from .records import emit_outputs
from .runner import run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsde",
        description="constrained delay SDE simulations with self-checking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a config file")
    run_p.add_argument("--out", default=None, help="output directory (default: runs/<experiment>)")
    run_p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    run_p.add_argument("--threads", type=int, default=None, help="override [run] threads")

    sub.add_parser("list-experiments", help="list the named experiments")

    val_p = sub.add_parser("validate", help="validate a config file and exit")
    val_p.add_argument("--config", required=True, help="path to a config file")
    return parser


def _cmd_run(args) -> int:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.threads is not None:
        overrides["run.threads"] = str(args.threads)
    if args.out is not None:
        overrides["run.output_dir"] = args.out
    cfg = load_config(args.config, overrides)

    # a record refuses any non-finite value, so numpy's overflow
    # warnings on the way there would only bury the one error line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start = time.perf_counter()
        records = run_experiment(cfg)
        elapsed = time.perf_counter() - start
    out_dir = cfg.output_dir or os.path.join("runs", cfg.name)
    try:
        written = emit_outputs(records, out_dir, config_text=render_config(cfg))
        with open(os.path.join(out_dir, "timings.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{cfg.name}: {elapsed:.3f} s\n")
    except OSError as exc:
        print(f"cannot write outputs under '{out_dir}': {exc}", file=sys.stderr)
        return 2

    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        line = f"{status}  {rec.experiment}/{rec.metric}  value={rec.value:.6g}"
        if rec.std_error is not None:
            line += f"  se={rec.std_error:.3g}"
        if rec.target is not None:
            line += f"  target={rec.target:.6g}  tol={rec.tolerance:.3g}"
        print(line)
    n_fail = sum(1 for rec in records if not rec.passed)
    print(f"{len(records) - n_fail}/{len(records)} records passed; results in {written['results']}")
    return 0 if n_fail == 0 else 1


def _cmd_list() -> int:
    width = max(len(name) for name in DECLARATIONS)
    for name in sorted(DECLARATIONS):
        declared = DECLARATIONS[name]
        kind = "mean-field" if declared.meanfield else "path"
        print(f"{name:<{width}}  {kind:<10}  {declared.description}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"configuration ok: experiment '{cfg.name}'")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-experiments":
            return _cmd_list()
        if args.command == "validate":
            return _cmd_validate(args)
    except (MvsdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())
