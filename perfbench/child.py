"""One fresh measured process of the benchmark.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --rounds R
        --mode MODE --out DIR [--spans FILE]

The process imports ``mvsde`` (and with it numpy and scipy), parses
and validates the workload's configs, and prints ``ready``; the parent
times set-up from the process start to that line.  In ``setup`` mode it
exits there.  In ``run`` and ``trace`` mode it then runs rounds until
``S`` seconds have passed and at least ``R`` rounds are done, and
prints one JSON report as its last line.  Round outputs go under ``DIR``, which is
removed at the end.  ``trace`` installs the tracer's wrappers before
set-up, adds per-round layer metrics to the report and writes the spans
to ``FILE``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(
    name: str, seed: int, seconds: float, min_rounds: int, mode: str, out: Path,
    spans: Path | None = None, sizes=None,
) -> dict:
    """Set up, then run rounds; returns the report (``ready`` is printed
    to stdout between the two)."""
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import load_configs, run_round

    try:
        cfgs = load_configs(name, seed, sizes)
        print("ready", flush=True)
        if mode == "setup":
            return {}
        out.mkdir(parents=True, exist_ok=True)
        rounds = []
        begin = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
            if tracer is not None:
                tracer.round_id = len(rounds) + 1
            cpu0, wall0 = time.process_time(), time.perf_counter()
            entry: dict = {"error": None}
            try:
                result = run_round(cfgs, str(out))
                entry.update(
                    digest=result.digest, flags=result.flags, results_bytes=result.results_bytes
                )
            except Exception:  # a failed round is counted, not fatal
                entry["error"] = traceback.format_exc(limit=3)
            entry["wall_s"] = time.perf_counter() - wall0
            entry["cpu_s"] = time.process_time() - cpu0
            rounds.append(entry)
        report = {
            "rounds": rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": _versions(),
        }
        if tracer is not None:
            report["layers"] = _round_layers(tracer, rounds)
            if spans is not None:
                tracer.dump(spans)
        return report
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)


def _round_layers(tracer, rounds) -> list[dict]:
    from tracer import layer_metrics

    by_round: dict[int, list] = {}
    for span in tracer.spans:
        by_round.setdefault(span[4], []).append(span)
    config_s = layer_metrics(by_round.get(0, []))["experiments.config_s"]
    layers = []
    for i, entry in enumerate(rounds, start=1):
        m = layer_metrics(by_round.get(i, []))
        m["experiments.config_s"] = config_s
        m["experiments.results_bytes"] = entry.get("results_bytes", 0)
        layers.append(m)
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    report = measure(
        args.workload, args.seed, args.seconds, args.rounds, args.mode, Path(args.out),
        args.spans,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
