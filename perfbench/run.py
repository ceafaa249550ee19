"""The mvsde benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``, so there is nothing to build.  Every measurement runs in a
fresh child process (``child.py``), one after another.

``--trace 0`` prints the end-to-end metrics: per-round wall and CPU
seconds (medians over the rounds of one child), set-up seconds (median
over several fresh processes), and that child's peak resident memory.
``--trace 1`` runs one untraced and one traced child, each for half the
time, and prints the per-layer metrics of the traced one plus the
tracing overhead.

A round fails if it raises, if its record names or pass flags differ
from ``reference.json``, or if its results digest differs from the
other rounds of the same code.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, host facts included, goes to ``perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
sys.path.insert(0, str(HERE))

from tracer import COUNTS, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_reference, reference_mismatches  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# fresh set-up-only processes, half before and half after the rounds so
# that the samples span the run; the run's own child is one more sample
SETUP_SAMPLES = 6
# rounds of the end-to-end child, however long one round takes: a
# median needs more than one, and so does the digest check
MIN_ROUNDS = 2
# every child together must end well inside the 180 s a run may take
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(args, mode: str, seconds: float, deadline: float, rounds: int = 1):
    """Start child.py; returns (seconds from start to ``ready``, report)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--rounds", str(rounds), "--mode", mode,
        "--out", str(OUT / f"tmp-{os.getpid()}-{mode}"),
    ]
    if mode == "trace":
        cmd += ["--spans", str(_spans_file(args))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{mode} child failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {})


def _spans_file(args) -> Path:
    return OUT / f"spans-{args.workload}-seed{args.seed}.json"


def _failures(name: str, rounds: list[dict], reference: dict) -> dict[int, str]:
    """Round number -> why it failed; empty when every round is good."""
    digests = Counter(r["digest"] for r in rounds if r["error"] is None)
    majority = digests.most_common(1)[0][0] if digests else None
    problems = {}
    for i, r in enumerate(rounds, start=1):
        if r["error"] is not None:
            problems[i] = f"raised {r['error'].strip().splitlines()[-1]}"
            continue
        diff = reference_mismatches(name, r["flags"], reference)
        if diff:
            problems[i] = f"differs from the reference: {'; '.join(diff)}"
        elif r["digest"] != majority:
            problems[i] = "results digest differs from the other rounds"
    return problems


def _host() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "loadavg_start": os.getloadavg(),
    }


def _end_to_end(args, deadline, reference) -> tuple[dict, list[dict], dict, dict]:
    def setup_only():
        return _child(args, "setup", 0.0, deadline)[0]

    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup, report = _child(args, "run", args.seconds, deadline, MIN_ROUNDS)
    setups.append(setup)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    rounds = report["rounds"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    extra = {"setup_samples": setups, "versions": report["versions"]}
    return metrics, rounds, _failures(args.workload, rounds, reference), extra


def _per_layer(args, deadline, reference) -> tuple[dict, list[dict], dict, dict]:
    half = args.seconds / 2.0
    _, plain = _child(args, "run", half, deadline)
    _, traced = _child(args, "trace", half, deadline)
    rounds = plain["rounds"] + traced["rounds"]
    problems = _failures(args.workload, rounds, reference)
    layers = traced["layers"]
    first = len(plain["rounds"]) + 1
    for i, m in enumerate(layers[1:], start=first + 1):
        changed = [name for name in COUNTS if m[name] != layers[0][name]]
        if changed:
            problems.setdefault(i, f"counts differ from the first traced round: {changed}")
    metrics = {
        name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER if name in layers[0]
    }
    plain_wall = statistics.median(r["wall_s"] for r in plain["rounds"])
    traced_wall = statistics.median(r["wall_s"] for r in traced["rounds"])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    extra = {
        "versions": traced["versions"],
        "spans_file": str(_spans_file(args)),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "traced_rounds": len(traced["rounds"]),
    }
    return metrics, rounds, problems, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mvsde benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mvsde" / "__init__.py").is_file():
        print(f"error: no mvsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    host = _host()
    reference = load_reference()
    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, rounds, problems, extra = measure(args, deadline, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host["loadavg_end"] = os.getloadavg()

    units = dict(PER_LAYER if args.trace else END_TO_END)
    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {', '.join(wl.experiments)}; threads {wl.threads}; "
          f"seed {args.seed}; {len(rounds)} rounds")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    failed_fraction = len(problems) / len(rounds)
    print(f"  {'failed_fraction':<40} {failed_fraction:.6g} ({len(problems)}/{len(rounds)} rounds)")
    for i, problem in sorted(problems.items()):
        print(f"  FAILED round {i}: {problem}")
    print(f"  host {json.dumps(host)} {json.dumps(extra['versions'])}")

    record = {
        "workload": args.workload,
        "threads": wl.threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": metrics,
        "failed_fraction": failed_fraction,
        "problems": {str(i): p for i, p in problems.items()},
        "rounds": [{k: v for k, v in r.items() if k != "flags"} for r in rounds],
        **extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
