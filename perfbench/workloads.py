"""Workload definitions and one benchmark round.

A workload is a list of named experiments plus a thread count.  A round
runs each of them through the public entry points a user of the
``mvsde`` command goes through: ``parse_config_text`` (at set-up),
then ``run_experiment`` and ``emit_outputs``.  The benchmark's seed
reaches the program only as the config key ``run.seed``.

The entry points are looked up on ``mvsde.experiments`` at call time,
so the tracer's wrappers on those names see the calls.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# the default of every experiment's [run] seed
DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class Workload:
    experiments: tuple[str, ...]
    threads: int


WORKLOADS = {
    # Largest path ensemble: per-path noise streams, integrate, the
    # half-line projection and the folded oracle, which sets the memory
    # peak; no mean-field work.
    "reflected_bm": Workload(("reflected_bm_oracle",), threads=2),
    # Wasserstein-2 fixed point: almost all time is the W2 cost matrix.
    # threads = 2 is ignored by the program today.
    "law_iteration": Workload(("distribution_iteration",), threads=2),
    # Many small solves: per-call fixed costs dominate.
    "small_batch": Workload(
        ("picard_contraction", "uniqueness", "continuity", "delay_mean_oracle"),
        threads=1,
    ),
}


def config_texts(name: str, seed: int, sizes: dict[str, dict[str, str]] | None = None):
    """Config file text of each experiment in workload ``name``.

    ``sizes`` maps an experiment to extra ``section.key`` overrides; the
    tests use it to run the workloads at a small size.
    """
    wl = WORKLOADS[name]
    texts = []
    for experiment in wl.experiments:
        keys = {"run.seed": str(seed), "run.threads": str(wl.threads)}
        keys.update((sizes or {}).get(experiment, {}))
        sections: dict[str, list[str]] = {"experiment": [f"name = {experiment}"]}
        for key, value in keys.items():
            section, _, bare = key.partition(".")
            sections.setdefault(section, []).append(f"{bare} = {value}")
        texts.append(
            "\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items()) + "\n"
        )
    return texts


def load_configs(name: str, seed: int, sizes=None):
    """Parse and validate the workload's configs (part of set-up)."""
    import mvsde.experiments as experiments

    return [experiments.parse_config_text(text) for text in config_texts(name, seed, sizes)]


@dataclass
class RoundOutput:
    digest: str
    flags: dict[str, list[list]]
    results_bytes: int


def run_round(cfgs, out_dir: str) -> RoundOutput:
    """Run and emit every experiment; hash the results.jsonl files."""
    import mvsde.experiments as experiments

    h = hashlib.sha256()
    flags = {}
    size = 0
    for cfg in cfgs:
        records = experiments.run_experiment(cfg)
        written = experiments.emit_outputs(
            records,
            os.path.join(out_dir, cfg.name),
            config_text=experiments.render_config(cfg),
        )
        with open(written["results"], "rb") as fh:
            data = fh.read()
        h.update(cfg.name.encode() + b"\0" + data)
        size += len(data)
        flags[cfg.name] = [[rec.metric, bool(rec.passed)] for rec in records]
    return RoundOutput(h.hexdigest(), flags, size)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_mismatches(name: str, flags: dict[str, list[list]], reference: dict) -> list[str]:
    """Differences in record names or pass flags from the stored
    reference; a reference flag of ``null`` matches either flag."""
    expected = reference["workloads"][name]
    problems = []
    for experiment in sorted(set(expected) | set(flags)):
        want = expected.get(experiment, [])
        got = flags.get(experiment, [])
        same = len(want) == len(got) and all(
            w[0] == g[0] and w[1] in (None, g[1]) for w, g in zip(want, got)
        )
        if not same:
            problems.append(f"{experiment}: expected {want} but got {got}")
    return problems
